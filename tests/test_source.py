"""Source checks over the ``crossfuse`` package that need no linter."""

import ast
from pathlib import Path

import crossfuse

PACKAGE = Path(crossfuse.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind and the module never uses.

    A name listed in the module's ``__all__`` counts as used, since it is
    imported to be re-exported; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    where = path.relative_to(PACKAGE.parent)
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_has_an_unused_top_level_import():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 15
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []
