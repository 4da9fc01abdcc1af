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


def _unbound_exports(path: Path) -> list[str]:
    """Names in a module's ``__all__`` that no top-level statement binds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            bound |= names
    where = path.relative_to(PACKAGE.parent)
    return [f"{where}: {name}" for name in exported if name not in bound]


def test_every_name_in_all_is_bound_by_its_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert sum("__all__" in path.read_text() for path in modules) >= 10
    assert [hit for path in modules for hit in _unbound_exports(path)] == []


def _uncalled_functions(modules: list[Path]) -> list[str]:
    """Functions and methods defined in the package that nothing in it refers to.

    A function counts as used when its name is loaded anywhere in the package
    (a call, or a reference such as a kernel handed to ``register_op``), read
    as an attribute, or listed in some module's ``__all__``. Dunder methods
    are called by Python itself and are skipped. Matching is by name, so a
    function that shares its name with a used one passes.
    """
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(PACKAGE.parent)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{where}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return [f"{where}: {name}" for where, name in defined if name not in used]


def test_every_function_is_used_in_the_package_or_exported():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert _uncalled_functions(modules) == []
