"""Run one crossfuse benchmark workload and print its figures.

    python3 bench/run.py --workload stream-night --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). ``--workload
all`` runs each workload in its own process, one after another. The exit code
is 0 when every output check passed, 1 when one failed, 2 when the program
could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream-night", "train-desk", "fullscale-frame")
BLAS_THREADS = 1  # one thread: the steadiest figures on a shared machine


def _pin_environment() -> None:
    """BLAS thread count and deterministic seeds, before numpy is imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["CROSSFUSE_DETERMINISTIC"] = "1"


def _import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import crossfuse
    except ImportError as exc:
        print(f"cannot import crossfuse from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(crossfuse.__file__).resolve().parent != src / "crossfuse":
        print(f"crossfuse was imported from {crossfuse.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _pin_environment()
    _import_program()
    import workloads  # after the environment is pinned: it imports numpy

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"blas threads {os.environ['OPENBLAS_NUM_THREADS']}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    for line in result.info:
        print(f"  {line}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for check in result.checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
