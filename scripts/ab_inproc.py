"""Compare two checkouts of pseudo in one process, operation by operation.

    python3 scripts/ab_inproc.py BASE CHANGE --workload cohom-graded --reps 60 [--fresh]

BASE and CHANGE are source checkouts (directories holding src/pseudo).
Each checkout's package is copied into a temporary directory under its
own name (pseudo_base, pseudo_change), so both are imported side by side.
The operations of an in-process workload of perfbench/workloads.py (the
copy next to this script, only read) are built once for each package,
from the same seed, and run alternately: every operation of BASE, then
the same one of CHANGE, with the order of the two flipped on each rep.
One untimed pass per package first checks every answer.  With --fresh
every operation of both packages is built again, untimed, before each
rep, so no rep reuses what an earlier one kept on its algebra or module
objects: the timings are then those of a one-shot run, and a gain that
shows without the flag but not with it comes from what is kept.  Prints the
median milliseconds of each operation for both, their sums and the
ratio CHANGE / BASE, then, as its last line, in how many reps the sum
of CHANGE's operations took less time than the sum of BASE's.

Separate interpreters on a shared machine drift between runs; two
packages timed in turn in one process see the same drift.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("cohom-graded", "cohom-ungraded", "verdict-batch")


def load_workloads():
    """perfbench/workloads.py as a module, imported from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def import_copy(checkout: Path, name: str, workdir: Path):
    """The checkout's src/pseudo, copied to workdir/name and imported as
    ``name`` with every submodule loaded."""
    source = checkout / "src" / "pseudo"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"{checkout}: no src/pseudo package")
    shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    for path in sorted((workdir / name).glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    return package


def build_ops(workloads, package, workload: str, seed: int):
    """The workload's operations, set up with ``package`` standing in for
    ``pseudo``: the operations keep the module objects they imported."""
    alias = package.__name__
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "pseudo"}
    for name in saved:
        del sys.modules[name]
    for name, mod in list(sys.modules.items()):
        if name == alias or name.startswith(alias + "."):
            sys.modules["pseudo" + name[len(alias):]] = mod
    try:
        if workload == "verdict-batch":
            return workloads.verdict_setup(seed)
        return workloads.cohomology_setup(workload, seed)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "pseudo"]:
            del sys.modules[name]
        sys.modules.update(saved)


def timed(op) -> float:
    started = perf_counter()
    op.run()
    return perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--reps", required=True, type=int)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--fresh", action="store_true",
                        help="rebuild every operation, untimed, before each rep")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        packages = [
            import_copy(args.base.resolve(), "pseudo_base", Path(workdir)),
            import_copy(args.change.resolve(), "pseudo_change", Path(workdir)),
        ]
        sides = [build_ops(workloads, p, args.workload, args.seed) for p in packages]
        labels = [op.label for op in sides[0]]
        if labels != [op.label for op in sides[1]]:
            raise SystemExit("the two checkouts built different operations")
        wrong = [
            f"{p.__name__}: {op.label}"
            for p, ops in zip(packages, sides)
            for op in ops
            if not op.check(op.run())
        ]
        if wrong:
            print("wrong answers:", *wrong, sep="\n  ", file=sys.stderr)
            return 1
        times: list[list[list[float]]] = [[[] for _ in labels] for _ in sides]
        for rep in range(args.reps):
            if args.fresh:
                sides = [build_ops(workloads, p, args.workload, args.seed) for p in packages]
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for index in range(len(labels)):
                for side in order:
                    times[side][index].append(timed(sides[side][index]))

    medians = [[statistics.median(t) * 1e3 for t in side] for side in times]
    width = max(len(label) for label in labels)
    print(f"{'operation':<{width}}  {'base ms':>9}  {'change ms':>9}  ratio")
    for label, base, change in zip(labels, *medians):
        print(f"{label:<{width}}  {base:9.3f}  {change:9.3f}  {change / base:5.3f}")
    total_base, total_change = sum(medians[0]), sum(medians[1])
    print(f"{'sum of medians':<{width}}  {total_base:9.3f}  {total_change:9.3f}  "
          f"{total_change / total_base:5.3f}")
    base_reps, change_reps = ([sum(rep) for rep in zip(*side)] for side in times)
    wins = sum(change < base for base, change in zip(base_reps, change_reps))
    print(f"change faster in {wins} of {args.reps} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
