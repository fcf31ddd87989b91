"""Compare two checkouts of pseudo in one process, operation by operation.

    python3 scripts/ab_inproc.py BASE CHANGE --workload cohom-graded --reps 60 [--fresh]
        [--seed N ...]
    python3 scripts/ab_inproc.py BASE CHANGE --job inputs/mat2.alg:3:2 [--job FILE:n:D ...]
        --reps 20

BASE and CHANGE are source checkouts (directories holding src/pseudo).
Each checkout's package is copied into a temporary directory under its
own name (pseudo_base, pseudo_change), so both are imported side by side.
The operations of an in-process workload of perfbench/workloads.py (the
copy next to this script, only read) are built once for each package,
from the same seed (11 unless --seed says otherwise), and run
alternately: every operation of BASE, then the same one of CHANGE, with
the order of the two flipped on each rep.
One untimed pass per package first checks every answer.  With --fresh
every operation of both packages is built again, untimed, before each
rep, so no rep reuses what an earlier one kept on its algebra or module
objects: the timings are then those of a one-shot run, and a gain that
shows without the flag but not with it comes from what is kept.  Prints the
median milliseconds of each operation for both, their sums and the
ratio CHANGE / BASE, then for each kind of operation (the label up to its
``#``, so verdict-batch's 158 operations fall into 16 kinds) the ratio
CHANGE / BASE of the summed minimum times of its operations, so one
noisy operation cannot swing a kind of three, then, as its last line, in
how many reps the sum of CHANGE's operations took less time than the sum
of BASE's.  --seed given more than once measures each seed in turn and
prints, in place of that table, one line per seed with the two sums of
medians and their ratio, then in how many seeds CHANGE's sum was the
lower: a ratio that holds at one seed's isomorphic copies of the inputs
need not hold at another's.

--job FILE:n:D, in place of --workload, times one cohomology job outside
the workloads: ``cohomology_dimensions`` at degree n and bound D, with
the workloads' margin, on the regular module of the algebra defined in
FILE, read as it is (no seed).  It is built again before every rep, as
with --fresh, so a job that takes a tenth of a second or more (mat2 H^3
at D=2 or 3), bound by elimination, can be timed as a one-shot run pays
for it; the workloads' jobs take a few milliseconds each.  --job given
more than once makes each job one operation of the run, in the order
given, so the jobs are timed interleaved, rep by rep, and the table has
one row per job.  A job has no known answer, so the untimed pass checks
that the two checkouts agree on its dimensions, flag and round count.

Separate interpreters on a shared machine drift between runs; two
packages timed in turn in one process see the same drift.

Answers are not compared beyond that untimed check: the cohomology
reports on the committed inputs and the results of the verdict routes
are pinned in tests/grid_answers.json, which tests/test_grid.py checks.
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
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
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


def job_setup(workloads, jobs: tuple[str, ...]) -> list:
    """One operation per job, FILE:n:D (see the module docstring), in
    order, built through ``pseudo``; none has a check, and each returns
    the report's dimensions, flag and round count."""
    from pseudo import cohomology
    from pseudo.cfmodule import BimoduleStructure
    from pseudo.formats import parse_algebra

    def operation(job: str):
        path, degree, bound = parse_job(job)
        algebra = parse_algebra(path.read_text(encoding="utf-8"))
        module = BimoduleStructure.regular(algebra)
        window = cohomology.TruncationWindow(bound, workloads.MARGIN)

        def run():
            report = cohomology.cohomology_dimensions(algebra, module, degree, window)
            return (report.dim_cocycles, report.dim_coboundaries, report.dim_cohomology,
                    report.stabilized, report.rounds)

        return workloads.Operation(f"{path.stem} H^{degree} D={bound}", run, None)

    return [operation(job) for job in jobs]


def parse_job(job: str) -> tuple[Path, int, int]:
    """FILE:n:D as (path, n, D); ValueError names what is wrong."""
    parts = job.rsplit(":", 2)
    if len(parts) != 3 or not all(part.isdigit() for part in parts[1:]):
        raise ValueError(f"{job!r} is not FILE:n:D with n and D nonnegative integers")
    path = Path(parts[0])
    if not path.is_file():
        raise ValueError(f"{parts[0]}: no such file")
    return path.resolve(), int(parts[1]), int(parts[2])


def build_ops(workloads, package, workload: str | tuple[str, ...], seed: int):
    """The operations of the workload, or of the jobs when ``workload`` is
    a tuple of FILE:n:D, set up with ``package`` standing in for
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
        if workload in IN_PROCESS:
            return workloads.cohomology_setup(workload, seed)
        return job_setup(workloads, workload)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "pseudo"]:
            del sys.modules[name]
        sys.modules.update(saved)


def kind_ratios(labels, base, change) -> dict[str, float]:
    """Operation kind (the label up to its ``#``) -> the ratio of the
    summed times, change over base, of the operations of that kind, in
    first-seen order; ``base`` and ``change`` hold a time per operation."""
    sums: dict[str, list[float]] = {}
    for label, b, c in zip(labels, base, change):
        kind = sums.setdefault(label.split("#")[0].strip(), [0.0, 0.0])
        kind[0] += b
        kind[1] += c
    return {kind: c / b for kind, (b, c) in sums.items()}


def timed(op) -> float:
    started = perf_counter()
    op.run()
    return perf_counter() - started


def timings(workloads, packages, workload: str | tuple[str, ...], seed: int, reps: int,
            fresh: bool):
    """The operations' labels and, per package, per operation, the time of
    each rep, after one untimed pass that checks every answer (an
    operation without a check: that both packages give the same one);
    exits 1 on a wrong answer."""
    sides = [build_ops(workloads, p, workload, seed) for p in packages]
    labels = [op.label for op in sides[0]]
    if labels != [op.label for op in sides[1]]:
        raise SystemExit("the two checkouts built different operations")
    answers = [[op.run() for op in ops] for ops in sides]
    wrong = [
        f"{p.__name__}: {op.label}"
        for p, ops, got in zip(packages, sides, answers)
        for op, answer in zip(ops, got)
        if op.check is not None and not op.check(answer)
    ]
    wrong += [
        f"the two checkouts differ: {op.label}: {base} against {change}"
        for op, base, change in zip(sides[0], *answers)
        if op.check is None and base != change
    ]
    if wrong:
        print("wrong answers:", *wrong, sep="\n  ", file=sys.stderr)
        raise SystemExit(1)
    times: list[list[list[float]]] = [[[] for _ in labels] for _ in sides]
    for rep in range(reps):
        if fresh:
            sides = [build_ops(workloads, p, workload, seed) for p in packages]
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for index in range(len(labels)):
            for side in order:
                times[side][index].append(timed(sides[side][index]))
    return labels, times


def sums_of_medians(times) -> tuple[list[list[float]], float, float]:
    """Each side's median milliseconds per operation, and the two sums."""
    medians = [[statistics.median(t) * 1e3 for t in side] for side in times]
    return medians, sum(medians[0]), sum(medians[1])


def print_table(labels, times, reps: int) -> None:
    medians, total_base, total_change = sums_of_medians(times)
    width = max(len(label) for label in labels)
    print(f"{'operation':<{width}}  {'base ms':>9}  {'change ms':>9}  ratio")
    for label, base, change in zip(labels, *medians):
        print(f"{label:<{width}}  {base:9.3f}  {change:9.3f}  {change / base:5.3f}")
    print(f"{'sum of medians':<{width}}  {total_base:9.3f}  {total_change:9.3f}  "
          f"{total_change / total_base:5.3f}")
    kinds = kind_ratios(labels, *([min(t) for t in side] for side in times))
    width = max(len(kind) for kind in kinds)
    print(f"{'kind':<{width}}  ratio of summed minima")
    for kind, ratio in kinds.items():
        print(f"{kind:<{width}}  {ratio:22.3f}")
    base_reps, change_reps = ([sum(rep) for rep in zip(*side)] for side in times)
    wins = sum(change < base for base, change in zip(base_reps, change_reps))
    print(f"change faster in {wins} of {reps} reps")


def print_seeds(seeds, runs) -> None:
    """One sum-of-medians line per seed, then in how many seeds CHANGE's
    sum was the lower."""
    width = max(len("sum of medians"), *(len(f"seed {seed}") for seed in seeds))
    print(f"{'sum of medians':<{width}}  {'base ms':>9}  {'change ms':>9}  ratio")
    lower = 0
    for seed, times in zip(seeds, runs):
        _, total_base, total_change = sums_of_medians(times)
        lower += total_change < total_base
        print(f"{f'seed {seed}':<{width}}  {total_base:9.3f}  {total_change:9.3f}  "
              f"{total_change / total_base:5.3f}")
    print(f"change summed lower in {lower} of {len(seeds)} seeds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    chosen = parser.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--workload", choices=IN_PROCESS)
    chosen.add_argument("--job", metavar="FILE:n:D", action="append",
                        help="one cohomology job, built again before every rep; repeatable")
    parser.add_argument("--reps", required=True, type=int)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; 11 when left out")
    parser.add_argument("--fresh", action="store_true",
                        help="rebuild every operation, untimed, before each rep")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.job is not None:
        if args.seed:
            parser.error("--seed applies to a workload, not to --job")
        try:
            for job in args.job:
                parse_job(job)
        except ValueError as exc:
            parser.error(str(exc))
    seeds = args.seed or [11]

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        packages = [
            import_copy(args.base.resolve(), "pseudo_base", Path(workdir)),
            import_copy(args.change.resolve(), "pseudo_change", Path(workdir)),
        ]
        fresh = args.fresh or args.job is not None
        chosen = args.workload or tuple(args.job)
        runs = [timings(workloads, packages, chosen, seed, args.reps, fresh) for seed in seeds]

    if len(seeds) == 1:
        ((labels, times),) = runs
        print_table(labels, times, args.reps)
    else:
        print_seeds(seeds, [times for _, times in runs])
    return 0


if __name__ == "__main__":
    sys.exit(main())
