"""Compare two checkouts of pseudo in one process, operation by operation.

    python3 scripts/ab_inproc.py BASE CHANGE --workload cohom-graded --reps 60 [--fresh]
        [--seed N ...]
    python3 scripts/ab_inproc.py BASE CHANGE --verdicts

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

Separate interpreters on a shared machine drift between runs; two
packages timed in turn in one process see the same drift.

The cohomology answers on the committed inputs are not compared here:
tests/grid_answers.json pins them, and tests/test_grid.py checks one
checkout against that file.

With --verdicts nothing is timed: the results of the verdict routes and
witness searches of the two packages are compared.  They are the return
value of each operation of the verdict-batch workload for seeds 1-5 (the
verdict, or the witness a search returns, polynomials as text), and for
each search that finds a witness the verdict of
``equivalent_deformations`` or ``equivalent_extensions`` on that witness
and on the witness doubled; then the full results of ``build_extension``, ``deform`` and
``build_abelian_extension`` on every inputs/*.coc over cur1, read against
its regular module and every inputs/*.mod: residual polynomials, the
assembled tables and the verdict, or the type and message of what parsing
or building raised.  Then come the full results of ``build_extension`` on
seeded gluing data between two different modules over cur1, for every
ordered pair of its regular module, every inputs/*.mod and a rank-two
module whose action differs from theirs, and every seed: the coboundary
of a seeded B, plus a seeded family on odd seeds.  Last come the full
results of ``deform`` and ``build_abelian_extension`` on a seeded
2-cochain over mat2's regular module for every seed, so an assembled
A (+) M of rank 8 is compared table by table: the differential of a
seeded 1-cochain, plus seeded values on odd seeds.  Prints each result
that differs, then the number of results and of differences, and exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
from itertools import permutations
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("cohom-graded", "cohom-ungraded", "verdict-batch")
INPUTS = ROOT / "inputs"
# the verdict-batch seeds --verdicts compares, also the seeds of its gluing data
VERDICT_SEEDS = range(1, 6)
# a rank-two module over cur1, glued to and from the committed ones by --verdicts
SPLIT_MODULE = """kind: module
generators: u v
actions: left
left e u -> 1 * u
left e v -> (lam + del) * u
"""


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


def rendered(value):
    """A result as plain data that two packages' copies compare by: a
    polynomial as its variables and text, a cochain, algebra or module
    by what defines it, containers item by item."""
    kind = type(value).__name__
    if kind == "Poly":
        return value.variables, str(value)
    if kind == "Cochain":
        return kind, value.degree, rendered(value.values)
    if kind == "ConformalAlgebra":
        return kind, value.generators, rendered(value.structure)
    if kind == "BimoduleStructure":
        return kind, value.generators, rendered(value.left), rendered(value.right)
    if isinstance(value, dict):
        return tuple(sorted((key, rendered(item)) for key, item in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(rendered(item) for item in value)
    return value


def answer(compute):
    """``compute()`` rendered, or the type and message of what it raised."""
    try:
        return rendered(compute())
    except Exception as exc:  # an exception is part of the answer
        return type(exc).__name__, str(exc)


def verdict_answers(workloads, package) -> dict:
    """Result label -> what the verdict routes of ``package`` give: each
    verdict-batch operation's result for every seed of VERDICT_SEEDS (a
    witness search's result is its witness, and a found witness adds the
    equivalence verdicts on it and on it doubled), then every
    construction on every committed cocycle file over cur1."""
    answers = {}
    formats, con = package.formats, package.constructions
    equivalent = {
        "deformation-witness": con.equivalent_deformations,
        "extension-witness": con.equivalent_extensions,
    }
    for seed in VERDICT_SEEDS:
        for op in build_ops(workloads, package, "verdict-batch", seed):
            label, kind = f"seed {seed}: {op.label}", op.label.split()[0]
            if kind not in equivalent:
                answers[label] = answer(op.run)
                continue
            try:
                first, second, witness = op.run()
            except Exception as exc:  # an exception is part of the answer
                answers[label] = type(exc).__name__, str(exc)
                continue
            answers[label] = rendered(witness)
            if witness is not None:
                for name, candidate in (("witness", witness), ("doubled", doubled(witness))):
                    answers[f"{label}: equivalent on the {name}"] = answer(
                        lambda: equivalent[kind](first, second, candidate)
                    )
    read = lambda path: path.read_text(encoding="utf-8")
    cur1 = formats.parse_algebra(read(INPUTS / "cur1.alg"))
    modules = [("regular", package.cfmodule.BimoduleStructure.regular(cur1))]
    modules += [(p.name, formats.parse_module(read(p), cur1))
                for p in sorted(INPUTS.glob("*.mod"))]
    for path in sorted(INPUTS.glob("*.coc")):
        text = read(path)
        for name, module in modules:
            label = f"{path.name} over {name}"

            def gamma(module=module):
                return formats.parse_gamma(text, cur1, module, module)

            def cochain(module=module):
                return formats.parse_cochain(text, cur1, module, 2)

            answers[f"{label}: build_extension"] = answer(
                lambda: con.build_extension(con.ExtensionDatum(cur1, module, module, gamma()))
            )
            answers[f"{label}: deform"] = answer(
                lambda: con.deform(con.DeformationDatum(cur1, cochain()))
            )
            answers[f"{label}: build_abelian_extension"] = answer(
                lambda: con.build_abelian_extension(
                    con.AbelianExtensionDatum(cur1, module, cochain())
                )
            )
    modules.append(("split", formats.parse_module(SPLIT_MODULE, cur1)))
    for (sub_name, sub), (quotient_name, quotient) in permutations(modules, 2):
        for seed in VERDICT_SEEDS:
            label = f"seed {seed}: gluing {quotient_name} to {sub_name}: build_extension"
            answers[label] = answer(lambda: con.build_extension(
                con.ExtensionDatum(cur1, sub, quotient, gluing_data(package, sub, quotient, seed))
            ))
    mat2 = formats.parse_algebra(read(INPUTS / "mat2.alg"))
    regular = package.cfmodule.BimoduleStructure.regular(mat2)
    for seed in VERDICT_SEEDS:
        label = f"seed {seed}: twist over mat2"
        twist = twist_cochain(package, regular, seed)
        answers[f"{label}: deform"] = answer(
            lambda: con.deform(con.DeformationDatum(mat2, twist))
        )
        answers[f"{label}: build_abelian_extension"] = answer(
            lambda: con.build_abelian_extension(con.AbelianExtensionDatum(mat2, regular, twist))
        )
    return answers


def doubled(witness):
    """Twice a witness: a degree-1 cochain, or a map B as {(t, k): Poly}."""
    if isinstance(witness, dict):
        return {key: poly + poly for key, poly in witness.items()}
    return witness.scaled(2)


def seeded_poly(package, rng: Random, variables: tuple[str, ...], degree: int):
    """One to three seeded monomials over ``variables``, each of degree <=
    ``degree``, summed."""
    Poly = package.polyring.Poly
    total = Poly.zero(variables)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(variables))] += 1
        total = total + Poly.monomial(variables, exps, rng.choice((-2, -1, 1, 2)))
    return total


def gluing_data(package, sub, quotient, seed: int) -> dict:
    """Seeded gamma from ``quotient`` to ``sub``: the coboundary of a B of
    degree <= 1, plus on odd seeds a family of degree <= 2 on the first
    generator."""
    con = package.constructions
    rng = Random(seed)
    b_matrix = {(t, k): seeded_poly(package, rng, ("del",), 1)
                for t in range(quotient.rank) for k in range(sub.rank)}
    gamma = con.gamma_coboundary(sub, quotient, b_matrix)
    if seed % 2:
        variables = package.conformal.PRODUCT_VARS
        bend = package.cfmodule.CLinearMap(quotient.generators, sub.generators, {
            (t, s): seeded_poly(package, rng, variables, 2)
            for t in range(quotient.rank) for s in range(sub.rank)
        })
        gamma[0] = gamma[0] + bend if 0 in gamma else bend
    return gamma


def twist_cochain(package, module, seed: int):
    """Seeded 2-cochain over ``module``: the differential of a 1-cochain
    with one value of degree <= 1 on each generator, so a cocycle, plus on
    odd seeds a value of degree <= 2 on each of two seeded pairs."""
    Cochain, apply_dn = package.cohomology.Cochain, package.cohomology.apply_dn
    algebra, rank = module.algebra, module.rank
    rng = Random(seed)
    one, two = package.cohomology.cochain_variables(1), package.cohomology.cochain_variables(2)

    def vector(variables, degree):
        vec = [package.polyring.Poly.zero(variables)] * rank
        vec[rng.randrange(rank)] = seeded_poly(package, rng, variables, degree)
        return tuple(vec)

    phi = apply_dn(Cochain(1, algebra, module, {
        (i,): vector(one, 1) for i in range(algebra.rank)
    }))
    if seed % 2:
        pairs = [(rng.randrange(algebra.rank), rng.randrange(algebra.rank)) for _ in range(2)]
        phi = phi + Cochain(2, algebra, module, {pair: vector(two, 2) for pair in pairs})
    return phi


def differences(base: dict, change: dict) -> list[str]:
    """The labels of the results that differ, or that only one side has."""
    return [label for label in {**base, **change} if base.get(label) != change.get(label)]


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


def timings(workloads, packages, workload: str, seed: int, reps: int, fresh: bool):
    """The operations' labels and, per package, per operation, the time of
    each rep, after one untimed pass that checks every answer; exits 1
    on a wrong answer."""
    sides = [build_ops(workloads, p, workload, seed) for p in packages]
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
    parser.add_argument("--workload", choices=IN_PROCESS)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; 11 when left out")
    parser.add_argument("--fresh", action="store_true",
                        help="rebuild every operation, untimed, before each rep")
    parser.add_argument("--verdicts", action="store_true",
                        help="compare every verdict, witness and construction result, untimed")
    args = parser.parse_args(argv)
    if not args.verdicts:
        if args.workload is None or args.reps is None:
            parser.error("--workload and --reps are required without --verdicts")
        if args.reps < 1:
            parser.error("--reps must be at least 1")
    seeds = args.seed or [11]

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        packages = [
            import_copy(args.base.resolve(), "pseudo_base", Path(workdir)),
            import_copy(args.change.resolve(), "pseudo_change", Path(workdir)),
        ]
        if args.verdicts:
            base, change = (verdict_answers(workloads, p) for p in packages)
            differing = differences(base, change)
            for label in differing:
                print(f"differs: {label}")
            print(f"verdicts: {len(base)} results, {len(differing)} differences")
            return 1 if differing else 0
        runs = [timings(workloads, packages, args.workload, seed, args.reps, args.fresh)
                for seed in seeds]

    if len(seeds) == 1:
        ((labels, times),) = runs
        print_table(labels, times, args.reps)
    else:
        print_seeds(seeds, [times for _, times in runs])
    return 0


if __name__ == "__main__":
    sys.exit(main())
