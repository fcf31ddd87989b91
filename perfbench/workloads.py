"""The benchmark's workloads: seeded inputs, timed operations, known answers.

A workload's ``setup(seed)`` returns the list of operations one pass runs.
Each operation's ``run`` is the timed call into the program; its ``check``
compares the result with an answer known in advance (pinned values, or
answers true by construction) and runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 60


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _read(relative: str) -> str:
    return (ROOT / relative).read_text(encoding="utf-8")


# -- cohomology workloads ---------------------------------------------------

# (label, definition file, degree n, degree bound D, expected Z, B, H,
# stabilized, rounds).  Every job takes about a second or less, so a run
# times each job over many passes; jobs of several seconds (mat2 H^2 at
# D=2, H^3 at D=0) allow two or three passes and varied by a quarter
# between runs on a shared machine.
COHOMOLOGY_JOBS = {
    "cohom-graded": (
        ("mat2 H^2 D=1", "inputs/mat2.alg", 2, 1, (28, 28, 0, True, 2)),
        ("mat2 H^2 D=0", "inputs/mat2.alg", 2, 0, (13, 13, 0, True, 2)),
        ("mat2 H^1 D=3", "inputs/mat2.alg", 1, 3, (4, 3, 1, True, 2)),
    ),
    "cohom-ungraded": (
        ("U1 H^3 D=2", "perfbench/algebras/u1.alg", 3, 2, (22, 22, 0, True, 2)),
        ("U2 H^3 D=1", "perfbench/algebras/u2.alg", 3, 1, (8, 8, 0, True, 3)),
        ("U2 H^2 D=4", "perfbench/algebras/u2.alg", 2, 4, (19, 12, 7, True, 2)),
    ),
}
MARGIN = 1
# sign flips keep every coefficient's size, so every seed does arithmetic
# of the same size
SCALES = (Fraction(1), Fraction(-1))


def isomorphic_copy(text: str, rng: random.Random) -> str:
    """Definition text of an isomorphic algebra: generators reordered and
    each rescaled by a sign, products adjusted to match.

    With h_i = s_i g_i, h_i lam h_j = sum_k (s_i s_j / s_k) P_ijk h_k, so
    every cohomology dimension and widening round count is unchanged.
    """
    generators: list[str] = []
    products: list[tuple[str, str, str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("generators:"):
            generators = line.split(":", 1)[1].split()
        elif line.startswith("product"):
            lhs, rhs = line.split("->")
            _, x, y = lhs.split()
            poly, z = rhs.rsplit("*", 1)
            products.append((x, y, poly.strip(), z.strip()))
    order = rng.sample(generators, len(generators))
    scale = {g: rng.choice(SCALES) for g in generators}
    lines = ["kind: algebra", "generators: " + " ".join(order)]
    for x, y, poly, z in products:
        coeff = scale[x] * scale[y] / scale[z]
        lines.append(f"product {x} {y} -> ({coeff})*({poly}) * {z}")
    return "\n".join(lines) + "\n"


def cohomology_setup(name: str, seed: int) -> list[Operation]:
    """One job per (algebra, degree, bound), on a seeded isomorphic copy."""
    from pseudo import cohomology
    from pseudo.cfmodule import BimoduleStructure
    from pseudo.formats import parse_algebra

    rng = random.Random(seed)
    ops = []
    for label, path, degree, bound, expected in COHOMOLOGY_JOBS[name]:
        algebra = parse_algebra(isomorphic_copy(_read(path), rng))
        module = BimoduleStructure.regular(algebra)
        window = cohomology.TruncationWindow(bound, MARGIN)

        def run(algebra=algebra, module=module, degree=degree, window=window):
            return cohomology.cohomology_dimensions(algebra, module, degree, window)

        def check(report, expected=expected):
            got = (
                report.dim_cocycles,
                report.dim_coboundaries,
                report.dim_cohomology,
                report.stabilized,
                report.rounds,
            )
            return got == expected

        ops.append(Operation(label, run, check))
    return ops


# -- verdict batch ----------------------------------------------------------

# (kind, algebra, expected outcome, polynomial degree).  mat2 operations
# cost 10-100 times more than cur1 ones, so they run in fewer rounds; the
# batch is 14 * 10 + 3 * 6 = 158 operations and mat2 holds its slowest 11%.
CUR1_ROUND = (
    ("deform", "cur1", True, 2),
    ("deform", "cur1", False, 2),
    ("abelian", "cur1", True, 2),
    ("abelian", "cur1", False, 2),
    ("extension", "cur1", True, 2),
    ("extension", "cur1", False, 2),
    ("deformation-witness", "cur1", True, 3),
    ("deformation-witness", "cur1", False, 3),
    ("extension-witness", "cur1", True, 3),
    ("extension-witness", "cur1", False, 3),
)
MAT2_ROUND = (
    ("deform", "mat2", True, 1),
    ("deform", "mat2", False, 1),
    ("abelian", "mat2", True, 1),
    ("abelian", "mat2", False, 1),
    ("deformation-witness", "mat2", True, 1),
    ("deformation-witness", "mat2", False, 1),
)
VERDICT_BATCH = CUR1_ROUND * 14 + MAT2_ROUND * 3
COEFFS = (-2, -1, 1, 2)


def _del_poly(rng: random.Random, degree: int):
    from pseudo.polyring import Poly

    return Poly(("del",), {(e,): rng.choice(COEFFS) for e in range(degree + 1)})


def _one_cochain(rng, algebra, module, degree: int):
    """Dense degree-1 cochain, every coordinate of value degree ``degree``."""
    from pseudo.cohomology import Cochain

    values = {
        (i,): tuple(_del_poly(rng, degree) for _ in range(module.rank))
        for i in range(algebra.rank)
    }
    return Cochain(1, algebra, module, values)


def _gamma_combination(terms, zero):
    """sum of c * gamma over (c, gamma) pairs, gamma as {index: CLinearMap}."""
    out = {}
    for coeff, gamma in terms:
        for i, gmap in gamma.items():
            out[i] = out.get(i, zero) + gmap.scaled(coeff)
    return out


def verdict_setup(seed: int) -> list[Operation]:
    """The seeded batch.  Operations call through the module objects, so
    wrappers installed after set-up still see every call."""
    from pseudo import constructions as con
    from pseudo.cfmodule import BimoduleStructure, CLinearMap
    from pseudo.cohomology import Cochain, apply_dn
    from pseudo.formats import parse_algebra, parse_gamma
    from pseudo.polyring import Poly

    rng = random.Random(seed)
    arenas = {}
    for name in ("cur1", "mat2"):
        algebra = parse_algebra(_read(f"inputs/{name}.alg"))
        module = BimoduleStructure.regular(algebra)
        # a fixed non-cocycle: lam1 times the first generator on (g0, g0)
        lam1 = Poly.var(("del", "lam1"), "lam1")
        zero = Poly.zero(("del", "lam1"))
        vec = (lam1,) + (zero,) * (module.rank - 1)
        bent = Cochain(2, algebra, module, {(0, 0): vec})
        if apply_dn(bent).is_zero():
            raise RuntimeError(f"fixed non-cocycle on {name} is a cocycle")
        arenas[name] = (algebra, module, bent)
    cur1, cur1_module, _ = arenas["cur1"]
    gamma_const = parse_gamma(_read("inputs/gamma_const.coc"), cur1, cur1_module, cur1_module)
    map_zero = CLinearMap.zero(cur1_module.generators, cur1_module.generators)

    def scalar():
        return Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1))

    def b_matrix(degree):
        return {(0, 0): _del_poly(rng, degree)}

    ops = []
    for number, (kind, name, expected, degree) in enumerate(VERDICT_BATCH):
        algebra, module, bent = arenas[name]
        label = f"{kind} {name} {'yes' if expected else 'no'} #{number}"
        bend = Cochain.zero(algebra, module, 2) if expected else bent.scaled(scalar())
        if kind in ("deform", "abelian"):
            cochain = apply_dn(_one_cochain(rng, algebra, module, degree)) + bend
            if kind == "deform":

                def run(algebra=algebra, cochain=cochain):
                    return con.deform(con.DeformationDatum(algebra, cochain))[1]

            else:

                def run(algebra=algebra, module=module, cochain=cochain):
                    datum = con.AbelianExtensionDatum(algebra, module, cochain)
                    return con.build_abelian_extension(datum)[1]

            def check(verdict, expected=expected):
                return verdict is expected

        elif kind == "extension":
            gamma = _gamma_combination(
                [(1, con.gamma_coboundary(module, module, b_matrix(degree)))]
                + ([] if expected else [(scalar(), gamma_const)]),
                map_zero,
            )

            def run(algebra=algebra, module=module, gamma=gamma):
                datum = con.ExtensionDatum(algebra, module, module, gamma)
                return con.build_extension(datum)[1]

            def check(verdict, expected=expected):
                return verdict is expected

        elif kind == "deformation-witness":
            first = apply_dn(_one_cochain(rng, algebra, module, degree)) + bent.scaled(scalar())
            second = first - apply_dn(_one_cochain(rng, algebra, module, degree)) - bend

            def run(algebra=algebra, first=first, second=second, degree=degree):
                one = con.DeformationDatum(algebra, first)
                two = con.DeformationDatum(algebra, second)
                return one, two, con.search_deformation_witness(one, two, degree)

            def check(result, expected=expected):
                one, two, witness = result
                if witness is None:
                    return not expected
                return expected and con.equivalent_deformations(one, two, witness)

        else:  # extension-witness
            first = con.gamma_coboundary(module, module, b_matrix(degree))
            second = _gamma_combination(
                [(1, first), (-1, con.gamma_coboundary(module, module, b_matrix(degree)))]
                + ([] if expected else [(scalar(), gamma_const)]),
                map_zero,
            )

            def run(algebra=algebra, module=module, first=first, second=second, degree=degree):
                one = con.ExtensionDatum(algebra, module, module, first)
                two = con.ExtensionDatum(algebra, module, module, second)
                return one, two, con.search_extension_witness(one, two, degree)

            def check(result, expected=expected):
                one, two, witness = result
                if witness is None:
                    return not expected
                return expected and con.equivalent_extensions(one, two, witness)

        ops.append(Operation(label, run, check))
    rng.shuffle(ops)
    return ops


# -- CLI one-shots ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one child interpreter from the checkout root; (exit, stdout sha256, stderr)."""
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return done.returncode, hashlib.sha256(done.stdout).hexdigest(), done.stderr.decode()


def cli_setup(seed: int, runner: Callable[[list[str]], tuple]) -> list[Operation]:
    """One operation per pinned command of cli_expected.json, in seeded order.

    ``runner`` maps a ``pseudo`` argument list to (exit code, stdout sha256).
    """
    pinned = json.loads((BENCH_DIR / "cli_expected.json").read_text(encoding="utf-8"))
    commands = pinned["commands"]
    random.Random(seed).shuffle(commands)
    ops = []
    for command in commands:
        expected = (command["exit"], command["sha256"])

        def run(argv=command["argv"]):
            return runner(argv)

        def check(result, expected=expected):
            return tuple(result) == expected

        ops.append(Operation(" ".join(command["argv"]), run, check))
    return ops
