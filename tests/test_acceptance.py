"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line with its measured
wall-clock time and asserts the time limit.  Randomized criteria use a
fixed seed so reruns are identical.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import jsonschema

from conftest import (
    INPUTS,
    center_dimension,
    check_h0_representative,
    derivation_space_dimension,
    fd_algebra,
    free_rank_one,
    inner_derivation_space_dimension,
    matrix_algebra,
    src_env,
    unit_cochain,
)
from pseudo.cfmodule import BimoduleStructure, CLinearMap
from pseudo.cli import REPORT_SCHEMA
from pseudo.cohomology import (
    Cochain,
    CochainIndex,
    TruncationWindow,
    apply_dn,
    cochain_variables,
    cohomology_dimensions,
)
from pseudo.conformal import (
    ASSOC_VARS,
    PRODUCT_VARS,
    check_associativity,
)
from pseudo.constructions import (
    AbelianExtensionDatum,
    DeformationDatum,
    ExtensionDatum,
    build_abelian_extension,
    build_extension,
    deform,
    equivalent_deformations,
    equivalent_extensions,
    extension_residuals,
    gamma_coboundary,
    search_deformation_witness,
    search_extension_witness,
)
from pseudo.polyring import Poly, iter_monomials, parse_poly

D1 = cochain_variables(1)
D2 = cochain_variables(2)


def timed(limit: float):
    start = time.monotonic()

    def finish(label: str):
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"{label} took {elapsed:.2f}s, limit {limit}s"
        print(f"PASS {label} ({elapsed:.2f}s, limit {limit:.0f}s)")

    return finish


def random_poly(rng: Random, variables, max_degree=2, terms=3) -> Poly:
    monomials = list(iter_monomials(variables, max_degree))
    total = Poly.zero(variables)
    for _ in range(terms):
        total = total + Poly.monomial(
            variables, rng.choice(monomials), Fraction(rng.randint(-3, 3))
        )
    return total


def random_two_cochain(rng: Random, algebra, module, tuples=2) -> Cochain:
    values = {}
    n = algebra.rank
    for _ in range(tuples):
        key = (rng.randrange(n), rng.randrange(n))
        vec = [Poly.zero(D2) for _ in range(module.rank)]
        vec[rng.randrange(module.rank)] = random_poly(rng, D2)
        values[key] = tuple(vec)
    return Cochain(2, algebra, module, values)


def random_one_cochain(rng: Random, algebra, module) -> Cochain:
    values = {}
    for i in range(algebra.rank):
        vec = [Poly.zero(D1) for _ in range(module.rank)]
        vec[rng.randrange(module.rank)] = random_poly(rng, D1)
        values[(i,)] = tuple(vec)
    return Cochain(1, algebra, module, values)


def test_criterion_1_differentials_compose_to_zero(cur1, cur1_regular, mat2, mat2_regular):
    finish = timed(60.0)
    for algebra, module in ((cur1, cur1_regular), (mat2, mat2_regular)):
        classes, cochains = (CochainIndex(algebra, module, n, 4) for n in (0, 1))
        for i in range(classes.dimension):
            assert apply_dn(apply_dn(unit_cochain(classes, i))).is_zero()
        for i in range(cochains.dimension):
            assert apply_dn(apply_dn(unit_cochain(cochains, i))).is_zero()
    finish("criterion 1: d after d vanishes on every basis cochain at degree bound 4")


def test_criterion_2_associativity_verdicts(mat2):
    finish = timed(1.0)
    assert check_associativity(mat2) is None
    del_mutant = free_rank_one(Poly.var(PRODUCT_VARS, "del"))
    cex = check_associativity(del_mutant)
    assert cex is not None and cex.triple == (0, 0, 0)
    assert cex.lhs[0] == parse_poly("-mu*del - lam*del", ASSOC_VARS)
    assert cex.rhs[0] == parse_poly("lam*del + del^2", ASSOC_VARS)
    lam_mutant = free_rank_one(Poly.var(PRODUCT_VARS, "lam"))
    cex = check_associativity(lam_mutant)
    assert cex is not None
    assert cex.lhs[0] == parse_poly("mu*lam + lam^2", ASSOC_VARS)
    assert cex.rhs[0] == parse_poly("mu*lam", ASSOC_VARS)
    assert cex.residual[0] == parse_poly("lam^2", ASSOC_VARS)
    finish("criterion 2: associativity verdicts and exact mutant residuals")


def test_criterion_3_derivations_of_rank_one(cur1, cur1_regular):
    finish = timed(5.0)
    report = cohomology_dimensions(cur1, cur1_regular, 1, TruncationWindow(3, 1))
    der = report.cocycles
    assert der.dim == 1
    index = CochainIndex(cur1, cur1_regular, 1, 3)
    generator = index.reconstruct(der.vectors[0])
    assert generator.values[(0,)][0] == Poly.var(D1, "del")
    assert report.coboundaries.dim == 0
    assert report.dim_cohomology == 1 and report.stabilized
    finish("criterion 3: derivation basis {e -> del e}, no inner part, H1 slice dim 1")


def test_criterion_4_h0_with_direct_representative(cur1, cur1_regular):
    finish = timed(1.0)
    report = cohomology_dimensions(cur1, cur1_regular, 0, TruncationWindow(2, 1))
    assert report.dim_cohomology == 1
    kernel = report.cocycles
    assert kernel.dim == 1
    coords = list(kernel.vectors[0])
    residuals = check_h0_representative(cur1, cur1_regular, coords)
    assert residuals and all(p.is_zero for p in residuals)
    finish("criterion 4: H0 slice dim 1 with directly re-verified representative")


def test_criterion_5_classical_bar_complex_oracles():
    finish = timed(10.0)
    mat2 = matrix_algebra(2)
    dual = fd_algebra("dual")

    def hh(algebra, degree):
        regular = BimoduleStructure.regular(algebra)
        return cohomology_dimensions(algebra, regular, degree, TruncationWindow(0)).dim_cohomology

    assert hh(mat2, 0) == 1
    assert hh(mat2, 1) == 0
    assert hh(dual, 1) == 1
    # independent re-derivation from the defining equations
    assert center_dimension(mat2) == 1
    assert derivation_space_dimension(mat2) - inner_derivation_space_dimension(mat2) == 0
    assert derivation_space_dimension(dual) - inner_derivation_space_dimension(dual) == 1
    assert center_dimension(dual) == 2
    finish("criterion 5: classical dimensions match brute-force re-derivations")


def test_criterion_6_extension_verdicts_and_splittings(cur1, cur1_regular):
    finish = timed(60.0)
    rng = Random(20260817)
    reg = cur1_regular
    passed = failed = 0
    for case in range(50):
        if case % 2:
            entry = random_poly(rng, PRODUCT_VARS)
            gamma = (
                {} if entry.is_zero
                else {0: CLinearMap(reg.generators, reg.generators, {(0, 0): entry})}
            )
        else:
            b_matrix = {(0, 0): random_poly(rng, ("del",))}
            gamma = gamma_coboundary(reg, reg, b_matrix)
        datum = ExtensionDatum(cur1, reg, reg, gamma)
        _, verdict, _ = build_extension(datum)
        assert verdict == (not extension_residuals(datum))
        passed += verdict
        failed += not verdict
    assert passed and failed
    zero_datum = ExtensionDatum(cur1, reg, reg, {})
    for _ in range(20):
        b_matrix = {(0, 0): random_poly(rng, ("del",))}
        gamma = gamma_coboundary(reg, reg, b_matrix)
        datum = ExtensionDatum(cur1, reg, reg, gamma)
        _, verdict, _ = build_extension(datum)
        assert verdict
        assert equivalent_extensions(datum, zero_datum, b_matrix)
        witness = search_extension_witness(datum, zero_datum, 3)
        assert witness is not None
        assert equivalent_extensions(datum, zero_datum, witness)
    finish("criterion 6: 50 random gluings match the cocycle test, 20 splittings witnessed")


def test_criterion_7_deformation_verdicts_and_trivializations(cur1, cur1_regular, mat2, mat2_regular):
    finish = timed(120.0)
    rng = Random(727)
    arenas = ((cur1, cur1_regular), (mat2, mat2_regular))
    passed = failed = 0
    for case in range(50):
        algebra, module = arenas[case % 2]
        if case % 4 < 2:
            cocycle = random_two_cochain(rng, algebra, module)
        else:
            cocycle = apply_dn(random_one_cochain(rng, algebra, module))
        datum = DeformationDatum(algebra, cocycle)
        residuals, verdict = deform(datum)
        assert verdict == apply_dn(cocycle).is_zero()
        assert verdict == (not residuals)
        passed += verdict
        failed += not verdict
    assert passed and failed
    for case in range(20):
        algebra, module = arenas[case % 2]
        g = random_one_cochain(rng, algebra, module)
        flat = DeformationDatum(algebra, apply_dn(g))
        trivial = DeformationDatum(algebra, Cochain.zero(algebra, module, 2))
        _, verdict = deform(flat)
        assert verdict
        assert equivalent_deformations(flat, trivial, g)
        witness = search_deformation_witness(flat, trivial, 3)
        assert witness is not None
        assert equivalent_deformations(flat, trivial, witness)
    const = Cochain(2, cur1, cur1_regular, {(0, 0): (Poly.const(D2, 1),)})
    _, verdict = deform(DeformationDatum(cur1, const))
    assert verdict
    bent = Cochain(2, cur1, cur1_regular, {(0, 0): (Poly.var(D2, "lam1"),)})
    residuals, verdict = deform(DeformationDatum(cur1, bent))
    assert not verdict
    assert residuals[(0, 0, 0, 0)] == Poly.var(ASSOC_VARS, "lam")
    finish("criterion 7: 50 random deformations match the cocycle test, 20 witnesses, named examples")


def test_criterion_8_abelian_extension_verdicts(cur1, cur1_regular, mat2, mat2_regular):
    finish = timed(60.0)
    rng = Random(40961)
    arenas = ((cur1, cur1_regular), (mat2, mat2_regular))
    passed = failed = 0
    for case in range(30):
        algebra, module = arenas[case % 2]
        if case % 4 < 2:
            cocycle = random_two_cochain(rng, algebra, module)
        else:
            cocycle = apply_dn(random_one_cochain(rng, algebra, module))
        datum = AbelianExtensionDatum(algebra, module, cocycle)
        extension, verdict = build_abelian_extension(datum)
        assert verdict == apply_dn(cocycle).is_zero()
        assert verdict == (check_associativity(extension) is None)
        passed += verdict
        failed += not verdict
    assert passed and failed
    finish("criterion 8: 30 random square-zero gluings match the cocycle test")


def test_criterion_9_cli_determinism_and_schema():
    finish = timed(5.0)
    args = [
        sys.executable, "-m", "pseudo",
        "cohomology", str(INPUTS / "cur1.alg"), "--n", "1", "--deg", "2", "--json",
    ]
    env = src_env()
    first = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    second = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["results"]["dim_cohomology_slice"] == 1
    finish("criterion 9: byte-identical CLI reruns with schema-valid JSON")
