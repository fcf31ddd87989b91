"""Every coefficient is an int when integral, else a reduced Fraction with
denominator above 1, and never a float; inexact input is refused."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    fraction_add,
    fraction_kernel,
    fraction_mul,
    fraction_pow,
    fraction_rref,
    fraction_solve,
    fraction_substitute,
    fraction_terms,
    free_rank_one,
)
from pseudo.cfmodule import BimoduleStructure, check_module_axioms
from pseudo.cohomology import Cochain, CochainIndex, _stencil, apply_dn, cochain_variables
from pseudo.conformal import ConformalAlgebra, check_associativity
from pseudo.constructions import DeformationDatum, deformation_residuals
from pseudo.exactla import Echelon, _rows, kernel, solve_columns
from pseudo.polyring import Poly, VariableMismatchError, _RingMap, parse_poly, poly_to_str

PL = ("del", "lam")
ALL3 = ("del", "lam", "mu")


def assert_normal(values):
    for value in values:
        assert type(value) is int or (type(value) is Fraction and value.denominator > 1), value


# integers and half-integers, already in normal form, as matrix entries
# arrive from the program
normal = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=3).map(lambda n: Fraction(2 * n + 1, 2)),
)
# what a caller may hand in: integers also as Fraction(n, 1)
coefficients = st.one_of(normal, st.integers(min_value=-4, max_value=4).map(Fraction))


def exact_polys(variables, max_degree=2, max_terms=4):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=max_degree) for _ in variables])
    return st.lists(st.tuples(exponents, coefficients), max_size=max_terms).map(
        lambda pairs: Poly(variables, pairs)
    )


HALVES = Poly(PL, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
MU = Poly.var(ALL3, "mu")


# degree <= 1 over (del, lam): four monomials, so terms often meet; the
# example makes half-integers add up to an integer in a sum, a scalar
# multiple and a substitution's accumulator
@given(exact_polys(PL, max_degree=1), exact_polys(PL, max_degree=1), coefficients,
       st.integers(min_value=0, max_value=3), exact_polys(ALL3), exact_polys(ALL3))
@example(p=HALVES, q=HALVES, c=2, n=2, image_del=MU, image_lam=MU)
def test_poly_arithmetic_keeps_the_invariant(p, q, c, n, image_del, image_lam):
    fp, fq = fraction_terms(p), fraction_terms(q)
    minus_q = {e: -v for e, v in fq.items()}
    bindings = {"del": image_del, "lam": image_lam}
    at_point = {"del": Poly.const(PL, 1), "lam": Poly.const(PL, c)}
    cases = [
        (p, fp),
        (p + q, fraction_add(fp, fq)),
        (p - q, fraction_add(fp, minus_q)),
        (p * q, fraction_mul(fp, fq)),
        (p * c, fraction_mul(fp, {(0, 0): Fraction(c)})),
        (p ** n, fraction_pow(fp, n, len(PL))),
        (p.substitute(bindings), fraction_substitute(p, bindings, ALL3)),
        (p.substitute(at_point), fraction_substitute(p, at_point, PL)),
    ]
    for got, want in cases:
        assert_normal(got.terms.values())
        assert fraction_terms(got) == want


# the bindings of one ring map: del, lam or both bound, the rest left to
# map to themselves in (del, lam, mu)
bound_names = st.sampled_from([("del",), ("lam",), ("del", "lam")])


@given(bound_names, st.lists(exact_polys(PL), max_size=6), exact_polys(ALL3), exact_polys(ALL3))
def test_one_ring_map_moves_many_polys_like_the_reference(names, ps, image_del, image_lam):
    images = {"del": image_del, "lam": image_lam}
    bindings = {name: images[name] for name in names}
    ring = _RingMap(PL, bindings)
    # the second pass reads every monomial's image from the map's memo
    for p in ps + ps:
        got = ring(p)
        assert got.variables == ALL3
        assert_normal(got.terms.values())
        assert fraction_terms(got) == fraction_substitute(p, bindings, ALL3)
        assert got == p.substitute(bindings)


others = st.sampled_from([(), ("del",), ("lam",), ALL3, ("del", "lam1"), ("del", "lam", "lam1")])


@given(others.flatmap(exact_polys), exact_polys(ALL3))
def test_ring_map_refuses_a_poly_over_other_variables(p, image):
    ring = _RingMap(PL, {"del": image})
    with pytest.raises(VariableMismatchError):
        ring(p)


@given(exact_polys(ALL3, max_degree=3, max_terms=6))
def test_poly_to_str_ignores_the_coefficient_type(p):
    twin = Poly._raw(p.variables, fraction_terms(p))
    assert poly_to_str(twin) == poly_to_str(p)
    assert repr(twin) == repr(p)


def dense_rows(draw, nrows, ncols, entry=st.one_of(st.just(0), normal)):
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@given(st.data())
def test_elimination_keeps_the_invariant(data):
    nrows = data.draw(st.integers(min_value=1, max_value=5))
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    entries = dense_rows(data.draw, nrows, ncols)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in entries]
    basis, pivots = fraction_rref(entries, ncols)

    echelon = Echelon()
    for row in sparse:
        echelon.insert(dict(row))
        for pivot_row in echelon.values():
            assert_normal(pivot_row.values())
    assert sorted(echelon) == pivots
    assert [[echelon[p].get(j, 0) for j in range(ncols)] for p in pivots] == basis

    columns = [{i: row[j] for i, row in enumerate(sparse) if j in row} for j in range(ncols)]
    null_space = kernel(columns)
    for row in null_space.rows.values():
        assert_normal(row.values())
    assert [list(vec) for vec in null_space.vectors] == fraction_kernel(entries, ncols)

    rhs = [b for b, in dense_rows(data.draw, nrows, 1, coefficients)]
    solution = solve_columns(columns, dict(enumerate(rhs)))
    assert solution == fraction_solve(entries, rhs, ncols)
    if solution is not None:
        assert_normal(solution)


# half-integer structure coefficients: the slots' contributions to one
# term of a basis cochain's image often add up to an integer
HALVES = ConformalAlgebra(("a", "b"), {
    (0, 0): [(0, parse_poly("1/2", PL)), (1, parse_poly("1/2*lam", PL))],
    (0, 1): [(1, parse_poly("3/2", PL))],
    (1, 0): [(1, parse_poly("1/2 + 1/2*del", PL))],
})


@given(st.lists(st.one_of(st.just(0), normal), min_size=32, max_size=32))
def test_differential_keeps_the_invariant(mat2, mat2_regular, coords):
    # half-integer coordinates: the slots' contributions to one target
    # term often add up to an integer
    index = CochainIndex(mat2, mat2_regular, 1, 1)
    for vec in apply_dn(index.reconstruct(coords)).values.values():
        for poly in vec:
            assert_normal(poly.terms.values())


def test_stencil_columns_keep_the_invariant():
    # read straight off the stencil: the rows exactla builds from the
    # columns would normalize a stray entry and hide it
    module = BimoduleStructure.regular(HALVES)
    for n in (0, 1, 2):
        stencil = _stencil(module, n)
        limit = stencil.limit(2)
        index = CochainIndex(HALVES, module, n, 1)
        for tup, k in index.sources:
            for column in stencil.columns(tup, k, index.monomials, limit):
                assert_normal(column.values())


# half-integer coefficients against 2s: the law kernel's products and
# sums are often integral before its reader normalizes them
DOUBLES = ConformalAlgebra(("a", "b"), {
    (0, 0): [(0, parse_poly("2", PL)), (1, parse_poly("1/2*lam", PL))],
    (0, 1): [(1, parse_poly("1/2 + 1/2*del", PL))],
    (1, 0): [(0, parse_poly("2*del", PL)), (1, parse_poly("3/2", PL))],
})


def test_law_kernel_keeps_the_invariant():
    scaled = free_rank_one(Poly.const(PL, 2))
    twist = Cochain(2, scaled, BimoduleStructure.regular(scaled), {
        (0, 0): (parse_poly("1/2*lam1 + 3/2*del^2", cochain_variables(2)),),
    })
    right_only = BimoduleStructure(DOUBLES, DOUBLES.generators, None, dict(DOUBLES.structure))
    counterexamples = [
        check_associativity(DOUBLES),
        check_module_axioms(BimoduleStructure.regular(DOUBLES)),
        check_module_axioms(right_only),
    ]
    assert [cex.law for cex in counterexamples] == ["associativity", "left", "right"]
    polys = [p for cex in counterexamples for p in cex.lhs + cex.rhs + cex.residual]
    polys += deformation_residuals(DeformationDatum(scaled, twist)).values()
    values = [c for poly in polys for c in poly.terms.values()]
    assert_normal(values)
    assert any(type(c) is int for c in values)


def _reconstruct(value):
    algebra = free_rank_one()
    index = CochainIndex(algebra, BimoduleStructure.regular(algebra), 1, 0)
    return index.reconstruct([value] * index.dimension)


ENTRY_POINTS = {
    "Poly": lambda v: Poly(PL, {(1, 0): v}),
    "Poly.const": lambda v: Poly.const(("del",), v),
    "Poly.monomial": lambda v: Poly.monomial(PL, (0, 2), v),
    "Poly * scalar": lambda v: Poly.var(PL, "lam") * v,
    "Poly + scalar": lambda v: Poly.var(PL, "lam") + v,
    "solve rhs": lambda v: solve_columns([{"r": 2}], {"r": v}),
    "solve_columns column entry": lambda v: solve_columns([{"r": 1}, {"r": v}], {"r": 1}),
    "kernel column entry": lambda v: kernel([{"r": 1}, {"r": v}]),
    # label s holds column 1 alone, so the peel forces it off the label
    # counts, without a row: the entry is refused on intake all the same
    "kernel peeled column entry": lambda v: kernel([{"r": 1}, {"s": v}]),
    "CochainIndex.reconstruct": _reconstruct,
}


@pytest.mark.parametrize("value", [0.1, 0.5, 0.0, Decimal("0.3"), "1"], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inexact_coefficients_are_refused(entry, value):
    with pytest.raises(TypeError, match="coefficient must be an int or a Fraction"):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_exact_coefficients_are_accepted(entry):
    for value in (3, Fraction(6, 2), Fraction(-1, 2)):
        ENTRY_POINTS[entry](value)


def test_explicit_zero_entries_are_dropped():
    # an explicit 0 kept in a row would be taken for its pivot, and one
    # kept in the target for an inconsistent row
    for zero, entry in ((0, 1), (Fraction(0), Fraction(4, 2))):
        columns = [{"r": zero, "s": zero}, {"r": entry}]
        rows = _rows(columns)
        assert rows == {"r": {1: entry}}
        assert_normal(rows["r"].values())
        assert kernel(columns).vectors == ((1, 0),)
        assert solve_columns(columns, {"r": 3, "s": zero}) == [0, Fraction(3, entry)]
