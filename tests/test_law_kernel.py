"""The law kernel the three checkers share against its term-by-term
reference in conftest: verdict, first failing triple and both sides of
`check_associativity` and `check_module_axioms`, and every residual of
`deformation_residuals`, on random tables that need not satisfy the law.
Coefficients are compared with their type, so an integral value left as
a Fraction is a difference."""

from fractions import Fraction
from itertools import product

from hypothesis import given, strategies as st

from conftest import (
    INPUTS,
    free_rank_one,
    reference_check_associativity,
    reference_check_module_axioms,
    reference_deformation_residuals,
)
from pseudo.cfmodule import BimoduleStructure, check_module_axioms
from pseudo.cohomology import Cochain, cochain_variables
from pseudo.conformal import PRODUCT_VARS, ConformalAlgebra, check_associativity
from pseudo.constructions import DeformationDatum, deformation_residuals
from pseudo.formats import parse_algebra
from pseudo.polyring import Poly, iter_monomials

D2 = cochain_variables(2)

# integers and half-integers: products of two half-integers are often
# integral, sums of them too
coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=2).map(lambda n: Fraction(2 * n + 1, 2)),
)


def low_polys(variables):
    """Polys of total degree <= 2 with at most three terms."""
    monomials = st.sampled_from(list(iter_monomials(variables, 2)))
    return st.lists(st.tuples(monomials, coefficients), max_size=3).map(
        lambda pairs: Poly(variables, pairs)
    )


@st.composite
def tables(draw, first: int, second: int, target: int):
    """A random sparse {(a, b): [(k, poly), ...]} table over (del, lam)."""
    out = {}
    for key in product(range(first), range(second)):
        if draw(st.booleans()):
            targets = draw(st.lists(st.integers(0, target - 1), unique=True, max_size=target))
            out[key] = [(k, draw(low_polys(PRODUCT_VARS))) for k in targets]
    return out


@st.composite
def algebras(draw):
    rank = draw(st.integers(1, 3))
    return ConformalAlgebra(tuple(f"a{i}" for i in range(rank)), draw(tables(rank, rank, rank)))


@st.composite
def modules(draw):
    algebra = draw(algebras())
    na, nm = algebra.rank, draw(st.integers(1, 3))
    has_left, has_right = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return BimoduleStructure(
        algebra,
        tuple(f"u{t}" for t in range(nm)),
        draw(tables(na, nm, nm)) if has_left else None,
        draw(tables(nm, na, nm)) if has_right else None,
    )


@st.composite
def compat_modules(draw):
    """Over a zero product, a left action taking u0 to u1 and a right
    action taking u1 to u2: the left and right laws hold, so the
    compatibility law decides."""
    na = draw(st.integers(1, 2))
    return BimoduleStructure(
        ConformalAlgebra(tuple(f"a{i}" for i in range(na)), {}),
        ("u0", "u1", "u2"),
        {(i, 0): [(1, draw(low_polys(PRODUCT_VARS)))] for i in range(na)},
        {(1, i): [(2, draw(low_polys(PRODUCT_VARS)))] for i in range(na)},
    )


def typed(p: Poly) -> list:
    return sorted((exp, type(c).__name__, c) for exp, c in p.terms.items())


def typed_failure(failure):
    if failure is None:
        return None
    law, triple, lhs, rhs = failure
    return law, triple, [typed(p) for p in lhs], [typed(p) for p in rhs]


def as_tuple(cex):
    return None if cex is None else (cex.law, cex.triple, cex.lhs, cex.rhs)


@given(algebras())
def test_check_associativity_matches_the_reference(algebra):
    got = as_tuple(check_associativity(algebra))
    assert typed_failure(got) == typed_failure(reference_check_associativity(algebra))


@given(st.one_of(modules(), compat_modules()))
def test_check_module_axioms_matches_the_reference(module):
    got = as_tuple(check_module_axioms(module))
    assert typed_failure(got) == typed_failure(reference_check_module_axioms(module))


# associative bases of rank 1 and 2, two of them with coefficients 2 and
# 1/2 that multiply half-integer twists to integers
BASES = [
    parse_algebra((INPUTS / name).read_text(encoding="utf-8"))
    for name in ("cur1.alg", "lam_c.alg", "plateau.alg")
] + [
    parse_algebra((INPUTS.parent / "perfbench" / "algebras" / "u2.alg").read_text(encoding="utf-8")),
    free_rank_one(Poly.const(PRODUCT_VARS, 2)),
    free_rank_one(Poly.const(PRODUCT_VARS, Fraction(1, 2))),
]


@given(st.sampled_from(BASES), st.data())
def test_deformation_residuals_match_the_reference(algebra, data):
    module = BimoduleStructure.regular(algebra)
    values = {
        pair: tuple(data.draw(low_polys(D2)) for _ in range(algebra.rank))
        for pair in product(range(algebra.rank), repeat=2)
        if data.draw(st.booleans())
    }
    cochain = Cochain(2, algebra, module, values)
    got = deformation_residuals(DeformationDatum(algebra, cochain))
    want = reference_deformation_residuals(algebra, cochain)
    assert list(got) == list(want)
    assert [typed(p) for p in got.values()] == [typed(p) for p in want.values()]
