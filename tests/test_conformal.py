import pytest
from hypothesis import given

from conftest import polys
from pseudo.conformal import (
    ASSOC_VARS,
    PRODUCT_VARS,
    CElement,
    ConformalAlgebra,
    check_associativity,
    free_rank_one,
    lambda_product,
)
from pseudo.polyring import Poly, parse_poly

DEL = ("del",)


def rank_one(product_text: str) -> ConformalAlgebra:
    return free_rank_one(parse_poly(product_text, PRODUCT_VARS))


def test_free_rank_one_default():
    alg = free_rank_one()
    assert alg.generators == ("e",)
    assert alg.rank == 1
    assert alg.products(0, 0) == ((0, Poly.const(PRODUCT_VARS, 1)),)
    assert alg.structure_degree() == 0
    assert check_associativity(alg) is None


def test_zero_product_algebra():
    alg = free_rank_one(Poly.zero(PRODUCT_VARS))
    assert alg.structure == {}
    assert check_associativity(alg) is None


def test_structure_validation():
    one = Poly.const(PRODUCT_VARS, 1)
    with pytest.raises(ValueError):
        ConformalAlgebra(("e",), {(0, 1): ((0, one),)})
    with pytest.raises(ValueError):
        ConformalAlgebra(("e",), {(0, 0): ((1, one),)})
    with pytest.raises(ValueError):
        ConformalAlgebra(("e",), {(0, 0): ((0, one), (0, one))})
    with pytest.raises(ValueError):
        ConformalAlgebra(("e",), {(0, 0): ((0, Poly.const(DEL, 1)),)})


def test_mutant_del_counterexample():
    cex = check_associativity(rank_one("del"))
    assert cex is not None
    assert cex.triple == (0, 0, 0)
    assert cex.lhs[0] == parse_poly("-mu*del - lam*del", ASSOC_VARS)
    assert cex.rhs[0] == parse_poly("lam*del + del^2", ASSOC_VARS)
    assert cex.residual[0] == parse_poly("-mu*del - 2*lam*del - del^2", ASSOC_VARS)


def test_mutant_lam_counterexample():
    cex = check_associativity(rank_one("lam"))
    assert cex is not None
    assert cex.lhs[0] == parse_poly("mu*lam + lam^2", ASSOC_VARS)
    assert cex.rhs[0] == parse_poly("mu*lam", ASSOC_VARS)
    assert cex.residual[0] == parse_poly("lam^2", ASSOC_VARS)


def test_mat2_current_is_associative(mat2):
    assert mat2.rank == 4
    assert check_associativity(mat2) is None


def test_lambda_product_on_generators(mat2):
    e12 = CElement.generator(mat2, 1)
    e21 = CElement.generator(mat2, 2)
    out = lambda_product(e12, e21)
    expected = [Poly.zero(PRODUCT_VARS) for _ in range(4)]
    expected[0] = Poly.const(PRODUCT_VARS, 1)
    assert out == expected
    assert lambda_product(e21, e21) == [Poly.zero(PRODUCT_VARS)] * 4


def test_celement_arithmetic(cur1):
    e = CElement.generator(cur1, 0)
    two_e = e.scaled(2)
    assert (two_e - e - e).is_zero()
    shifted = CElement(cur1, (Poly.var(DEL, "del"),))
    assert not shifted.is_zero()


@given(polys(DEL, max_degree=2, max_terms=3), polys(DEL, max_degree=2, max_terms=3))
def test_sesquilinearity(p, q):
    """(del a) lam b = -lam (a lam b) and a lam (del b) = (lam+del)(a lam b)."""
    alg = free_rank_one()
    a = CElement(alg, (p,))
    b = CElement(alg, (q,))
    base = lambda_product(a, b)
    dl = Poly.var(DEL, "del")
    lam = Poly.var(PRODUCT_VARS, "lam")
    da = CElement(alg, (dl * p,))
    db = CElement(alg, (dl * q,))
    left = lambda_product(da, b)
    right = lambda_product(a, db)
    for k in range(alg.rank):
        assert left[k] == -lam * base[k]
        assert right[k] == (lam + Poly.var(PRODUCT_VARS, "del")) * base[k]


@given(polys(DEL, max_degree=2, max_terms=3), polys(DEL, max_degree=2, max_terms=3))
def test_lambda_product_bilinear(p, q):
    alg = free_rank_one()
    a = CElement(alg, (p,))
    b = CElement(alg, (q,))
    c = CElement(alg, (p + q,))
    left = lambda_product(c, b)
    split = lambda_product(a, b)
    other = lambda_product(CElement(alg, (q,)), b)
    for k in range(alg.rank):
        assert left[k] == split[k] + other[k]


def test_products_outside_table_are_zero(mat2):
    assert mat2.products(0, 2) == ()
    assert mat2.products(1, 1) == ()
