import pytest

from conftest import free_rank_one
from pseudo.conformal import (
    ASSOC_VARS,
    PRODUCT_VARS,
    ConformalAlgebra,
    check_associativity,
)
from pseudo.polyring import Poly, parse_poly

DEL = ("del",)


def rank_one(product_text: str) -> ConformalAlgebra:
    return free_rank_one(parse_poly(product_text, PRODUCT_VARS))


def test_free_rank_one_default():
    alg = free_rank_one()
    assert alg.generators == ("e",)
    assert alg.rank == 1
    assert alg.structure[(0, 0)] == ((0, Poly.const(PRODUCT_VARS, 1)),)
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
    assert cex.law == "associativity" and cex.triple == (0, 0, 0)
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


def test_products_outside_table_are_zero(mat2):
    assert (0, 2) not in mat2.structure
    assert (1, 1) not in mat2.structure
