from fractions import Fraction

import pytest

from conftest import fd_algebra
from pseudo.classical import (
    FDAlgebra,
    FDBimodule,
    center_dimension,
    current_algebra,
    derivation_space_dimension,
    hochschild_dimension,
    inner_derivation_space_dimension,
    is_associative,
    matrix_algebra,
    regular_bimodule,
)
from pseudo.conformal import check_associativity

SAMPLES = [
    fd_algebra("ground"),
    fd_algebra("dual"),
    fd_algebra("split"),
    matrix_algebra(2),
    fd_algebra("upper"),
    fd_algebra("zero3"),
]


def check_bimodule_axioms(module: FDBimodule) -> bool:
    """(ab)m = a(bm), m(ab) = (ma)b, (am)b = a(mb) on basis triples."""
    algebra = module.algebra
    na = algebra.dimension
    nm = module.dimension

    def basis(t):
        return tuple(Fraction(1) if s == t else Fraction(0) for s in range(nm))

    for i in range(na):
        for j in range(na):
            prod = algebra.multiply(
                algebra._basis_vector(i), algebra._basis_vector(j)
            )
            for t in range(nm):
                u = basis(t)
                via_prod = [Fraction(0)] * nm
                for l, cl in enumerate(prod):
                    if cl:
                        for s, x in enumerate(module.act_left(l, u)):
                            via_prod[s] += cl * x
                if tuple(via_prod) != module.act_left(i, module.act_left(j, u)):
                    return False
                via_prod = [Fraction(0)] * nm
                for l, cl in enumerate(prod):
                    if cl:
                        for s, x in enumerate(module.act_right(u, l)):
                            via_prod[s] += cl * x
                if tuple(via_prod) != module.act_right(
                    module.act_right(u, i), j
                ):
                    return False
                if module.act_right(module.act_left(i, u), j) != module.act_left(
                    i, module.act_right(u, j)
                ):
                    return False
    return True


def hh(algebra, degree):
    return hochschild_dimension(algebra, regular_bimodule(algebra), degree)


def test_constructors_are_associative():
    for algebra in SAMPLES:
        assert is_associative(algebra)


def test_non_associative_detected():
    constants = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    constants[0][0][1] = Fraction(1)  # a*a = b
    constants[0][1][0] = Fraction(1)  # a*b = a
    crooked = FDAlgebra(("a", "b"),
                        tuple(tuple(tuple(r) for r in p) for p in constants))
    assert not is_associative(crooked)


def test_unit_validation():
    with pytest.raises(ValueError):
        FDAlgebra(
            ("z",),
            (((Fraction(0),),),),
            unit=(Fraction(1),),
        )
    with pytest.raises(ValueError):
        FDAlgebra(("a",), (((Fraction(1),),),), unit=(Fraction(2),))


def test_multiply():
    mat2 = matrix_algebra(2)
    e11 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e12 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    e21 = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    assert mat2.multiply(e12, e21) == e11
    assert mat2.multiply(e21, e21) == (Fraction(0),) * 4
    assert mat2.multiply(mat2.unit, e12) == e12
    assert mat2.multiply(e12, mat2.unit) == e12


def test_matrix_algebra_dimensions():
    assert matrix_algebra(2).dimension == 4
    assert matrix_algebra(3).dimension == 9
    assert hochschild_dimension(
        matrix_algebra(3), regular_bimodule(matrix_algebra(3)), 0
    ) == 1


def test_hochschild_oracles_mat2():
    assert [hh(matrix_algebra(2), n) for n in range(4)] == [1, 0, 0, 0]


def test_hochschild_oracles_dual_numbers():
    assert [hh(fd_algebra("dual"), n) for n in range(3)] == [2, 1, 1]


def test_hochschild_oracles_zero_algebra():
    assert [hh(fd_algebra("zero3"), n) for n in range(4)] == [3, 9, 27, 81]


def test_hochschild_oracles_upper_triangular():
    assert [hh(fd_algebra("upper"), n) for n in range(3)] == [1, 0, 0]


def test_hochschild_oracles_split_pair_and_ground():
    assert [hh(fd_algebra("split"), n) for n in range(3)] == [2, 0, 0]
    assert [hh(fd_algebra("ground"), n) for n in range(3)] == [1, 0, 0]


def test_h0_equals_center_for_unital_samples():
    for algebra in SAMPLES:
        if algebra.unit is not None:
            assert hh(algebra, 0) == center_dimension(algebra)


def test_h1_equals_outer_derivations():
    for algebra in SAMPLES:
        if algebra.unit is None:
            continue
        outer = derivation_space_dimension(algebra) - inner_derivation_space_dimension(
            algebra
        )
        assert hh(algebra, 1) == outer


def test_derivation_dimensions_mat2():
    assert derivation_space_dimension(matrix_algebra(2)) == 3
    assert inner_derivation_space_dimension(matrix_algebra(2)) == 3
    assert derivation_space_dimension(fd_algebra("dual")) == 1
    assert inner_derivation_space_dimension(fd_algebra("dual")) == 0


def test_bimodule_axioms():
    for algebra in SAMPLES:
        assert check_bimodule_axioms(regular_bimodule(algebra))
    mat2 = matrix_algebra(2)
    reg = regular_bimodule(mat2)
    doubled = tuple(
        tuple(tuple(2 * x for x in row) for row in plane) for plane in reg.left
    )
    broken = FDBimodule(
        algebra=mat2,
        basis_names=reg.basis_names,
        left=doubled,
        right=reg.right,
    )
    assert not check_bimodule_axioms(broken)


def test_degree_bounds():
    ground = fd_algebra("ground")
    with pytest.raises(ValueError):
        hochschild_dimension(ground, regular_bimodule(ground), -1)
    with pytest.raises(ValueError):
        hochschild_dimension(ground, regular_bimodule(ground), 4)


def test_current_algebra_bridge(mat2):
    lifted = current_algebra(matrix_algebra(2))
    assert lifted.generators == mat2.generators
    assert lifted.structure == mat2.structure
    assert check_associativity(lifted) is None
    tiny = current_algebra(fd_algebra("ground"))
    assert tiny.rank == 1 and check_associativity(tiny) is None
