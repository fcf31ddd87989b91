from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    center_dimension,
    derivation_space_dimension,
    fd_algebra,
    inner_derivation_space_dimension,
    rationals,
)
from pseudo.cfmodule import BimoduleStructure
from pseudo.classical import FDAlgebra, current_algebra, matrix_algebra
from pseudo.cohomology import (
    TruncationWindow,
    cohomology_dimensions,
    differential_matrix,
    _coboundary_slice,
)
from pseudo.conformal import check_associativity
from pseudo.exactla import kernel_basis

SAMPLES = [
    fd_algebra("ground"),
    fd_algebra("dual"),
    fd_algebra("split"),
    matrix_algebra(2),
    fd_algebra("upper"),
    fd_algebra("zero3"),
]


def bar_report(algebra, degree):
    """The degree-0 slice of the current algebra's complex: the bar complex."""
    cur = current_algebra(algebra)
    return cohomology_dimensions(
        cur, BimoduleStructure.regular(cur), degree, TruncationWindow(0)
    )


def hh(algebra, degree):
    return bar_report(algebra, degree).dim_cohomology


def test_constructors_are_associative():
    for algebra in SAMPLES:
        assert check_associativity(current_algebra(algebra)) is None


def test_non_associative_detected():
    constants = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    constants[0][0][1] = Fraction(1)  # a*a = b
    constants[0][1][0] = Fraction(1)  # a*b = a
    crooked = FDAlgebra(("a", "b"),
                        tuple(tuple(tuple(r) for r in p) for p in constants))
    assert check_associativity(current_algebra(crooked)) is not None


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
    assert hh(matrix_algebra(3), 0) == 1


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


def test_degree_zero_slice_stabilizes_in_two_rounds():
    # constant tables keep polynomial degree, so the first round holds B
    for algebra in SAMPLES:
        for n in range(1, 4):
            report = bar_report(algebra, n)
            assert report.stabilized and report.rounds == 2


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


def test_degree_bounds():
    ground = current_algebra(fd_algebra("ground"))
    with pytest.raises(ValueError):
        cohomology_dimensions(
            ground, BimoduleStructure.regular(ground), -1, TruncationWindow(0)
        )


def test_current_algebra_bridge(mat2):
    lifted = current_algebra(matrix_algebra(2))
    assert lifted.generators == mat2.generators
    assert lifted.structure == mat2.structure
    assert check_associativity(lifted) is None
    tiny = current_algebra(fd_algebra("ground"))
    assert tiny.rank == 1 and check_associativity(tiny) is None


@st.composite
def constant_tables(draw):
    """A random FDAlgebra of rank 1 to 3, associative or not."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(Fraction(0)), rationals(2, 2))
    constants = tuple(
        tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    return FDAlgebra(tuple(f"x{i}" for i in range(n)), constants)


@given(constant_tables())
def test_oracles_match_the_degree_zero_slice(algebra):
    """The hand-built classical systems agree with the conformal complex of
    the current algebra at polynomial degree 0.  No associativity is
    assumed, so cohomology_dimensions (whose d after d = 0 guard needs it)
    is not used: its two halves, the kernel of d and the coboundary slice,
    are called directly."""
    cur = current_algebra(algebra)
    reg = BimoduleStructure.regular(cur)
    assert center_dimension(algebra) == kernel_basis(differential_matrix(cur, reg, 0, 0, 0)).dim
    derivations = kernel_basis(differential_matrix(cur, reg, 1, 0, 0))
    inner, _, _ = _coboundary_slice(cur, reg, 1, TruncationWindow(0), 1)
    assert derivation_space_dimension(algebra) == derivations.dim
    assert inner_derivation_space_dimension(algebra) == inner.dim
