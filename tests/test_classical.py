from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    INPUTS,
    center_dimension,
    derivation_space_dimension,
    fd_algebra,
    inner_derivation_space_dimension,
    matrix_algebra,
    rationals,
    tensor_product,
)
from pseudo.cfmodule import BimoduleStructure
from pseudo.cohomology import (
    CochainIndex,
    TruncationWindow,
    cohomology_dimensions,
    _coboundary_slice,
    _slice_columns,
)
from pseudo.conformal import PRODUCT_VARS, ConformalAlgebra, check_associativity
from pseudo.exactla import kernel
from pseudo.formats import DefinitionError, parse_algebra, parse_fd_algebra
from pseudo.polyring import Poly

# the samples with a unit: every .fda file but zero3 (mat2.fda is M_2)
UNITAL = [
    fd_algebra("ground"),
    fd_algebra("dual"),
    fd_algebra("split"),
    matrix_algebra(2),
    fd_algebra("upper"),
]
SAMPLES = UNITAL + [fd_algebra("zero3")]


def bar_report(algebra, degree):
    """The degree-0 slice of the current algebra's complex: the bar complex."""
    return cohomology_dimensions(
        algebra, BimoduleStructure.regular(algebra), degree, TruncationWindow(0)
    )


def hh(algebra, degree):
    return bar_report(algebra, degree).dim_cohomology


def test_constructors_are_associative():
    for algebra in SAMPLES:
        assert check_associativity(algebra) is None


def test_non_associative_detected():
    crooked = parse_fd_algebra(
        "kind: fd_algebra\ngenerators: a b\nproduct a a -> 1 * b\nproduct a b -> 1 * a\n"
    )
    assert check_associativity(crooked) is not None


def test_unit_validation():
    for text in (
        "kind: fd_algebra\ngenerators: z\nunit: 1\n",  # z*z = 0
        "kind: fd_algebra\ngenerators: a\nunit: 2\nproduct a a -> 1 * a\n",
    ):
        with pytest.raises(DefinitionError) as info:
            parse_fd_algebra(text)
        assert info.value.line == 3
        assert "claimed unit is not an identity" in str(info.value)


def test_matrix_algebra_dimensions():
    assert matrix_algebra(2).rank == 4
    assert matrix_algebra(3).rank == 9
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


# HH^n(A) at n = 0..3 in closed form: a separable algebra (the ground
# field, k x k, M_2) has its center at n = 0 and nothing above; T_2
# (upper) is hereditary with the center k and no outer derivation; the
# dual numbers k[x]/x^2 in characteristic 0 have k[x]/x^2 at n = 0 and k
# at every n >= 1
CLOSED_FORM_HH = {
    "ground": (1, 0, 0, 0),
    "split": (2, 0, 0, 0),
    "upper": (1, 0, 0, 0),
    "dual": (2, 1, 1, 1),
    "mat2": (1, 0, 0, 0),
}


def kunneth(left, right):
    """HH(A ⊗ B) = HH(A) ⊗ HH(B), graded, at n = 0..3."""
    return tuple(sum(left[p] * right[n - p] for p in range(n + 1)) for n in range(4))


UNITAL_CASES = [pytest.param(fd_algebra(name), CLOSED_FORM_HH[name], id=name)
                for name in CLOSED_FORM_HH]
UNITAL_CASES += [
    pytest.param(tensor_product(fd_algebra("dual"), fd_algebra(name)),
                 kunneth(CLOSED_FORM_HH["dual"], CLOSED_FORM_HH[name]), id=f"dual x {name}")
    for name in ("dual", "upper", "split")
]


@pytest.mark.parametrize("algebra, closed_form", UNITAL_CASES)
def test_each_slice_is_hh_n_plus_hh_n_minus_one(algebra, closed_form):
    # on a unital current algebra H^n holds HH^n(A) at weight 0 and
    # HH^(n-1)(A) at weight 1, so every slice at D 1-3 reads their sum;
    # HH comes from closed forms, not from the package's D = 0 slice
    module = BimoduleStructure.regular(algebra)
    for bound in (1, 2, 3):
        for n in range(4):
            report = cohomology_dimensions(algebra, module, n, TruncationWindow(bound))
            expected = closed_form[n] + (closed_form[n - 1] if n else 0)
            assert report.dim_cohomology == expected, (bound, n)


def test_degree_zero_slice_stabilizes_in_two_rounds():
    # constant tables keep polynomial degree, so the first round holds B
    for algebra in SAMPLES:
        for n in range(1, 4):
            report = bar_report(algebra, n)
            assert report.stabilized and report.rounds == 2


def test_h0_equals_center_for_unital_samples():
    for algebra in UNITAL:
        assert hh(algebra, 0) == center_dimension(algebra)


def test_h1_equals_outer_derivations():
    for algebra in UNITAL:
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
    ground = fd_algebra("ground")
    with pytest.raises(ValueError):
        cohomology_dimensions(
            ground, BimoduleStructure.regular(ground), -1, TruncationWindow(0)
        )


def test_current_algebra_bridge():
    """M_2 built, read as an fd_algebra and read as an algebra file is one
    current algebra."""
    mat2_alg = parse_algebra((INPUTS / "mat2.alg").read_text(encoding="utf-8"))
    assert matrix_algebra(2) == fd_algebra("mat2") == mat2_alg


@st.composite
def constant_tables(draw):
    """A random constant table of rank 1 to 3, associative or not."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(Fraction(0)), rationals(2, 2))
    structure = {
        (i, j): [(k, Poly.const(PRODUCT_VARS, draw(entry))) for k in range(n)]
        for i in range(n)
        for j in range(n)
    }
    return ConformalAlgebra(tuple(f"x{i}" for i in range(n)), structure)


@given(constant_tables())
def test_oracles_match_the_degree_zero_slice(algebra):
    """The hand-built classical systems agree with the conformal complex of
    the current algebra at polynomial degree 0.  No associativity is
    assumed, so cohomology_dimensions (whose d after d = 0 guard needs it)
    is not used: the kernel of d on the slice's columns and the
    coboundary slice are called directly, the latter with the zero map's
    columns in place of d's, so the whole slice is its ceiling and no
    coboundary is checked against d."""
    reg = BimoduleStructure.regular(algebra)
    assert center_dimension(algebra) == kernel(_slice_columns(reg, 0, 0)[1]).dim
    derivations = kernel(_slice_columns(reg, 1, 0)[1])
    whole = [{}] * CochainIndex(algebra, reg, 1, 0).dimension
    _, inner, _, _ = _coboundary_slice(reg, 1, TruncationWindow(0), 1, whole)
    assert derivation_space_dimension(algebra) == derivations.dim
    assert inner_derivation_space_dimension(algebra) == inner.dim
