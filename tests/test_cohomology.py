import gc
import re
import weakref
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

import pseudo.cohomology as cohomology
from conftest import (
    U1_PATH,
    U2_PATH,
    _poly_from_pairs,
    check_h0_representative,
    committed_modules,
    fraction_rref,
    fraction_solve,
    free_rank_one,
    matrix_algebra,
    negate_head_slot,
    polys,
    rationals,
    record_images,
    reference_d0,
    reference_dn,
    subspace,
    unit_cochain,
)
from pseudo.cfmodule import BimoduleStructure, UnfitModuleError
from pseudo.cohomology import (
    Cochain,
    CochainIndex,
    ComplexInconsistencyError,
    TruncationOverflowError,
    TruncationWindow,
    apply_dn,
    cochain_variables,
    cohomology_dimensions,
    _coboundary_slice,
)
from pseudo.conformal import PRODUCT_VARS, ConformalAlgebra, NonAssociativeError
from pseudo.exactla import _SliceSpan, _span, kernel
from pseudo.formats import parse_algebra, parse_module
from pseudo.polyring import Poly, _coeff, iter_monomials, parse_poly, sort_variables

ONE = Poly.const(PRODUCT_VARS, 1)
D1 = cochain_variables(1)
D2 = cochain_variables(2)


def one_cochain(algebra, module, text: str) -> Cochain:
    return Cochain(1, algebra, module, {(0,): (parse_poly(text, D1),)})


def zero_class(algebra, module, coords) -> Cochain:
    """The degree-0 class of a constant module vector."""
    return Cochain(0, algebra, module, {(): tuple(Poly.const((), Fraction(c)) for c in coords)})


def stencil_columns(module, degree: int, bound: int, out: int) -> list[dict]:
    """The columns of d on the degree-<=bound source slice, as the stencil
    hands them to the elimination, each code decoded back to its target
    label through ``_Stencil.label``; every image must fit degree out."""
    stencil = cohomology._stencil(module, degree)
    limit = stencil.limit(out)
    index = CochainIndex(module.algebra, module, degree, bound)
    return [
        {stencil.label(code): c for code, c in column.items()}
        for tup, k in index.sources
        for column in stencil.columns(tup, k, index.monomials, limit)
    ]


def record_columns(monkeypatch) -> list:
    """The source label of every column ``_Stencil.columns`` yields from
    here on, recorded as the column is handed over."""
    calls = []
    original = cohomology._Stencil.columns

    def columns(self, tup, k, monomials, limit):
        for mono, column in zip(monomials, original(self, tup, k, monomials, limit)):
            calls.append((tup, k, mono))
            yield column

    monkeypatch.setattr(cohomology._Stencil, "columns", columns)
    return calls


def whole_slice(module, degree: int, bound: int) -> list[dict]:
    """The columns of the zero map on the degree-<=bound slice of
    n-cochains: its kernel is the whole slice, the ceiling under which
    ``_coboundary_slice`` widens in full."""
    return [{}] * CochainIndex(module.algebra, module, degree, bound).dimension


def cocycle_columns(module, degree: int, bound: int) -> list[dict]:
    """The columns of d on the degree-<=bound slice of n-cochains, as
    ``cohomology_dimensions`` hands them to ``_coboundary_slice``: their
    kernel is Z cap slice."""
    return cohomology._slice_columns(module, degree, bound)[1]


def test_cochain_variables():
    assert cochain_variables(0) == ()
    assert cochain_variables(1) == ("del",)
    assert cochain_variables(2) == ("del", "lam1")
    assert cochain_variables(3) == ("del", "lam1", "lam2")


def test_cochain_variables_are_canonical():
    # built in order, never sorted: lam10 and above sort by number
    for n in range(13):
        names = ["del"] * (n > 0) + [f"lam{i}" for i in range(1, n)]
        assert cochain_variables(n) == sort_variables(names)
    assert cochain_variables(12)[-3:] == ("lam9", "lam10", "lam11")


def test_truncation_window_validation():
    TruncationWindow(0, 1)
    with pytest.raises(ValueError):
        TruncationWindow(-1, 1)
    with pytest.raises(ValueError):
        TruncationWindow(2, 0)


def test_cochain_validation(cur1, cur1_regular):
    with pytest.raises(ValueError):
        Cochain(1, cur1, cur1_regular, {(0,): ()})
    with pytest.raises(ValueError):
        Cochain(1, cur1, cur1_regular, {(1,): (Poly.zero(D1),)})
    with pytest.raises(ValueError):
        Cochain(1, cur1, cur1_regular, {(0, 0): (Poly.zero(D1),)})
    with pytest.raises(ValueError):
        Cochain(1, cur1, cur1_regular, {(0,): (Poly.zero(D2),)})
    dropped = Cochain(1, cur1, cur1_regular, {(0,): (Poly.zero(D1),)})
    assert dropped.is_zero() and dropped.values == {}


def test_cochain_value_and_arithmetic(cur1, cur1_regular):
    phi = one_cochain(cur1, cur1_regular, "del^2")
    assert phi.values[(0,)][0] == parse_poly("del^2", D1)
    zero = Cochain.zero(cur1, cur1_regular, 1)
    assert (0,) not in zero.values
    assert (phi - phi).is_zero()
    assert (phi + phi) == phi.scaled(2)


def test_cochain_basis_counts(cur1, cur1_regular, mat2, mat2_regular):
    assert CochainIndex(cur1, cur1_regular, 1, 1).dimension == 2
    assert CochainIndex(cur1, cur1_regular, 0, 3).dimension == 1
    assert CochainIndex(mat2, mat2_regular, 2, 2).dimension == 384


def test_cochain_index_order_and_round_trip(cur1, cur1_regular):
    index = CochainIndex(cur1, cur1_regular, 1, 1)
    assert index.dimension == 2
    first = unit_cochain(index, 0)
    second = unit_cochain(index, 1)
    assert first.values[(0,)][0] == Poly.const(D1, 1)
    assert second.values[(0,)][0] == Poly.var(D1, "del")
    assert index.labels == [((0,), 0, (0,)), ((0,), 0, (1,))]
    combo = first.scaled(Fraction(2, 3)) + second.scaled(-2)
    terms = dict(cohomology._terms(combo))
    coords = [terms.get(label, 0) for label in index.labels]
    assert coords == [Fraction(2, 3), -2]
    assert index.reconstruct(coords) == combo


def test_cochain_index_refuses_a_module_over_another_algebra(mat2, cur1, cur1_regular):
    # mat2's rank would number sources that no cur1 cochain has
    with pytest.raises(ValueError, match="module is over a different algebra"):
        CochainIndex(mat2, cur1_regular, 1, 0)
    assert CochainIndex(cur1, cur1_regular, 1, 0).sources == [((0,), 0)]


@pytest.mark.parametrize("coords", [[1], [1, 2, 3, 4, 5]])
def test_reconstruct_rejects_wrong_length(cur1, cur1_regular, coords):
    index = CochainIndex(cur1, cur1_regular, 1, 1)
    with pytest.raises(ValueError, match="coordinate count"):
        index.reconstruct(coords)


def test_d0_two_sided_unit_module_is_zero(cur1):
    mod = BimoduleStructure(
        algebra=cur1, generators=("u",),
        left={(0, 0): ((0, ONE),)}, right={(0, 0): ((0, ONE),)},
    )
    assert apply_dn(zero_class(cur1, mod, [1])).is_zero()


def test_d0_left_only_unit_module_is_identity(cur1):
    mod = BimoduleStructure(
        algebra=cur1, generators=("u",),
        left={(0, 0): ((0, ONE),)}, right={},
    )
    out = apply_dn(zero_class(cur1, mod, [1]))
    assert out.values[(0,)][0] == Poly.const(D1, 1)


def test_d1_closed_form_on_rank_one(cur1, cur1_regular):
    """(d phi)(e, e) = p(lam1 + del) - p(del) + p(-lam1) for phi(e) = p."""
    for text in ("1", "del", "del^2", "del^3 - 2*del"):
        phi = one_cochain(cur1, cur1_regular, text)
        p = parse_poly(text, D2)
        dl = Poly.var(D2, "del")
        lam1 = Poly.var(D2, "lam1")
        expected = (
            p.substitute({"del": dl + lam1})
            - p
            + p.substitute({"del": -lam1})
        )
        assert apply_dn(phi) == Cochain(2, cur1, cur1_regular, {(0, 0): (expected,)})


def test_derivation_cocycle_and_identity_obstruction(cur1, cur1_regular):
    assert apply_dn(one_cochain(cur1, cur1_regular, "del")).is_zero()
    assert not apply_dn(one_cochain(cur1, cur1_regular, "1")).is_zero()


@given(polys(D1, max_degree=3, max_terms=3))
def test_d_after_d_is_zero_degree_one(p):
    alg = free_rank_one()
    reg = BimoduleStructure.regular(alg)
    phi = Cochain(1, alg, reg, {(0,): (p,)})
    assert apply_dn(apply_dn(phi)).is_zero()


@given(polys(D2, max_degree=2, max_terms=3))
def test_d_after_d_is_zero_degree_two(q):
    alg = free_rank_one()
    reg = BimoduleStructure.regular(alg)
    psi = Cochain(2, alg, reg, {(0, 0): (q,)})
    assert apply_dn(apply_dn(psi)).is_zero()


@given(st.lists(rationals(), min_size=4, max_size=4))
def test_d1_after_d0_is_zero_on_mat2(mat2_coords):
    alg = matrix_algebra(2)
    reg = BimoduleStructure.regular(alg)
    assert apply_dn(apply_dn(zero_class(alg, reg, mat2_coords))).is_zero()


def _reference_columns(algebra, module, degree, max_in, max_out) -> list[dict]:
    """The columns of d, {target label: coeff}, built one basis cochain at
    a time through the term-by-term oracle."""
    source = CochainIndex(algebra, module, degree, max_in)
    reference = reference_d0 if degree == 0 else reference_dn
    columns = []
    for col in range(source.dimension):
        image = reference(unit_cochain(source, col))
        column = {}
        for tup, vec in image.values.items():
            for k, poly in enumerate(vec):
                for mono, coeff in poly.terms.items():
                    assert sum(mono) <= max_out, (tup, k, mono)
                    column[(tup, k, mono)] = coeff
        columns.append(column)
    return columns


def test_stencil_columns_match_the_oracle(cur1, cur1_regular, mat2, mat2_regular, inputs_dir):
    u1 = parse_algebra(U1_PATH.read_text(encoding="utf-8"))
    u2 = parse_algebra(U2_PATH.read_text(encoding="utf-8"))
    uboth = parse_module((inputs_dir / "uboth.mod").read_text(encoding="utf-8"), cur1)
    cases = [(cur1, cur1_regular, n, 2) for n in (0, 1, 2, 3)]
    cases += [(mat2, mat2_regular, n, 1) for n in (0, 1, 2)]
    cases += [(a, BimoduleStructure.regular(a), n, 1) for a in (u1, u2) for n in (1, 2, 3)]
    cases += [(cur1, uboth, n, 2) for n in (1, 2, 3)]
    for algebra, module, degree, bound in cases:
        out = bound + module.structure_degree()
        expected = _reference_columns(algebra, module, degree, bound, out)
        got = stencil_columns(module, degree, bound, out)
        assert got == expected, (
            algebra.generators, module.generators, degree,
        )


def structure_tables(first: int, second: int, target: int):
    """Random structure maps {(i, j): [(k, poly), ...]} of small degree."""
    entries = st.lists(
        st.tuples(st.integers(0, target - 1), polys(PRODUCT_VARS, max_degree=1, max_terms=2)),
        max_size=target,
        unique_by=lambda entry: entry[0],
    )
    keys = [(i, j) for i in range(first) for j in range(second)]
    return st.fixed_dictionaries({key: entries for key in keys})


def draw_random_module(data) -> BimoduleStructure:
    """A two-sided module of rank 1 or 2 over an algebra of rank 1 or 2,
    every table drawn by ``structure_tables``."""
    rank = data.draw(st.integers(1, 2), label="algebra rank")
    module_rank = data.draw(st.integers(1, 2), label="module rank")
    algebra = ConformalAlgebra(
        generators=("a", "b")[:rank],
        structure=data.draw(structure_tables(rank, rank, rank), label="products"),
    )
    return BimoduleStructure(
        algebra=algebra,
        generators=("u", "v")[:module_rank],
        left=data.draw(structure_tables(rank, module_rank, module_rank), label="left"),
        right=data.draw(structure_tables(module_rank, rank, module_rank), label="right"),
    )


@given(st.data())
def test_stencil_columns_match_the_oracle_on_random_tables(data):
    # d is defined whether or not the tables are associative or satisfy the
    # module laws, so arbitrary tables exercise every slot of the stencil
    module = draw_random_module(data)
    algebra = module.algebra
    degree = data.draw(st.integers(1, 3), label="degree")
    bound = data.draw(st.integers(0, 1), label="bound")
    out = bound + module.structure_degree()
    expected = _reference_columns(algebra, module, degree, bound, out)
    assert stencil_columns(module, degree, bound, out) == expected


def draw_cochain(data, module: BimoduleStructure, degree: int) -> Cochain:
    """A cochain on ``module`` whose values have several terms of degree
    <= 3, with zero coordinates beside them."""
    variables = cochain_variables(degree)
    term = st.tuples(st.sampled_from(list(iter_monomials(variables, 3))), rationals())
    value = st.lists(term, max_size=4).map(lambda pairs: _poly_from_pairs(variables, pairs))
    tuples = iter_product(range(module.algebra.rank), repeat=degree)
    vector = st.tuples(*[value] * module.rank)
    values = data.draw(st.fixed_dictionaries({tup: vector for tup in tuples}), label="values")
    return Cochain(degree, module.algebra, module, values)


@given(st.data())
def test_apply_matches_oracle_on_random_cochains(data):
    # apply_dn feeds each value whole through a slot, so values with several
    # terms, and zero coordinates beside them, are drawn here
    module = draw_random_module(data)
    degree = data.draw(st.integers(0, 3), label="degree")
    cochain = draw_cochain(data, module, degree)
    reference = reference_d0 if degree == 0 else reference_dn
    assert apply_dn(cochain) == reference(cochain)


@given(st.data())
def test_differential_equals_reads_what_apply_dn_gives(data):
    # the zero test on the stencil's raw sums against decoding d into a
    # cochain and subtracting: at the image itself, the image plus one
    # term, a drawn cochain and no target at all
    module = draw_random_module(data)
    degree = data.draw(st.integers(0, 2), label="degree")
    cochain = draw_cochain(data, module, degree)
    image = apply_dn(cochain)
    variables = cochain_variables(degree + 1)
    tup = data.draw(st.tuples(*[st.integers(0, module.algebra.rank - 1)] * (degree + 1)))
    k = data.draw(st.integers(0, module.rank - 1), label="generator")
    mono = data.draw(st.sampled_from(list(iter_monomials(variables, 3))), label="monomial")
    coeff = data.draw(rationals().filter(bool), label="coefficient")
    vec = tuple(Poly(variables, {mono: coeff} if s == k else {}) for s in range(module.rank))
    extra = image + Cochain(degree + 1, module.algebra, module, {tup: vec})
    drawn = draw_cochain(data, module, degree + 1)
    for target in (image, extra, drawn):
        expected = (apply_dn(cochain) - target).is_zero()
        assert cohomology._differential_equals(cochain, target) == expected
    assert cohomology._differential_equals(cochain, image)
    assert not cohomology._differential_equals(cochain, extra)
    assert cohomology._differential_equals(cochain) == image.is_zero()


@given(st.data())
def test_raw_built_cochains_equal_the_validated_ones(data):
    # `_from_terms` builds a cochain without the constructor's checks: a
    # sum, a difference, a scaled cochain and a reconstruct each equal the
    # cochain the constructor builds from the same values
    module = draw_random_module(data)
    degree = data.draw(st.integers(0, 2), label="degree")
    first, second = draw_cochain(data, module, degree), draw_cochain(data, module, degree)
    factor = data.draw(rationals(), label="factor")
    terms = dict(cohomology._terms(first))
    index = CochainIndex(module.algebra, module, degree, 3)
    rebuilt = index.reconstruct([terms.get(label, 0) for label in index.labels])
    for cochain in (first + second, first - second, first.scaled(factor), rebuilt):
        assert cochain == Cochain(degree, module.algebra, module, cochain.values)
    assert rebuilt == first


@given(st.data())
def test_apply_on_one_module_matches_oracle_in_any_order(data):
    # the slot images kept on the module serve every later call: cochains
    # of mixed degree, in a drawn order, all on one module
    module = draw_random_module(data)
    degrees = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=5), label="degrees")
    for degree in degrees:
        cochain = draw_cochain(data, module, degree)
        reference = reference_d0 if degree == 0 else reference_dn
        assert apply_dn(cochain) == reference(cochain)


@given(st.data())
def test_stencil_columns_on_a_warmed_module_match_a_fresh_one(data):
    # images formed by earlier calls, at other degrees and bounds, change
    # no entry: an equal module that has kept nothing gives the same columns
    module = draw_random_module(data)
    algebra = module.algebra
    calls = st.tuples(st.integers(0, 3), st.integers(0, 2))
    for degree, bound in data.draw(st.lists(calls, min_size=1, max_size=3), label="warm"):
        stencil_columns(module, degree, bound, bound + module.structure_degree())
        apply_dn(draw_cochain(data, module, degree))
    fresh = BimoduleStructure(
        algebra=ConformalAlgebra(algebra.generators, algebra.structure),
        generators=module.generators,
        left=module.left,
        right=module.right,
    )
    assert fresh == module and fresh._memo == {}
    degree, bound = data.draw(calls, label="asked")
    out = bound + module.structure_degree()
    warmed = stencil_columns(module, degree, bound, out)
    assert warmed == stencil_columns(fresh, degree, bound, out)


@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.randoms()
)
def test_stencil_codes_follow_the_cochain_index(radix, rank_m, n, bound, rng):
    # the stencil of d_n numbers the labels of degree n + 1 by one integer
    # each; labels are encoded in a drawn order on a fresh stencil, so the
    # monomial numbering grows in that order
    algebra = ConformalAlgebra(("a", "b", "c")[:radix], {})
    module = BimoduleStructure(algebra, ("u", "v", "w")[:rank_m], left={}, right={})
    stencil = cohomology._stencil(module, n)
    assert stencil.src_vars == (cochain_variables(n) or ("del",))
    labels = CochainIndex(algebra, module, n + 1, bound).labels
    position = {label: i for i, label in enumerate(labels)}
    wider = CochainIndex(algebra, module, n + 1, bound + 1).labels
    rng.shuffle(wider)
    extent = stencil.extent(bound)
    assert extent * stencil.span == len(position)
    for label in wider:
        code = stencil.code(label)
        assert stencil.label(code) == label
        assert (code < extent * stencil.span) == (sum(label[2]) <= bound)
        if sum(label[2]) <= bound:
            place, rest = divmod(code, stencil.span)
            assert rest * extent + place == position[label]


def test_h0_h1_h2_of_rank_one(cur1, cur1_regular):
    h0 = cohomology_dimensions(cur1, cur1_regular, 0, TruncationWindow(2, 1))
    assert (h0.dim_cocycles, h0.dim_coboundaries, h0.dim_cohomology) == (1, 0, 1)
    assert h0.stabilized and h0.rounds == 0
    h1 = cohomology_dimensions(cur1, cur1_regular, 1, TruncationWindow(3, 1))
    assert (h1.dim_cocycles, h1.dim_coboundaries, h1.dim_cohomology) == (1, 0, 1)
    assert h1.stabilized
    h2 = cohomology_dimensions(cur1, cur1_regular, 2, TruncationWindow(2, 1))
    assert h2.dim_cohomology == 0
    assert h2.stabilized
    assert h2.dim_cocycles == h2.dim_coboundaries


def test_h1_of_mat2_current(mat2, mat2_regular):
    rep = cohomology_dimensions(mat2, mat2_regular, 1, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (4, 3, 1)
    assert rep.stabilized


def test_report_is_internally_consistent(cur1, cur1_regular):
    rep = cohomology_dimensions(cur1, cur1_regular, 3, TruncationWindow(1, 1))
    assert rep.dim_cohomology == rep.dim_cocycles - rep.dim_coboundaries
    assert rep.degree == 3 and rep.degree_bound == 1


def test_margin_does_not_change_stabilized_dimensions(cur1, cur1_regular):
    narrow = cohomology_dimensions(cur1, cur1_regular, 1, TruncationWindow(2, 1))
    wide = cohomology_dimensions(cur1, cur1_regular, 1, TruncationWindow(2, 3))
    assert narrow.stabilized and wide.stabilized
    assert narrow.dim_coboundaries == wide.dim_coboundaries
    assert narrow.dim_cohomology == wide.dim_cohomology


def test_derivation_basis_of_rank_one(cur1, cur1_regular):
    # derivations are the n = 1 cocycles, inner derivations the coboundaries
    rep = cohomology_dimensions(cur1, cur1_regular, 1, TruncationWindow(3))
    assert rep.cocycles.dim == 1
    index = CochainIndex(cur1, cur1_regular, 1, 3)
    basis = index.reconstruct(rep.cocycles.vectors[0])
    assert basis.values[(0,)][0] == Poly.var(D1, "del")
    assert rep.coboundaries.dim == 0


def test_derivation_basis_of_mat2(mat2, mat2_regular):
    rep = cohomology_dimensions(mat2, mat2_regular, 1, TruncationWindow(1))
    assert (rep.cocycles.dim, rep.coboundaries.dim) == (4, 3)
    # the guard in cohomology_dimensions has checked that the inner
    # derivations lie among the derivations
    assert rep.dim_cohomology == 1
    # the sources of B^1 are constant classes, all admitted in round one
    assert rep.stabilized and rep.rounds == 2


def test_inner_derivation_values(mat2, mat2_regular):
    # d_0 of the (1,2) matrix unit: a |-> a_{-del} u - u_0 a
    g = apply_dn(zero_class(mat2, mat2_regular, [0, 1, 0, 0]))
    assert g.values[(0,)][1] == Poly.const(D1, 1)
    assert g.values[(3,)][1] == Poly.const(D1, -1)
    assert (1,) not in g.values
    assert apply_dn(g).is_zero()


def test_h0_representative_checks(cur1, cur1_regular, mat2, mat2_regular):
    assert all(p.is_zero for p in check_h0_representative(cur1, cur1_regular, [1]))
    ident = [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    assert all(p.is_zero for p in check_h0_representative(mat2, mat2_regular, ident))
    skew = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert any(not p.is_zero for p in check_h0_representative(mat2, mat2_regular, skew))


@pytest.fixture(scope="module")
def u2():
    return parse_algebra(U2_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def u2_regular(u2):
    return BimoduleStructure.regular(u2)


def test_u2_h3_needs_three_widening_rounds(u2, u2_regular):
    rep = cohomology_dimensions(u2, u2_regular, 3, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (8, 8, 0)
    assert rep.stabilized and rep.rounds == 3


@pytest.mark.parametrize("path", [U1_PATH, U2_PATH], ids=["u1", "u2"])
def test_differentials_compose_to_zero_where_the_ceiling_skips(path):
    # the coboundary slice stops differentiating once B fills Z, so its
    # containment check no longer sees the images of the sources it skips;
    # on U1 and U2, where it skips most, d after d is checked directly on
    # every basis cochain of degree <= 3, which covers every skipped source
    # of U1 H^3 D=2 and U2 H^3 D=1
    algebra = parse_algebra(path.read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(algebra)
    for n in (0, 1, 2):
        index = CochainIndex(algebra, module, n, 3)
        for i in range(index.dimension):
            assert apply_dn(apply_dn(unit_cochain(index, i))).is_zero(), (n, index.labels[i])


def test_plateau_h3_with_margin_three(inputs_dir):
    # "stabilized" means two rounds agreed, not a proof: with margin 1 the
    # widening stops on a plateau after 2 rounds, and the weight pass then
    # takes the degree-3 sources, so B is the margin-3 answer pinned here
    plateau = parse_algebra((inputs_dir / "plateau.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(plateau)
    rep = cohomology_dimensions(plateau, module, 3, TruncationWindow(1, 3))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (3, 3, 0)
    assert rep.stabilized and rep.rounds == 3
    short = cohomology_dimensions(plateau, module, 3, TruncationWindow(1, 1))
    assert short.dim_cocycles == 3
    assert short.dim_coboundaries == rep.dim_coboundaries
    assert short.stabilized and short.rounds == 2


def test_broken_differential_trips_the_d_after_d_guard(inputs_dir, monkeypatch):
    # the head slot's images negated, d after d is no longer 0: the one
    # guard, in cohomology_dimensions, multiplies every row of B cap slice
    # (round 0's rows, which seeded the cocycle kernel unchecked, among
    # them) against d on the slice, so B escapes Z on plateau at n = 2,
    # D = 0 and on cur1 and mat2 at every n 1-3, D 0-1
    negate_head_slot(monkeypatch)
    jobs = [("plateau", 2, 0)]
    jobs += [(name, n, bound) for name in ("cur1", "mat2") for n in (1, 2, 3) for bound in (0, 1)]
    for name, n, bound in jobs:
        algebra = parse_algebra((inputs_dir / f"{name}.alg").read_text(encoding="utf-8"))
        module = BimoduleStructure.regular(algebra)
        with pytest.raises(ComplexInconsistencyError, match="d after d is not zero"):
            cohomology_dimensions(algebra, module, n, TruncationWindow(bound))


def test_broken_later_rounds_trip_the_d_after_d_guard(inputs_dir, monkeypatch):
    # every stencil column of a source monomial of degree > D gains +1 at
    # code 0, which lies in the slice: round 0 is left whole and seeds the
    # cocycle kernel with true rows of B, but it leaves B short of Z (7 of
    # 8 rows on U2, 1 of 3 on plateau, 1 of 2 on plateau3 at H^3 D=1), so
    # the later rounds add rows that d no longer sends to 0, and only the
    # guard on the final B can see them
    bound = 1
    original = cohomology._Stencil.columns

    def shifted(self, tup, k, monomials, limit):
        for mono, column in zip(monomials, original(self, tup, k, monomials, limit)):
            if sum(mono) > bound:
                column[0] = column.get(0, 0) + 1
                if not column[0]:
                    del column[0]
            yield column

    monkeypatch.setattr(cohomology._Stencil, "columns", shifted)
    for path in (U2_PATH, inputs_dir / "plateau.alg", inputs_dir / "plateau3.alg"):
        algebra = parse_algebra(path.read_text(encoding="utf-8"))
        module = BimoduleStructure.regular(algebra)
        with pytest.raises(ComplexInconsistencyError, match="d after d is not zero"):
            cohomology_dimensions(algebra, module, 3, TruncationWindow(bound))


def test_non_associative_algebra_is_refused_before_computing(inputs_dir, monkeypatch):
    # the kept associativity verdict is read first: no slice is formed
    monkeypatch.setattr(cohomology, "_slice_columns", lambda *args: pytest.fail("computed"))
    bad = parse_algebra((inputs_dir / "bad_del.alg").read_text(encoding="utf-8"))
    with pytest.raises(NonAssociativeError, match="algebra is not associative"):
        cohomology_dimensions(bad, BimoduleStructure.regular(bad), 1, TruncationWindow(1))


def test_module_breaking_its_laws_is_refused_before_computing(inputs_dir, monkeypatch):
    # a two-sided module whose kept verdict fails is bad input; a module
    # that lacks an action keeps its stencil's message, even when the one
    # law it has fails
    cur1 = parse_algebra((inputs_dir / "cur1.alg").read_text(encoding="utf-8"))

    def module(actions, *lines):
        return parse_module("\n".join(["kind: module", "generators: u", f"actions: {actions}",
                                       *lines]), cur1)

    broken_right = module("left right", "left e u -> 1 * u", "right u e -> del * u")
    broken_left_only = module("left", "left e u -> del * u")
    window = TruncationWindow(1)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_slice_columns", lambda *args: pytest.fail("computed"))
        with pytest.raises(UnfitModuleError, match="module violates its axiom system"):
            cohomology_dimensions(cur1, broken_right, 1, window)
    for n, message in [(0, "degree-0 differential needs both module actions"),
                       (1, "the differential needs a right action")]:
        with pytest.raises(UnfitModuleError, match=message):
            cohomology_dimensions(cur1, broken_left_only, n, window)


def test_plateau_h3_unstabilized_within_max_rounds(inputs_dir):
    # one widening round after the first: the two rounds disagree, so the
    # slice is reported as not stabilized after max_rounds + 1 rounds
    plateau = parse_algebra((inputs_dir / "plateau.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(plateau)
    rep = cohomology_dimensions(plateau, module, 3, TruncationWindow(1, 2), max_rounds=1)
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (3, 3, 0)
    assert not rep.stabilized and rep.rounds == 2


@pytest.mark.parametrize("degree, pinned", [(1, (2, 2, 0)), (2, (5, 5, 0))])
def test_plateau_del3_twin_with_margin_three(inputs_dir, degree, pinned):
    # B = Z, so the margin-3 answer is exact; the default margin's rounds
    # stop on a plateau below it, and the weight pass reaches it
    twin = parse_algebra((inputs_dir / "plateau3.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(twin)
    rep = cohomology_dimensions(twin, module, 3, TruncationWindow(degree, 3))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == pinned
    assert rep.stabilized and rep.rounds == 3
    short = cohomology_dimensions(twin, module, 3, TruncationWindow(degree, 1))
    assert short.dim_cocycles == pinned[0]
    assert short.dim_coboundaries == pinned[1]
    assert short.stabilized and short.rounds == 2


def test_u2_h2_is_nonzero(u2, u2_regular):
    rep = cohomology_dimensions(u2, u2_regular, 2, TruncationWindow(4, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (19, 12, 7)
    assert rep.stabilized and rep.rounds == 2


@pytest.mark.parametrize(
    "name, degree, bound",
    [
        ("cur1", 1, 2),
        ("cur1", 2, 2),
        ("cur1", 3, 2),
        ("mat2", 1, 1),
        ("mat2", 2, 0),
        ("mat2", 2, 1),
        ("u2", 2, 4),
        ("u2", 3, 1),
    ],
)
def test_coboundary_slice_matches_rank_oracle(request, name, degree, bound):
    """dim(B cap slice) = rank(M) - rank(M on out-of-slice rows), where M is
    the matrix of d at the last source bound the widening reached, built
    by the term-by-term oracle; each rank is a textbook RREF's, taken on
    the columns (the rank of the transpose)."""
    algebra = request.getfixturevalue(name)
    module = request.getfixturevalue(f"{name}_regular")
    window = TruncationWindow(bound, 1)
    rep = cohomology_dimensions(algebra, module, degree, window)
    source_bound = bound + (rep.rounds - 1) * window.stabilization_margin
    target_bound = source_bound + module.structure_degree()
    columns = _reference_columns(algebra, module, degree - 1, source_bound, target_bound)
    labels = CochainIndex(algebra, module, degree, target_bound).labels
    in_slice = set(CochainIndex(algebra, module, degree, bound).labels)
    outside = [label for label in labels if label not in in_slice]

    def rank(rows):
        dense = [[column.get(label, 0) for label in rows] for column in columns]
        return len(fraction_rref(dense, len(rows))[1])

    assert rep.dim_coboundaries == rank(labels) - rank(outside)


def test_coboundary_slice_keeps_truncation_guard(u2, u2_regular, monkeypatch):
    # with the structure degree understated, some image must overflow its window
    monkeypatch.setattr(BimoduleStructure, "structure_degree", lambda self: 0)
    # the messages name the first overflowing monomial and its tuple
    window = TruncationWindow(1, 1)
    with pytest.raises(TruncationOverflowError, match=re.escape(
        "monomial (1, 0, 1) on tuple (0, 0, 0) exceeds degree 1"
    )):
        cohomology_dimensions(u2, u2_regular, 2, window)
    with pytest.raises(TruncationOverflowError, match=re.escape(
        "monomial (2, 0) on tuple (0, 0) exceeds degree 1"
    )):
        _coboundary_slice(u2_regular, 2, window, 4, whole_slice(u2_regular, 2, 1))


def test_stencil_columns_overflow_with_the_message_of_one_column_at_a_time(u2):
    # a batch yields every column below the limit before it raises, and
    # names the first overflowing code of the column in the order the
    # slots add it, as a single column did
    module = BimoduleStructure.regular(u2)
    stencil = cohomology._stencil(module, 1)
    columns = stencil.columns((1,), 0, [(0,), (2,)], stencil.limit(1))
    assert len(next(columns)) == 5
    with pytest.raises(TruncationOverflowError, match=re.escape(
        "monomial (2, 0) on tuple (0, 1) exceeds degree 1"
    )):
        next(columns)
    stencil = cohomology._stencil(module, 2)
    columns = stencil.columns((0, 1), 1, [(0, 0), (1, 1)], stencil.limit(1))
    assert len(next(columns)) == 3
    with pytest.raises(TruncationOverflowError, match=re.escape(
        "monomial (1, 1, 0) on tuple (0, 0, 1) exceeds degree 1"
    )):
        next(columns)


def test_coboundary_slice_differentiates_each_source_once(
    u2, u2_regular, mat2, mat2_regular, monkeypatch
):
    # every column comes from the compiled stencil, one per source label
    # that can reach the slice
    calls = record_columns(monkeypatch)
    monkeypatch.setattr(cohomology, "apply_dn", None)
    window = TruncationWindow(1, 1)
    whole = whole_slice(u2_regular, 3, 1)
    _, _, stabilized, rounds = _coboundary_slice(u2_regular, 3, window, 4, whole)
    assert stabilized and rounds == 3
    # U2 takes w = (0, -1), u = (1, 0) and b = 0, so the slice's labels
    # (degree <= 1 on 3-tuples) weigh 0 .. 5, and a source reaches the
    # slice exactly when its weight |m| + u(k) - sum(w(t)) lies in 0 .. 5.
    # B never reaches this ceiling, so after the rounds (sources up to
    # degree 3) the weight pass takes every other reaching source, up to
    # degree 5: 102 columns in all, where the rounds alone took 76
    assert cohomology.grading(u2_regular) == ((0, -1), (1, 0), 0)
    reaching = {
        (t, k, mono)
        for t, k, mono in CochainIndex(u2, u2_regular, 2, 6).labels
        if 0 <= sum(mono) + (1 - k) + sum(t) <= 5
    }
    assert len(calls) == len(set(calls)) == 102
    assert set(calls) == reaching
    assert max(sum(mono) for _, _, mono in calls) == 5
    # round 0 takes its 24 sources of degree <= 1 under the slice's own
    # dimension; under the ceiling dim(Z cap slice) = 8 that follows, B
    # fills Z after 4 degree-2 sources, before any degree-3 source is
    # admitted, and the last two rounds differentiate nothing yet still
    # count
    columns = cocycle_columns(u2_regular, 3, 1)
    cocycles = kernel(columns)
    calls.clear()
    assert _coboundary_slice(u2_regular, 3, window, 4, columns) == (cocycles, cocycles, True, 3)
    assert len(calls) == len(set(calls)) == 28
    assert max(sum(mono) for _, _, mono in calls) < 3
    # U1 H^3 D=2 (22/22/0 in 2 rounds) takes 146 sources under the whole
    # slice, 80 in the rounds and 66 in the weight pass, and 48 under dim
    # Z: round 0 takes all its 48 sources of degree <= 2, which already
    # fill Z, so no degree-3 source is differentiated
    u1 = parse_algebra(U1_PATH.read_text(encoding="utf-8"))
    u1_regular = BimoduleStructure.regular(u1)
    window = TruncationWindow(2, 1)
    columns = cocycle_columns(u1_regular, 3, 2)
    cocycles = kernel(columns)
    results, counts = [], []
    for stand_in in (whole_slice(u1_regular, 3, 2), columns):
        calls.clear()
        results.append(_coboundary_slice(u1_regular, 3, window, 4, stand_in)[1:])
        counts.append(len(calls))
    assert results == [(cocycles, True, 2)] * 2
    assert counts == [146, 48]
    assert max(sum(mono) for _, _, mono in calls) < 3
    # degree 0 takes the same route: d_0 columns and the coboundaries of H^1
    calls.clear()
    cohomology_dimensions(mat2, mat2_regular, 0, TruncationWindow(0))
    assert calls == CochainIndex(mat2, mat2_regular, 0, 0).labels
    rep = cohomology_dimensions(mat2, mat2_regular, 1, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (4, 3, 1)


def test_grading_holds_on_every_committed_input():
    # every term c*del^p*lam^q of x_i lam x_j -> x_k weighs p + q + w(k)
    # - w(i) - w(j) = b, and likewise for both actions with u on the
    # module side; the weights are kept on the module
    names = []
    for name, module in committed_modules():
        found = cohomology.grading(module)
        assert found is not None, name
        assert cohomology.grading(module) is found
        w, u, b = found
        terms = [
            (poly, w[k] - w[i] - w[j])
            for (i, j), entries in module.algebra.structure.items()
            for k, poly in entries
        ]
        terms += [
            (poly, u[s] - w[g] - u[k])
            for (g, k), entries in module.left.items()
            for s, poly in entries
        ]
        terms += [
            (poly, u[s] - u[k] - w[g])
            for (k, g), entries in module.right.items()
            for s, poly in entries
        ]
        for poly, shift in terms:
            assert all(sum(exp) + shift == b for exp in poly.terms), name
        names.append(name)
    assert {"mat2.alg", "plateau.alg", "u2.alg", "mat2.fda", "uboth.mod"} <= set(names)


def test_constant_weight_coboundaries_are_the_truncated_image():
    # a second route to B cap slice: when every w and every u are equal, d
    # raises degree by one fixed amount, so B cap slice is the span of the
    # stencil columns of the sources of degree <= D with the codes above D
    # dropped, in CochainIndex(n, D) order; no rounds, reach, weight pass,
    # ceiling or _SliceSpan
    names = set()
    for name, module in committed_modules():
        grades = cohomology.grading(module)
        fit = not name.startswith("bad_") and module.has_left and module.has_right
        if not (fit and len(set(grades[0])) == 1 and len(set(grades[1])) == 1):
            continue
        names.add(name)
        for n, bound in iter_product(range(1, 4), range(3)):
            stencil = cohomology._stencil(module, n - 1)
            limit, extent, span = stencil.limit(bound), stencil.extent(bound), stencil.span
            _, columns = cohomology._slice_columns(module, n - 1, bound)
            truncated = _span(
                {(code % span) * extent + code // span: c for code, c in column.items()
                 if code < limit}
                for column in columns
            )
            report = cohomology_dimensions(module.algebra, module, n, TruncationWindow(bound))
            assert truncated == report.coboundaries.rows, (name, n, bound)
    assert {"cur1.alg", "lam_c.alg", "mat2.fda", "uboth.mod", "uleft.mod"} <= names
    assert not names & {"plateau.alg", "plateau3.alg", "u1.alg", "u2.alg"}


def test_ungraded_table_differentiates_every_source(monkeypatch):
    # e lam e = (1 + lam) e has terms of degree 0 and 1 on one product, so
    # no weights grade it, and every source basis cochain is differentiated
    algebra = free_rank_one(parse_poly("1 + lam", PRODUCT_VARS))
    module = BimoduleStructure.regular(algebra)
    assert cohomology.grading(module) is None
    calls = record_columns(monkeypatch)
    window = TruncationWindow(1, 1)
    _, _, _, rounds = _coboundary_slice(module, 2, window, 3, whole_slice(module, 2, 1))
    last = window.degree_bound + (rounds - 1) * window.stabilization_margin
    assert len(calls) == len(set(calls))
    assert set(calls) == set(CochainIndex(algebra, module, 1, last).labels)


def draw_graded_module(data) -> BimoduleStructure:
    """A two-sided module of rank 1 or 2 over an algebra of rank 1 or 2
    whose tables are homogeneous for drawn weights w, u and b: every term
    of x lam y -> z has degree b + w(x) + w(y) - w(z), with u in place of
    w on the module side."""
    rank = data.draw(st.integers(1, 2), label="algebra rank")
    module_rank = data.draw(st.integers(1, 2), label="module rank")
    weight = st.sampled_from((-1, 0, 1, Fraction(1, 2)))
    w = data.draw(st.lists(weight, min_size=rank, max_size=rank), label="w")
    u = data.draw(st.lists(weight, min_size=module_rank, max_size=module_rank), label="u")
    b = data.draw(st.sampled_from((0, 1)), label="b")

    def table(first, second, out):
        entries = {}
        for (i, wi), (j, wj) in iter_product(enumerate(first), enumerate(second)):
            for k, wk in enumerate(out):
                degree = b + wi + wj - wk
                if degree not in (0, 1, 2):
                    continue
                degree = int(degree)
                coeffs = data.draw(st.lists(
                    st.sampled_from((0, 0, 1, -1, 2)), min_size=degree + 1, max_size=degree + 1
                ))
                poly = Poly(PRODUCT_VARS, {(p, degree - p): c for p, c in enumerate(coeffs)})
                if not poly.is_zero:
                    entries.setdefault((i, j), []).append((k, poly))
        return entries

    algebra = ConformalAlgebra(("a", "b")[:rank], table(w, w, w))
    return BimoduleStructure(
        algebra=algebra,
        generators=("u", "v")[:module_rank],
        left=table(w, u, u),
        right=table(u, w, u),
    )


def draw_plateau_module(data) -> BimoduleStructure:
    """The regular module of a plateau table like inputs/plateau.alg:
    a lam a = x a + y del^k c, every product with c zero, so a weighs 0
    and c weighs -k.  At n = 3 a source of degree above D + K still
    reaches the degree-<=D slice across that gap of k, so the widening
    rounds can stop below B, and only the weight pass fills it."""
    gap = data.draw(st.integers(2, 3), label="gap")
    x, y = data.draw(st.lists(st.sampled_from((1, -1, 2)), min_size=2, max_size=2),
                     label="coefficients")
    table = {(0, 0): [(0, Poly.const(PRODUCT_VARS, x)),
                      (1, Poly.monomial(PRODUCT_VARS, (gap, 0), y))]}
    return BimoduleStructure.regular(ConformalAlgebra(("a", "c"), table))


@given(st.data())
def test_weight_pruning_keeps_the_coboundary_slice(data):
    # a pruned source adds only rows of weights outside the slice, so the
    # flag and the round count are those of the full widening; the weight
    # pass then takes every source that can reach the slice, all of degree
    # <= S, so B is that of a full widening whose round 1 reaches S.  Half
    # the draws are plateau tables at n = 3, the one degree where their
    # rounds stop short of B
    if data.draw(st.booleans(), label="plateau"):
        module, degree = draw_plateau_module(data), 3
    else:
        module = draw_graded_module(data)
        degree = data.draw(st.integers(1, 3), label="degree")
    bound = data.draw(st.integers(0, 1), label="bound")
    window = TruncationWindow(bound, data.draw(st.integers(1, 2), label="margin"))
    max_rounds = data.draw(st.integers(1, 2), label="max rounds")
    w, u, b = cohomology.grading(module)
    # a source on (t, s) of degree |m| weighs |m| + u(s) - sum(w(t)), and
    # d adds b; the slice's labels weigh j + u(s) - sum(w(t)), j <= D
    slice_weights = {j + us - sum(t) for t in iter_product(w, repeat=degree)
                     for us in u for j in range(bound + 1)}
    shifts = {us - sum(t) + b for t in iter_product(w, repeat=degree - 1) for us in u}
    top = max((int(e - shift) for e in slice_weights for shift in shifts
               if e - shift == int(e - shift)), default=bound)
    whole = whole_slice(module, degree, bound)
    _, basis, stabilized, rounds = _coboundary_slice(module, degree, window, max_rounds, whole)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "grading", lambda module: None)
        full = _coboundary_slice(module, degree, window, max_rounds, whole)
        assert full[2:] == (stabilized, rounds)
        reaching = TruncationWindow(bound, max(top - bound, 1))
        assert _coboundary_slice(module, degree, reaching, 1, whole)[1] == basis


@given(st.data())
def test_stencil_columns_match_adding_each_label(data):
    # one batch per source tuple gives, column by column, what the
    # per-label definition gives on a stencil of its own: d of the basis
    # cochain added into an empty accumulator, normalized, zeros dropped
    module = draw_graded_module(data)
    n = data.draw(st.integers(0, 2), label="degree")
    stencil = cohomology._stencil(module, n)
    single = cohomology._Stencil(module, n)
    index = CochainIndex(module.algebra, module, n, 2)
    limit = stencil.limit(2 + module.structure_degree())
    for tup, k in index.sources:
        monomials = data.draw(
            st.lists(st.sampled_from(index.monomials), unique=True), label="monomials"
        )
        expected = []
        for mono in monomials:
            basis = cohomology._from_terms(n, module, [((tup, k, mono), 1)])
            acc = single.differential(basis.values)
            expected.append({code: _coeff(c) for code, c in acc.items() if c})
        assert list(stencil.columns(tup, k, monomials, limit)) == expected


def test_report_names_its_proof(inputs_dir):
    # B = Z proves the coboundary slice exact; at n <= 1 round 0 admits
    # every source; on a graded input the weight pass takes every source
    # that can reach the slice; an ungraded input at n >= 2 with B below
    # Z has no proof
    mat2 = parse_algebra((inputs_dir / "mat2.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(mat2)
    rep = cohomology_dimensions(mat2, module, 2, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.proof) == (28, 28, "cocycles")
    rep = cohomology_dimensions(mat2, module, 1, TruncationWindow(3, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.proof) == (4, 3, "degree")
    plateau = parse_algebra((inputs_dir / "plateau.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(plateau)
    rep = cohomology_dimensions(plateau, module, 3, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.proof) == (3, 3, "cocycles")
    lam_c = parse_algebra((inputs_dir / "lam_c.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(lam_c)
    rep = cohomology_dimensions(lam_c, module, 2, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.proof) == (5, 2, "weights")
    # e lam u = (1 + lam) v has terms of degree 0 and 1 on one action, so
    # no weights grade this module; the algebra has no products, so every
    # module law holds
    zero1 = ConformalAlgebra(("e",), {})
    module = parse_module("\n".join([
        "kind: module", "generators: u v", "actions: left right", "left e u -> (1 + lam) * v",
    ]), zero1)
    assert cohomology.grading(module) is None
    rep = cohomology_dimensions(zero1, module, 2, TruncationWindow(1, 1))
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.proof) == (3, 1, None)


PROOF_JOBS = [
    (name, n, bound)
    for name in ("cur1.alg", "uboth.mod", "lam_c.alg", "plateau.alg", "plateau3.alg",
                 "u1.alg", "u2.alg", "mat2.alg")
    for n in range(4)
    for bound in range(2)
    if name != "mat2.alg" or n <= 2
]


@given(st.sampled_from(PROOF_JOBS), st.integers(1, 2), st.sampled_from((1, 2, 4)))
def test_the_cocycle_ceiling_keeps_the_coboundary_slice(job, margin, max_rounds):
    # B cap slice lies in Z cap slice, and the RREF is unique, so once the
    # span fills Z it is all of B cap slice: stopping there moves no
    # basis, flag or round count; and round 0's rows, seeding the kernel,
    # move no row of Z
    name, n, bound = job
    module = dict(committed_modules())[name]
    window = TruncationWindow(bound, margin)
    columns = cocycle_columns(module, n, bound)
    cocycles, *under_z = _coboundary_slice(module, n, window, max_rounds, columns)
    whole = whole_slice(module, n, bound)
    assert cocycles == kernel(columns)
    assert under_z == list(_coboundary_slice(module, n, window, max_rounds, whole)[1:])


@given(st.sampled_from(PROOF_JOBS))
def test_a_proven_coboundary_slice_survives_a_wider_margin(job):
    name, n, bound = job
    module = dict(committed_modules())[name]
    algebra = module.algebra
    rep = cohomology_dimensions(algebra, module, n, TruncationWindow(bound, 1))
    if rep.proof is not None:
        wide = cohomology_dimensions(algebra, module, n, TruncationWindow(bound, 3), max_rounds=4)
        assert wide.coboundaries == rep.coboundaries


def kept_images(stencil) -> int:
    """The images kept in the stencil's slot tables, over every slot and
    (cut, k)."""
    return sum(len(kept) for _, _, _, table, _, _ in stencil.slots for _, kept in table.values())


def test_stencil_keeps_its_slot_images_on_the_module(inputs_dir, monkeypatch):
    # the compiled slots and the slot images of basis monomials are kept
    # on the module: a second call forms none, an equal but distinct
    # module forms its own, and they are freed with the module
    text = (inputs_dir / "mat2.alg").read_text(encoding="utf-8")
    mat2 = parse_algebra(text)
    module = BimoduleStructure.regular(mat2)
    window = TruncationWindow(1, 1)
    # a slot image is formed by multiplying a moved monomial into each
    # entry of its slot's table, the one product the stencil takes
    formed = []
    multiply = cohomology._mul_terms
    monkeypatch.setattr(
        cohomology, "_mul_terms", lambda *terms: formed.append(terms) or multiply(*terms)
    )
    moved = record_images(monkeypatch)
    rep = cohomology_dimensions(mat2, module, 1, window)
    assert (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology) == (4, 3, 1)
    kept = {key[1]: value for key, value in module._memo.items() if key[0] == "stencil"}
    assert set(kept) == {0, 1}
    for n, stencil in kept.items():
        assert set(vars(stencil)) == {
            "src_vars", "dst_vars", "radix", "rank_m", "span",
            "monomials", "numbering", "slots",
        }
        assert kept_images(stencil) and cohomology._stencil(module, n) is stencil
        assert stencil.monomials and len(stencil.numbering) == len(stencil.monomials)
    assert formed and moved

    def kept_sizes():
        return {n: (kept_images(s), len(s.monomials)) for n, s in kept.items()}

    sizes = kept_sizes()
    formed.clear()
    moved.clear()
    assert cohomology_dimensions(mat2, module, 1, window) == rep
    assert formed == [] and moved == []
    assert kept_sizes() == sizes

    twin = parse_algebra(text)
    other = BimoduleStructure.regular(twin)
    assert other == module and other is not module
    assert cohomology_dimensions(twin, other, 1, window) == rep
    assert formed and moved
    assert all(cohomology._stencil(other, n) is not kept[n] for n in kept)
    assert all(cohomology._stencil(other, n).monomials is not kept[n].monomials for n in kept)
    assert kept_sizes() == sizes

    # the stencil reads the module's own algebra, so a mismatched pair is
    # refused at the public entry
    cur1 = parse_algebra((inputs_dir / "cur1.alg").read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match="different algebra"):
        cohomology_dimensions(cur1, module, 1, window)

    refs = [weakref.ref(module), *map(weakref.ref, kept.values())]
    del mat2, module, kept, stencil
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_back_to_back_calls_keep_their_own_answers(inputs_dir):
    # fresh algebra objects each call, so a cache keyed by id() or kept
    # across calls would hand one algebra's columns to the other
    def mat2_h1():
        mat2 = parse_algebra((inputs_dir / "mat2.alg").read_text(encoding="utf-8"))
        return cohomology_dimensions(
            mat2, BimoduleStructure.regular(mat2), 1, TruncationWindow(1, 1)
        )

    def u2_h3():
        u2 = parse_algebra(U2_PATH.read_text(encoding="utf-8"))
        return cohomology_dimensions(
            u2, BimoduleStructure.regular(u2), 3, TruncationWindow(1, 1)
        )

    expected = {mat2_h1: (4, 3, 1, 2), u2_h3: (8, 8, 0, 3)}
    for order in ((mat2_h1, u2_h3), (u2_h3, mat2_h1)):
        for job in order + order:
            rep = job()
            got = (rep.dim_cocycles, rep.dim_coboundaries, rep.dim_cohomology, rep.rounds)
            assert rep.stabilized and got == expected[job]


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals())


@given(st.data())
def test_slice_span_matches_rank_identity(data):
    nrows = data.draw(st.integers(min_value=1, max_value=5))
    ncols = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(
        st.lists(
            st.lists(sparse_rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    # slice rows in a drawn order: slice coordinate j is matrix row inside[j]
    inside = data.draw(st.lists(st.integers(0, nrows - 1), unique=True))
    columns = [
        {r: entries[r][c] for r in range(nrows) if entries[r][c]} for c in range(ncols)
    ]
    # the columns arrive in two rounds, as widening rounds feed one span
    split = data.draw(st.integers(0, ncols))
    span = _SliceSpan(inside)

    def rank(rows, stop):
        return len(fraction_rref([row[:stop] for row in rows], stop)[1])

    for start, stop in ((0, split), (split, ncols)):
        for column in columns[start:stop]:
            span.insert(column)
        basis = span.basis()
        outside = [entries[r] for r in range(nrows) if r not in inside]
        assert basis.dim == rank(entries, stop) - rank(outside, stop)
        assert basis == subspace(len(inside), basis.vectors)
        for vec in basis.vectors:
            lifted = [Fraction(0)] * nrows
            for j, r in enumerate(inside):
                lifted[r] = vec[j]
            assert fraction_solve([row[:stop] for row in entries], lifted, stop) is not None
