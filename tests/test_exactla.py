from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import fraction_kernel, fraction_rref, fraction_solve, rationals, subspace
from pseudo.exactla import (
    ContainmentError,
    Echelon,
    QMatrix,
    SubspaceBasis,
    kernel_basis,
    quotient_dimension,
    rank,
    solve,
)


def dense(rows):
    sparse = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    return QMatrix(len(rows), len(rows[0]) if rows else 0, sparse)


def times(m, vec):
    return [sum((v * vec[j] for j, v in row.items()), Fraction(0)) for row in m.rows]


def matrices(max_rows=4, max_cols=4):
    shape = st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    )
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(rationals(), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(dense)
    )


def test_rref_example():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert subspace(3, rows).rows == {
        0: {0: Fraction(1), 2: Fraction(1)},
        1: {1: Fraction(1), 2: Fraction(1)},
    }
    assert rank(dense(rows)) == 2


def test_kernel_and_image_example():
    m = dense([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    for vec in ker.vectors:
        assert times(m, vec) == [Fraction(0), Fraction(0)]
    assert rank(m) == 1
    assert solve(m, [Fraction(1), Fraction(2)]) is not None
    assert solve(m, [Fraction(1), Fraction(0)]) is None


def test_solve():
    m = dense([[1, 1], [0, 1], [1, 0]])
    sol = solve(m, [Fraction(3), Fraction(1), Fraction(2)])
    assert sol == [Fraction(2), Fraction(1)]
    assert solve(m, [Fraction(1), Fraction(1), Fraction(1)]) is None


def test_quotient_dimension_and_containment():
    big = subspace(3, [[1, 0, 0], [0, 1, 0]])
    small = subspace(3, [[1, 1, 0]])
    assert quotient_dimension(big, small) == 1
    stranger = subspace(3, [[0, 0, 1]])
    with pytest.raises(ContainmentError):
        quotient_dimension(big, stranger)
    assert quotient_dimension(big, SubspaceBasis.zero(3)) == 2


def test_matrix_helpers():
    m = dense([[0, 1], [2, 0]])
    assert (m.nrows, m.ncols, m.rows) == (2, 2, [{1: Fraction(1)}, {0: Fraction(2)}])
    assert times(m, [Fraction(1), Fraction(3)]) == [Fraction(3), Fraction(2)]
    with pytest.raises(ValueError):
        QMatrix(3, 2, m.rows)


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.ncols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m).vectors:
        assert all(x == 0 for x in times(m, vec))


@given(matrices(max_rows=3, max_cols=3))
def test_solve_round_trip(m):
    coords = [Fraction(1), Fraction(-2), Fraction(3)][: m.ncols]
    rhs = times(m, coords)
    sol = solve(m, rhs)
    assert sol is not None
    assert times(m, sol) == rhs


@given(matrices(max_rows=4, max_cols=6))
def test_kernel_basis_matches_dense_route(m):
    entries = [[row.get(j, 0) for j in range(m.ncols)] for row in m.rows]
    echelon = subspace(m.ncols, entries).rows
    vectors = []
    for free in (c for c in range(m.ncols) if c not in echelon):
        vec = [Fraction(0)] * m.ncols
        vec[free] = Fraction(1)
        for pc, row in echelon.items():
            vec[pc] = -row.get(free, Fraction(0))
        vectors.append(vec)
    assert kernel_basis(m) == subspace(m.ncols, vectors)


@given(st.data())
def test_quotient_dimension_containment_matches_rank(data):
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.one_of(st.just(Fraction(0)), rationals())
    vector = st.lists(entries, min_size=ncols, max_size=ncols)
    big_vectors = data.draw(st.lists(vector, max_size=3))
    # small: combinations of the big vectors, plus perhaps a stray vector
    combinations = data.draw(st.lists(st.lists(entries, min_size=3, max_size=3), max_size=2))
    small_vectors = [
        [sum((c * vec[j] for c, vec in zip(coeffs, big_vectors)), Fraction(0)) for j in range(ncols)]
        for coeffs in combinations
    ]
    small_vectors += data.draw(st.lists(vector, max_size=1))
    big = subspace(ncols, big_vectors)
    small = subspace(ncols, small_vectors)
    if rank(dense(big_vectors + small_vectors)) == big.dim:
        assert quotient_dimension(big, small) == big.dim - small.dim
    else:
        with pytest.raises(ContainmentError):
            quotient_dimension(big, small)


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals())


@given(st.data())
def test_echelon_matches_dense_gauss_jordan_in_any_row_order(data):
    nrows = data.draw(st.integers(min_value=1, max_value=5))
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    vector = st.lists(sparse_rationals, min_size=ncols, max_size=ncols)
    entries = data.draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    shuffled = dense([entries[i] for i in order])
    basis, pivots = fraction_rref(entries, ncols)

    spanned = subspace(ncols, [entries[i] for i in order])
    assert sorted(spanned.rows) == pivots
    assert [list(vec) for vec in spanned.vectors] == basis
    assert rank(shuffled) == len(pivots)

    assert [list(vec) for vec in kernel_basis(shuffled).vectors] == fraction_kernel(entries, ncols)

    if data.draw(st.booleans()):
        rhs = times(dense(entries), data.draw(vector))
    else:
        rhs = data.draw(st.lists(sparse_rationals, min_size=nrows, max_size=nrows))
    assert solve(shuffled, [rhs[i] for i in order]) == fraction_solve(entries, rhs, ncols)


def recomputed_index(echelon) -> dict:
    """Each non-pivot column -> the pivots whose rows hold it, read off
    the rows themselves."""
    index: dict = {}
    for pivot, row in echelon.items():
        for j in row:
            if j != pivot:
                index.setdefault(j, set()).add(pivot)
    return index


@given(st.data())
def test_echelon_index_follows_every_insert(data):
    # the column -> pivot-rows index must name exactly the rows holding
    # each column after every insert, in any row order; entries of 0 and
    # +-1 make clearing cancel entries, which the index must drop.  An
    # echelon made from given rows, and a basis's rows, keep no index and
    # refuse an insert that would need one
    nrows = data.draw(st.integers(min_value=1, max_value=7))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))), rationals())
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    entries = data.draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    basis, pivots = fraction_rref(entries, ncols)

    echelon = Echelon()
    for i in order:
        echelon.insert({j: x for j, x in enumerate(entries[i]) if x})
        assert echelon.holders == recomputed_index(echelon)
        assert not set(echelon.holders) & set(echelon)
    assert sorted(echelon) == pivots
    assert [[echelon[p].get(j, 0) for j in range(ncols)] for p in pivots] == basis

    built = Echelon({p: dict(row) for p, row in echelon.items()})
    assert built == echelon and built.holders == (None if built else {})
    finished = SubspaceBasis(ncols + 1, echelon)
    assert finished.rows == built and echelon.holders is None
    outside = {next(j for j in range(ncols + 1) if j not in echelon): Fraction(1)}
    for rows in (built, finished.rows) if built else (finished.rows,):
        with pytest.raises(AttributeError):
            rows.insert(dict(outside))


@given(st.data())
def test_kernel_basis_is_the_same_echelon_for_any_row_order(data):
    # kernel_basis inserts the rows shortest first; rows of mixed sparsity,
    # empty ones among them, must give one echelon whatever their order
    nrows = data.draw(st.integers(min_value=1, max_value=7))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    vector = st.lists(sparse_rationals, min_size=ncols, max_size=ncols)
    entries = data.draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    expected = kernel_basis(dense(entries))
    got = kernel_basis(dense([entries[i] for i in order]))
    assert got == expected
