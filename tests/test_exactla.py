from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import fraction_kernel, fraction_rref, fraction_solve, rationals, subspace
from pseudo.exactla import (
    ContainmentError,
    Echelon,
    SubspaceBasis,
    _SliceSpan,
    _peel,
    _rows,
    _taken,
    kernel,
    quotient_dimension,
    solve_columns,
)


def columns_of(rows, order=None):
    """The columns of the dense matrix ``rows``, each a dict from row
    number to nonzero entry; ``order`` is the order the rows are entered
    in, so the order row labels first appear in."""
    ncols = len(rows[0]) if rows else 0
    order = range(len(rows)) if order is None else order
    return [{i: Fraction(rows[i][j]) for i in order if rows[i][j]} for j in range(ncols)]


def times(rows, vec):
    return [sum((Fraction(v) * x for v, x in zip(row, vec)), Fraction(0)) for row in rows]


def rank(rows, ncols):
    return len(fraction_rref(rows, ncols)[1])


def target_of(rhs):
    return {i: b for i, b in enumerate(rhs) if b}


def matrices(max_rows=4, max_cols=4):
    """Dense matrices as lists of rows of rationals."""
    shape = st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    )
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(rationals(), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


def test_rref_example():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert subspace(3, rows).rows == {
        0: {0: Fraction(1), 2: Fraction(1)},
        1: {1: Fraction(1), 2: Fraction(1)},
    }
    assert kernel(columns_of(rows)).dim == 3 - 2


def test_kernel_and_image_example():
    rows = [[1, 2, 3], [2, 4, 6]]
    ker = kernel(columns_of(rows))
    assert ker.dim == 2
    for vec in ker.vectors:
        assert times(rows, vec) == [Fraction(0), Fraction(0)]
    assert solve_columns(columns_of(rows), target_of([1, 2])) is not None
    assert solve_columns(columns_of(rows), target_of([1, 0])) is None


def test_solve():
    rows = [[1, 1], [0, 1], [1, 0]]
    sol = solve_columns(columns_of(rows), target_of([3, 1, 2]))
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_columns(columns_of(rows), target_of([1, 1, 1])) is None


def test_quotient_dimension_and_containment():
    big = subspace(3, [[1, 0, 0], [0, 1, 0]])
    small = subspace(3, [[1, 1, 0]])
    assert quotient_dimension(big, small) == 1
    stranger = subspace(3, [[0, 0, 1]])
    with pytest.raises(ContainmentError):
        quotient_dimension(big, stranger)
    assert quotient_dimension(big, SubspaceBasis.zero(3)) == 2


def test_matrix_helpers():
    # columns become rows keyed by label; a zero entry and a label no
    # column reaches with a nonzero entry make no row
    columns = [{"b": 2, ("a", 1): Fraction(3, 2)}, {"b": 0, "c": Fraction(4, 2)}, {}]
    assert _rows(columns) == {"b": {0: 2}, ("a", 1): {0: Fraction(3, 2)}, "c": {1: 2}}
    assert type(_rows(columns)["c"][1]) is int
    assert times([[0, 1], [2, 0]], [Fraction(1), Fraction(3)]) == [Fraction(3), Fraction(2)]


def test_empty_and_zero_columns():
    assert kernel([]).dim == 0 and kernel([]).ambient_dimension == 0
    assert kernel([{}]).vectors == ((1,),)
    assert kernel([{0: 1}, {}, {0: 0}]).vectors == ((0, 1, 0), (0, 0, 1))
    assert solve_columns([], {}) == []
    assert solve_columns([{}], {}) == [0]
    # a target label that no column reaches is an inconsistent row
    assert solve_columns([], {"x": 1}) is None
    assert solve_columns([{"x": 1}, {"y": 2}], {"x": 1, "z": 1}) is None
    assert solve_columns([{"x": 1}, {"y": 2}], {"y": 1}) == [0, Fraction(1, 2)]


@given(matrices())
def test_rank_nullity(rows):
    ncols = len(rows[0])
    assert rank(rows, ncols) + kernel(columns_of(rows)).dim == ncols


@given(matrices())
def test_kernel_vectors_annihilate(rows):
    for vec in kernel(columns_of(rows)).vectors:
        assert all(x == 0 for x in times(rows, vec))


@given(matrices(max_rows=3, max_cols=3))
def test_solve_round_trip(rows):
    coords = [Fraction(1), Fraction(-2), Fraction(3)][: len(rows[0])]
    rhs = times(rows, coords)
    sol = solve_columns(columns_of(rows), target_of(rhs))
    assert sol is not None
    assert times(rows, sol) == rhs


@given(matrices(max_rows=4, max_cols=6))
def test_kernel_matches_dense_route(rows):
    ncols = len(rows[0])
    echelon = subspace(ncols, rows).rows
    vectors = []
    for free in (c for c in range(ncols) if c not in echelon):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for pc, row in echelon.items():
            vec[pc] = -row.get(free, Fraction(0))
        vectors.append(vec)
    assert kernel(columns_of(rows)) == subspace(ncols, vectors)


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
    if rank(big_vectors + small_vectors, ncols) == big.dim:
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
    basis, pivots = fraction_rref(entries, ncols)

    spanned = subspace(ncols, [entries[i] for i in order])
    assert sorted(spanned.rows) == pivots
    assert [list(vec) for vec in spanned.vectors] == basis

    # kernel and solve_columns take rows named by tuples, entered in the
    # drawn order, and the columns in a drawn order too: their answers are
    # the reference's on the matrix with its columns permuted the same way
    cols_in = data.draw(st.permutations(range(ncols)))
    label = [(i % 2, (i, "row")) for i in range(nrows)]
    columns = [{label[i]: entries[i][j] for i in order if entries[i][j]} for j in cols_in]
    permuted = [[row[j] for j in cols_in] for row in entries]
    assert [list(vec) for vec in kernel(columns).vectors] == fraction_kernel(permuted, ncols)

    if data.draw(st.booleans()):
        rhs = times(permuted, data.draw(vector))
    else:
        rhs = data.draw(st.lists(sparse_rationals, min_size=nrows, max_size=nrows))
    target = {label[i]: rhs[i] for i in order}  # zeros kept: the solve drops them
    assert solve_columns(columns, target) == fraction_solve(permuted, rhs, ncols)


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
    # echelon starts empty with its index, and a basis keeps only its rows
    nrows = data.draw(st.integers(min_value=1, max_value=7))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))), rationals())
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    entries = data.draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    basis, pivots = fraction_rref(entries, ncols)

    echelon = Echelon()
    for i in order:
        before = set(echelon)
        pivot = echelon.insert({j: x for j, x in enumerate(entries[i]) if x})
        # the new pivot, or None for a row already in the span
        assert set(echelon) - before == (set() if pivot is None else {pivot})
        assert echelon.holders == recomputed_index(echelon)
        assert not set(echelon.holders) & set(echelon)
    assert sorted(echelon) == pivots
    assert [[echelon[p].get(j, 0) for j in range(ncols)] for p in pivots] == basis

    # a basis keeps the rows alone, a plain dict without the index
    finished = subspace(ncols, entries)
    assert type(finished.rows) is dict and finished.rows == echelon
    assert Echelon() == {} and Echelon().holders == {}


def test_insert_returns_the_new_pivot():
    echelon = Echelon()
    assert echelon.insert({2: Fraction(3), 4: Fraction(1)}) == 2
    assert echelon.insert({1: Fraction(1), 2: Fraction(1)}) == 1
    assert echelon.insert({1: Fraction(2), 4: Fraction(-2, 3)}) is None
    assert echelon.insert({}) is None
    assert sorted(echelon) == [1, 2]


@given(st.data())
def test_slice_span_insert_reports_growth_of_the_intersection(data):
    # labels 0 .. size-1 are the slice, and any other label lies outside
    # it; an insert says True exactly when the intersection's basis grows,
    # and then by one row
    size = data.draw(st.integers(min_value=0, max_value=4))
    label = st.sampled_from([*range(size), "x", "y", "z"])
    entry = st.one_of(st.sampled_from((1, -1, 2)), rationals().filter(bool))
    images = data.draw(st.lists(st.dictionaries(label, entry, max_size=4), max_size=8))
    span = _SliceSpan(range(size))
    for image in images:
        before = span.basis().dim
        grew = span.insert(image)
        assert span.basis().dim == before + grew


@given(st.data())
def test_kernel_is_the_same_echelon_for_any_row_order(data):
    # kernel inserts the rows shortest first; rows of mixed sparsity,
    # empty ones among them, must give one echelon whatever order their
    # labels first appear in
    nrows = data.draw(st.integers(min_value=1, max_value=7))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    vector = st.lists(sparse_rationals, min_size=ncols, max_size=ncols)
    entries = data.draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    assert kernel(columns_of(entries, order)) == kernel(columns_of(entries))


def test_peel_reads_its_index_off_the_columns():
    # labels a and b each hold column 0 alone and e holds column 2 alone,
    # so the counts force both at once; the explicit 0s of column 1 at a
    # and column 3 at d are dropped on intake, so they neither count nor
    # match a row entry; rows are made of columns 1, 3 and 4 alone, where
    # c and d are left with column 1 (a cascade), and f is what remains
    columns = [
        {"a": 2, "b": -1, "c": 1},
        {"a": 0, "c": 3, "d": 1},
        {"c": 1, "d": 1, "e": 5},
        {"d": 0, "f": 1},
        {"f": -1},
    ]
    left, forced = _peel(_taken(columns))
    assert left == [{3: 1, 4: -1}]
    assert forced == {0, 1, 2}
    labels = "abcdef"
    dense = [[column.get(label, 0) for column in columns] for label in labels]
    assert [list(vec) for vec in kernel(columns).vectors] == fraction_kernel(dense, 5)
    assert fraction_kernel(dense, 5) == [[0, 0, 0, 1, 1]]


@given(st.data())
def test_kernel_peels_one_entry_rows_and_their_cascades(data):
    # one-entry rows force their columns to 0, and two-entry rows become
    # one-entry rows once a column is forced; the peeled kernel is the
    # textbook one, the forced columns are 0 in it and no row left to
    # eliminate holds one or has one entry
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    column = st.integers(min_value=0, max_value=ncols - 1)
    nonzero = rationals().filter(bool)
    single = st.builds(lambda j, x: {j: x}, column, nonzero)
    pair = st.builds(lambda i, j, x, y: {i: x, j: y}, column, column, nonzero, nonzero)
    dense = st.lists(sparse_rationals, min_size=ncols, max_size=ncols).map(
        lambda vec: {j: x for j, x in enumerate(vec) if x}
    )
    rows = data.draw(st.lists(st.one_of(single, pair, pair, dense), min_size=1, max_size=9))
    entries = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    got = kernel(columns_of(entries))
    assert [list(vec) for vec in got.vectors] == fraction_kernel(entries, ncols)
    columns = columns_of(entries)
    left, forced = _peel(_taken(columns))
    assert all(len(row) > 1 and forced.isdisjoint(row) for row in left)
    assert all(vec[j] == 0 for vec in got.vectors for j in forced)


@given(st.data())
def test_kernel_reads_its_sparsest_first_numbering_back(data):
    # kernel numbers the columns sparsest first and reads each vector back
    # in the caller's numbering: columns of every density, empty ones and
    # ones a one-entry row forces to 0 among them, give the textbook
    # kernel, and the kernel of the columns in any order, mapped back, is
    # the same subspace
    nrows = data.draw(st.integers(min_value=1, max_value=6))
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    nonzero = rationals().filter(bool)
    column = st.dictionaries(st.integers(0, nrows - 1), nonzero, max_size=nrows)
    columns = data.draw(st.lists(column, min_size=ncols, max_size=ncols))
    # each row ("single", k) holds one entry, so it forces its column to 0
    for k, j in enumerate(data.draw(st.lists(st.integers(0, ncols - 1), max_size=2))):
        columns[j][("single", k)] = data.draw(nonzero)
    labels = list(dict.fromkeys(label for col in columns for label in col))
    dense = [[col.get(label, 0) for col in columns] for label in labels]
    got = kernel(columns)
    assert [list(vec) for vec in got.vectors] == fraction_kernel(dense, ncols)

    perm = data.draw(st.permutations(range(ncols)))
    mapped = []
    for vec in kernel([columns[j] for j in perm]).vectors:
        back = [0] * ncols
        for i, x in enumerate(vec):
            back[perm[i]] = x  # column i of the permuted map is column perm[i]
        mapped.append(back)
    assert subspace(ncols, mapped) == got


@given(st.data())
def test_slice_span_is_the_same_in_any_insert_order(data):
    # most labels lie outside the slice, so most rows are kept
    # forward-reduced only; the images in two drawn orders give one basis,
    # the in-slice rows of the RREF with every outside column first, and
    # the same number of inserts that report growth
    size = data.draw(st.integers(min_value=0, max_value=3))
    outside = ["x", "y", "z", ("w", 1), "v"]
    label = st.sampled_from([*range(size), *outside, *outside])
    entry = st.one_of(st.sampled_from((1, -1, 2)), rationals().filter(bool))
    images = data.draw(st.lists(st.dictionaries(label, entry, max_size=5), max_size=8))
    readings = []
    for order in (data.draw(st.permutations(images)), data.draw(st.permutations(images))):
        span = _SliceSpan(range(size))
        grew = sum(span.insert(image) for image in order)
        readings.append((span.basis(), grew))
    assert readings[0] == readings[1]

    columns = [*outside, *range(size)]
    dense = [[image.get(label, 0) for label in columns] for image in images]
    basis, pivots = fraction_rref(dense, len(columns))
    inside = [row[len(outside):] for row, pivot in zip(basis, pivots) if pivot >= len(outside)]
    assert [list(vec) for vec in readings[0][0].vectors] == inside
    assert readings[0][1] == len(inside)


def test_slice_span_subtracts_outside_rows_without_reducing_them():
    # x and y lie outside the slice and take columns -1 and -2; the row
    # led by y keeps its x entry, and an image reaches the slice, or
    # cancels, only after both outside rows are subtracted from it
    span = _SliceSpan(["a", "b"])
    assert span.insert({"x": 1}) is False
    assert span.insert({"x": 2, "y": 1}) is False
    assert span.insert({"y": 3, "a": 1}) is True  # 3y + a - 3(y + 2x) + 6x = a
    assert span.insert({"y": 1, "x": 5, "a": 4}) is False  # reduces to 4a
    assert span.insert({"y": 2, "x": 4}) is False  # twice the row led by y
    assert span.insert({}) is False
    assert span.outside == {-1: {-1: 1}, -2: {-2: 1, -1: 2}}
    assert span.basis() == SubspaceBasis(2, {0: {0: 1}})


@given(st.data())
def test_kernel_seeded_with_known_null_vectors_is_the_textbook_kernel(data):
    # known rows, the RREF of drawn combinations of the true kernel's
    # basis, only drop their pivot columns from the elimination: any part
    # of the kernel, none or all of it, gives the textbook kernel.  A
    # known span that also holds a vector the columns do not send to 0 is
    # refused
    nrows = data.draw(st.integers(min_value=1, max_value=6))
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    nonzero = rationals().filter(bool)
    column = st.dictionaries(st.integers(0, nrows - 1), nonzero, max_size=nrows)
    columns = data.draw(st.lists(column, min_size=ncols, max_size=ncols))
    # each row ("single", k) holds one entry, so the peel forces its column
    for k, j in enumerate(data.draw(st.lists(st.integers(0, ncols - 1), max_size=2))):
        columns[j][("single", k)] = data.draw(nonzero)
    labels = list(dict.fromkeys(label for col in columns for label in col))
    dense = [[col.get(label, 0) for col in columns] for label in labels]
    expected = fraction_kernel(dense, ncols)
    size = len(expected)
    combination = st.lists(sparse_rationals, min_size=size, max_size=size)
    combinations = data.draw(st.lists(combination, max_size=size + 1))
    vectors = [[sum((c * vec[j] for c, vec in zip(coeffs, expected)), Fraction(0))
                for j in range(ncols)] for coeffs in combinations]
    known = subspace(ncols, vectors).rows
    assert [list(vec) for vec in kernel(columns, known).vectors] == expected
    assert [list(vec) for vec in kernel(columns, subspace(ncols, expected).rows).vectors] == expected

    stray = data.draw(st.lists(sparse_rationals, min_size=ncols, max_size=ncols))
    if any(times(dense, stray)):
        with pytest.raises(ContainmentError):
            kernel(columns, subspace(ncols, [*vectors, stray]).rows)


def test_kernel_refuses_a_known_row_it_does_not_send_to_zero():
    columns = [{"a": 1}, {"a": 1}, {"b": 2}]
    assert kernel(columns, {0: {0: 1, 1: -1}}).vectors == ((1, -1, 0),)
    with pytest.raises(ContainmentError):
        kernel(columns, {0: {0: 1, 1: -1}, 2: {2: 1}})
    with pytest.raises(ContainmentError):
        kernel(columns, {0: {0: 1, 1: 1}})


def test_kernel_returns_no_row_of_its_caller():
    # a slice span clears a new pivot from its echelon rows in place, so a
    # kernel seeded with them must hand back rows of its own: when the
    # peel forces every column off the known pivot (a, b) and when column
    # 2, which no row holds, is free
    for columns, free in [([{"a": 1}, {"a": 1}, {"b": 2}], ()),
                          ([{"a": 1}, {"a": 1}, {}], ((0, 0, 1),))]:
        span = _SliceSpan(range(3))
        span.insert({0: 1, 1: -1})
        known = span.echelon
        got = kernel(columns, known)
        assert got.vectors == ((1, -1, 0), *free)
        assert all(row is not known[pivot] for pivot, row in got.rows.items() if pivot in known)
        span.insert({1: 1})  # clears column 1 from the row at pivot 0
        assert known[0] == {0: 1}
        assert got.vectors == ((1, -1, 0), *free)
