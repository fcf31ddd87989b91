"""Exact linear algebra over the rationals.

A linear map comes in as its columns, one per unknown: each a sparse
dict from row label (any hashable, such as a term of a cochain or of a
family of maps) to entry.  ``kernel`` and ``solve_columns`` take nothing
else, and ``_rows`` alone turns the columns into sparse rows (dict
column number -> nonzero entry).  Entries take the coefficient form
of ``pseudo.polyring``: an ``int`` when integral, otherwise a reduced
``Fraction`` with denominator above 1, never a float.  ``polyring._coeff``
takes each entry in, in ``_taken`` for the kernel (which then builds
rows of only some columns) and in ``_rows`` for ``solve_columns``, and
normalizes every sum; ``polyring._quotient``, the one division, scales
a new echelon row to 1 at its pivot.

Every elimination goes through one sparse echelon (``Echelon``): a dict
from pivot column to a row that is 1 at its pivot, its smallest column,
and 0 at every other pivot column.  Such rows are the reduced row echelon
basis of their span, which is unique, so the order rows are inserted in
never shows in a result and equality of subspaces is plain equality of
their echelons.  Everything is exact: no pivot is ever chosen for
numerical reasons.  The echelon also indexes its rows by column (the
pivot bookkeeping of Dumas and Villard, here over Q), so a new pivot
is cleared from just the rows that hold its column rather than from
every stored row.  ``kernel`` can be handed RREF rows already known to
lie in the null space (a cocycle slice is seeded with coboundaries);
it checks each and sets their pivot columns aside.  It numbers the
other columns sparsest first and peels off those that one-entry rows
force to 0: the first generation is read off label counts, with no row
built, rows are made of the columns left, and the cascade reads the
columns as its column -> rows index.  Only what remains is eliminated.
``_SliceSpan`` keeps fully reduced only the rows that lie in its slice
and forward-reduces the rows that lead outside it; the lead convention
(smallest column) is what makes that exact, hence it lives here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .polyring import _coeff, _frozen, _quotient


class ContainmentError(ValueError):
    """A claimed subspace inclusion failed; callers treat this as a bug."""


def _reduce(rows: Mapping[int, dict], row: dict[int, int | Fraction]) -> dict:
    """Subtract from ``row``, in place, its part along the pivot rows ``rows``.

    One pass over the pivot columns ``row`` holds suffices: a pivot row
    is 0 at every other pivot column, so no subtraction changes another
    pivot entry of ``row``.  The result is 0 iff ``row`` lay in the span.
    """
    for col in [c for c in row if c in rows]:
        _subtract(row, row[col], rows[col])
    return row


class Echelon(dict):
    """Pivot column -> sparse row, kept fully reduced (see module docstring).

    It starts empty and grows by ``insert``.  Columns are any integers;
    callers that want some columns eliminated before others number those
    lower.  ``holders`` indexes the rows by the columns they hold: it maps
    each non-pivot column to the set of pivots whose rows are nonzero
    there, and a column no row holds has no entry.  A new pivot then
    clears only the rows the index names, not every stored row.  The
    index costs one set entry per off-pivot entry of the rows and takes
    no part in ``==``.
    """

    def __init__(self):
        super().__init__()
        self.holders: dict[int, set[int]] = {}

    def insert(self, row: dict[int, int | Fraction]) -> int | None:
        """Add ``row`` (consumed) to the span; return its new pivot column,
        or None when it reduces to 0.

        The reduced row, unless 0, is scaled to 1 at its smallest column,
        which then is cleared from the rows that ``holders`` says hold it;
        the index follows each entry those subtractions create or cancel.
        No other row's lead moves: a row holding the new lead leads below it.
        """
        row = _reduce(self, row)
        if not row:
            return None
        lead = min(row)
        piv = row[lead]
        if piv != 1:
            row = {j: _quotient(v, piv) for j, v in row.items()}
        # the reduced row is 0 at every pivot, so each column it holds but
        # its lead is a non-pivot column; indexed first, such a column's
        # set keeps the new pivot and never empties in the loop below
        holders = self.holders
        for j in row:
            if j != lead:
                holders.setdefault(j, set()).add(lead)
        for pivot in holders.pop(lead, ()):
            other = self[pivot]
            factor = other.pop(lead)
            for j, v in row.items():
                if j == lead:
                    continue
                if j in other:
                    acc = other[j] - factor * v
                    if acc:
                        other[j] = acc if type(acc) is int else _coeff(acc)
                    else:
                        del other[j]
                        holders[j].discard(pivot)
                else:
                    acc = -factor * v
                    other[j] = acc if type(acc) is int else _coeff(acc)
                    holders[j].add(pivot)
        self[lead] = row
        return lead


def _subtract(
    target: dict[int, int | Fraction], factor: int | Fraction, row: dict[int, int | Fraction]
) -> None:
    """target -= factor * row, in place, keeping only nonzero entries."""
    for j, v in row.items():
        acc = target.get(j, 0) - factor * v
        if acc:
            target[j] = acc if type(acc) is int else _coeff(acc)
        else:
            del target[j]


def _span(rows: Iterable[dict[int, int | Fraction]]) -> dict[int, dict]:
    """The RREF rows of the span of ``rows`` (each consumed), pivot column
    -> row: the echelon's rows, without the index that built them."""
    echelon = Echelon()
    for row in rows:
        echelon.insert(row)
    return dict(echelon)


@_frozen
class SubspaceBasis:
    """Subspace of Q^n held as its RREF basis rows, pivot column -> row."""

    ambient_dimension: int
    rows: dict[int, dict[int, int | Fraction]]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The basis rows as dense tuples, in pivot order."""
        return tuple(
            tuple(self.rows[p].get(j, 0) for j in range(self.ambient_dimension))
            for p in sorted(self.rows)
        )

    @classmethod
    def zero(cls, ambient_dimension: int) -> "SubspaceBasis":
        return cls(ambient_dimension, {})


def _rows(columns: Sequence[Mapping]) -> dict:
    """Row label -> {column number: entry} of sparse columns keyed by row
    labels: the one place columns become rows.

    Each entry is taken in through ``polyring._coeff`` (a nonzero int is
    already in the coefficient form), so a float is refused, and a zero is
    dropped, so it never becomes a pivot; a label no column reaches with a
    nonzero entry gets no row.
    """
    rows: dict = {}
    for col, column in enumerate(columns):
        for label, v in column.items():
            if type(v) is not int:
                v = _coeff(v)
            if v:
                row = rows.get(label)
                if row is None:
                    rows[label] = {col: v}
                else:
                    row[col] = v
    return rows


def _taken(columns: Sequence[dict]) -> Sequence[dict]:
    """The kernel's intake: ``columns`` with every entry in the coefficient
    form and no zero entry.

    The entries are gathered in one scan, and their types read off them.
    When all are nonzero ints the columns come back as they are, not
    copied; otherwise every entry is taken in through ``polyring._coeff``,
    which refuses an inexact one, and the zeros are dropped.  A label's
    entries are then its nonzero entries, so an explicit 0 neither counts
    towards a label nor becomes a pivot.
    """
    entries = list(chain.from_iterable(map(dict.values, columns)))
    if set(map(type, entries)) - {int} or not all(entries):
        taken = []
        for column in columns:
            kept = {}
            for label, v in column.items():
                v = _coeff(v)
                if v:
                    kept[label] = v
            taken.append(kept)
        return taken
    return columns


def _peel(columns: Sequence[dict]) -> tuple[list[dict], set[int]]:
    """The singleton peel of structured Gaussian elimination (LaMacchia
    and Odlyzko): a row with one entry forces its column to 0 in every
    kernel vector.  ``columns`` are taken (``_taken``), so a label's count
    over the columns is the number of entries of its row.  The first
    generation is read off those counts: every column that holds a label
    of count 1 is forced at once, and no row is built for it.  ``_rows``
    then makes rows of the held columns alone (a forced one stands in as
    empty, so the numbering is kept), and the cascade runs on them: the
    columns are the index, a forced column is deleted (in place) from
    just the rows its labels name, and a row left with one entry goes on
    the stack of rows to peel.  Returns the nonempty rows that remain and
    the forced columns, which none of them holds."""
    count = Counter(chain.from_iterable(columns))
    forced = {j for j, column in enumerate(columns) if 1 in map(count.__getitem__, column)}
    rows = _rows([{} if j in forced else column for j, column in enumerate(columns)])
    stack = [row for row in rows.values() if len(row) == 1]
    while stack:
        row = stack.pop()
        if not row:  # its column was forced since it was stacked
            continue
        (j,) = row
        forced.add(j)
        for label in columns[j]:
            other = rows.get(label)
            # entries are nonzero, so a pop that finds j returns truth
            if other and other.pop(j, 0) and len(other) == 1:
                stack.append(other)
    return [row for row in rows.values() if row], forced


def kernel(columns: Sequence[dict], known: Mapping[int, Mapping] = {}) -> SubspaceBasis:
    """Null space of the map with these columns, as an RREF basis of
    Q^len(columns).

    The columns are taken in first (``_taken``): every entry is checked
    and normalized, forced columns' included, and zeros are dropped.
    ``known`` (only read) holds the RREF rows, pivot column -> row, of a
    subspace the caller claims lies in the null space; a known row the
    columns do not send to 0 raises ContainmentError.  Subtracting known
    rows makes a null vector 0 at every known pivot, so the null space is
    the known span plus the null space of the other columns alone, and
    only those are numbered, peeled and eliminated.  They are numbered
    sparsest first, a stable sort on their lengths (Markowitz's rule: a
    pivot on a sparse column fills in little), so the fill does not
    depend on the order the caller lists its unknowns in.  The singleton
    peel (``_peel``) then sets aside every column a one-entry row forces
    to 0, reading its first generation off label counts, and only the
    rows that remain are eliminated, shortest first (a short pivot row
    adds few entries to the rows it clears).  Each free column f, neither
    a pivot nor forced, gives the vector e_f minus the f-entries of the
    pivot rows placed at their pivots, read back in the caller's
    numbering.  The basis is the RREF of the known rows and those
    vectors, which is unique, so no order ever shows; when no column off
    the known pivots is free it is copies of the known rows.  No row of
    the result is one of the caller's.
    """
    columns = _taken(columns)
    for row in known.values():
        image: dict = {}
        for j, v in row.items():
            for label, c in columns[j].items():
                image[label] = image.get(label, 0) + v * c
        if any(image.values()):
            raise ContainmentError("a row claimed to lie in the kernel is not sent to 0")
    rest = sorted((j for j in range(len(columns)) if j not in known), key=lambda j: len(columns[j]))
    rows, forced = _peel([columns[j] for j in rest])
    echelon = _span(sorted(rows, key=len))
    found = {f: {rest[f]: 1} for f in range(len(rest)) if f not in echelon and f not in forced}
    for pivot, row in echelon.items():
        at = rest[pivot]
        for j, v in row.items():
            if j != pivot:
                found[j][at] = -v
    basis = {p: dict(row) for p, row in known.items()}
    if found:
        basis = _span([*basis.values(), *found.values()])
    return SubspaceBasis(len(columns), basis)


def solve_columns(columns: Sequence[Mapping], target: Mapping) -> list[int | Fraction] | None:
    """One exact solution x of sum_j x_j * columns[j] = target, or None if
    there is none; columns and target are sparse, keyed by row labels.

    The target rides as column len(columns), and the solution is read off
    the unique RREF of the augmented rows, so no row order shows; free
    unknowns are 0.  A target label that no column reaches leaves an
    inconsistent row.
    """
    ncols = len(columns)
    echelon = _span(_rows([*columns, target]).values())
    if ncols in echelon:
        return None
    solution = [0] * ncols
    for pivot, row in echelon.items():
        solution[pivot] = row.get(ncols, 0)
    return solution


class _SliceSpan:
    """The span of the images inserted so far, intersected with a slice.

    Slice label j is column j; every other label gets a negative column
    (-1, -2, ...) as it first appears.  A row leads with its smallest
    column, and one whose lead is negative is only forward-reduced: it
    is kept in ``outside``, lead -> row scaled to 1 there, and no later
    pivot is ever cleared from it.  A row with no negative column goes
    into the fully reduced ``echelon``.  The outside rows and the echelon
    rows together are a triangular basis of the span, so a combination of
    them with no entry outside the slice gives its smallest negative lead
    a coefficient of 0 (no other row holds that column): the echelon rows
    alone span the intersection, and they are its RREF basis, already in
    slice coordinates.  An image adds a row to the intersection exactly
    when it reaches the echelon and does not reduce to 0 there.
    """

    def __init__(self, slice_labels: Sequence):
        self.size = len(slice_labels)
        self.position = {label: j for j, label in enumerate(slice_labels)}
        self.outside: dict[int, dict] = {}
        self.echelon = Echelon()

    def insert(self, image: Mapping) -> bool:
        """Insert ``image``; True exactly when the intersection grows."""
        position = self.position
        row = {}
        for label, coeff in image.items():
            if label not in position:
                position[label] = self.size - len(position) - 1
            row[position[label]] = coeff
        outside = self.outside
        while row:
            lead = min(row)
            if lead >= 0:
                return self.echelon.insert(row) is not None
            known = outside.get(lead)
            if known is None:
                piv = row[lead]
                outside[lead] = row if piv == 1 else {j: _quotient(v, piv) for j, v in row.items()}
                return False
            _subtract(row, row[lead], known)
        return False

    def basis(self) -> SubspaceBasis:
        return SubspaceBasis(self.size, {p: dict(row) for p, row in self.echelon.items()})


def quotient_dimension(big: SubspaceBasis, small: SubspaceBasis) -> int:
    """dim(big) - dim(small), after verifying small really sits inside big."""
    if big.ambient_dimension != small.ambient_dimension:
        raise ValueError("ambient dimensions differ")
    for row in small.rows.values():
        if _reduce(big.rows, dict(row)):
            raise ContainmentError("claimed subspace is not contained in the larger one")
    return big.dim - small.dim
