"""Exact linear algebra over the rationals.

Matrices keep sparse rows (dict column -> Fraction); subspace bases are
kept in reduced row echelon form so that equality of subspaces is plain
structural equality of their bases.  Everything is exact: no pivots are
ever chosen for numerical reasons, only for determinism (lowest row with a
nonzero entry in the leftmost unfinished column).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)


class ContainmentError(ValueError):
    """A claimed subspace inclusion failed; callers treat this as a bug."""


class QMatrix:
    """Rational matrix with sparse rows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[dict[int, Fraction]] | None = None):
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence]) -> "QMatrix":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            rows.append({j: Fraction(v) for j, v in enumerate(row) if Fraction(v)})
        return cls(nrows, ncols, rows)

    def entry(self, r: int, c: int) -> Fraction:
        return self.rows[r].get(c, _ZERO)

    def matvec(self, vec: Sequence) -> list[Fraction]:
        out = []
        for row in self.rows:
            acc = _ZERO
            for j, v in row.items():
                acc += v * Fraction(vec[j])
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )


def _rref_rows(rows: list[dict[int, Fraction]], ncols: int) -> tuple[list[dict[int, Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    target = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(target, len(rows)):
            if rows[i].get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[target], rows[pivot_row] = rows[pivot_row], rows[target]
        piv = rows[target][col]
        if piv != 1:
            rows[target] = {j: v / piv for j, v in rows[target].items()}
        prow = rows[target]
        for i in range(len(rows)):
            if i == target:
                continue
            factor = rows[i].get(col)
            if factor:
                ri = rows[i]
                for j, v in prow.items():
                    acc = ri.get(j, _ZERO) - factor * v
                    if acc:
                        ri[j] = acc
                    else:
                        ri.pop(j, None)
        pivots.append(col)
        target += 1
        if target == len(rows):
            break
    return rows, pivots


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    rows = [dict(r) for r in m.rows]
    rows, pivots = _rref_rows(rows, m.ncols)
    return QMatrix(m.nrows, m.ncols, rows), pivots


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


@dataclass(frozen=True)
class SubspaceBasis:
    """Subspace of Q^n held as RREF basis rows (tuples of Fractions)."""

    ambient_dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_vectors(cls, ambient_dimension: int, vectors: Iterable[Sequence]) -> "SubspaceBasis":
        rows = []
        for vec in vectors:
            vec = list(vec)
            if len(vec) != ambient_dimension:
                raise ValueError("vector length does not match ambient dimension")
            rows.append({j: Fraction(v) for j, v in enumerate(vec) if Fraction(v)})
        return cls._from_rows(ambient_dimension, rows)

    @classmethod
    def _from_rows(
        cls, ambient_dimension: int, rows: list[dict[int, Fraction]]
    ) -> "SubspaceBasis":
        """Span of sparse rows (column -> nonzero Fraction, columns below
        ambient_dimension); the rows are reduced in place."""
        rows, pivots = _rref_rows(rows, ambient_dimension)
        basis = tuple(
            tuple(rows[i].get(j, _ZERO) for j in range(ambient_dimension))
            for i in range(len(pivots))
        )
        return cls(ambient_dimension, basis)

    @classmethod
    def zero(cls, ambient_dimension: int) -> "SubspaceBasis":
        return cls(ambient_dimension, ())

    def contains(self, vec: Sequence) -> bool:
        return self._membership()(vec)

    def _membership(self):
        """A membership test for this subspace; each basis vector's nonzero
        entries, lead first, are found once here rather than per call."""
        rows = [[(j, v) for j, v in enumerate(vec) if v] for vec in self.vectors]
        rows = [row for row in rows if row]

        def contains(vec: Sequence) -> bool:
            residue = [Fraction(v) for v in vec]
            if len(residue) != self.ambient_dimension:
                raise ValueError("vector length does not match ambient dimension")
            for row in rows:
                factor = residue[row[0][0]]
                if factor:
                    for j, v in row:
                        residue[j] -= factor * v
            return not any(residue)

        return contains


def kernel_basis(m: QMatrix) -> SubspaceBasis:
    """Null space of m, as an RREF basis of Q^ncols."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    vectors = []
    for free in free_cols:
        vec = {free: Fraction(1)}
        for row_idx, pc in enumerate(pivots):
            entry = reduced.rows[row_idx].get(free)
            if entry:
                vec[pc] = -entry
        vectors.append(vec)
    return SubspaceBasis._from_rows(m.ncols, vectors)


def solve(m: QMatrix, rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of m @ x = rhs, or None if inconsistent."""
    rhs = [Fraction(v) for v in rhs]
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    rows = []
    for i, row in enumerate(m.rows):
        r = dict(row)
        if rhs[i]:
            r[m.ncols] = rhs[i]
        rows.append(r)
    rows, pivots = _rref_rows(rows, m.ncols + 1)
    if m.ncols in pivots:
        return None
    solution = [_ZERO] * m.ncols
    for row_idx, pc in enumerate(pivots):
        solution[pc] = rows[row_idx].get(m.ncols, _ZERO)
    return solution


def quotient_dimension(big: SubspaceBasis, small: SubspaceBasis) -> int:
    """dim(big) - dim(small), after verifying small really sits inside big."""
    if big.ambient_dimension != small.ambient_dimension:
        raise ValueError("ambient dimensions differ")
    contains = big._membership()
    for vec in small.vectors:
        if not contains(vec):
            raise ContainmentError("claimed subspace is not contained in the larger one")
    return big.dim - small.dim
