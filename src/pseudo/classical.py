"""Finite-dimensional associative algebras and their bar-complex cohomology.

This is the classical, non-conformal theory over the rationals.  It exists
as an independent cross-check: a finite-dimensional algebra embeds as the
constant-coefficient part of its current conformal algebra, and low-degree
dimensions computed here must line up with the conformal computations.

Cochains in degree n are arbitrary multilinear maps A^n -> M, stored as
dense coordinate tensors.  The differential is

    (d phi)(a_1, ..., a_{n+1}) = a_1 phi(a_2, ..., a_{n+1})
      + sum_i (-1)^i phi(..., a_i a_{i+1}, ...)
      + (-1)^{n+1} phi(a_1, ..., a_n) a_{n+1}

Everything is exact; dimensions are ranks of explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence

from .conformal import PRODUCT_VARS, ConformalAlgebra
from .exactla import QMatrix, SubspaceBasis, kernel_basis, rank
from .polyring import Poly

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]


def _freeze3(data) -> Tensor3:
    return tuple(
        tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in data
    )


@dataclass(frozen=True)
class FDAlgebra:
    """Finite-dimensional algebra by structure constants.

    ``constants[i][j][k]`` is the coefficient of basis vector k in the
    product of basis vectors i and j.  ``unit`` gives the coordinates of a
    two-sided identity when the algebra has one.
    """

    basis_names: tuple[str, ...]
    constants: Tensor3
    unit: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        n = len(self.basis_names)
        if len(set(self.basis_names)) != n:
            raise ValueError("duplicate basis names")
        frozen = _freeze3(self.constants)
        if len(frozen) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in frozen
        ):
            raise ValueError("structure constants must be an n*n*n tensor")
        object.__setattr__(self, "constants", frozen)
        if self.unit is not None:
            u = tuple(Fraction(x) for x in self.unit)
            if len(u) != n:
                raise ValueError("unit has wrong length")
            object.__setattr__(self, "unit", u)
            for j in range(n):
                left = self.multiply(u, self._basis_vector(j))
                right = self.multiply(self._basis_vector(j), u)
                if left != self._basis_vector(j) or right != self._basis_vector(j):
                    raise ValueError("claimed unit is not an identity")

    @property
    def dimension(self) -> int:
        return len(self.basis_names)

    def _basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(1) if k == i else Fraction(0) for k in range(self.dimension)
        )

    def multiply(self, a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
        n = self.dimension
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            ai = Fraction(ai)
            if not ai:
                continue
            for j, bj in enumerate(b):
                bj = Fraction(bj)
                if not bj:
                    continue
                row = self.constants[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += ai * bj * row[k]
        return tuple(out)


def is_associative(algebra: FDAlgebra) -> bool:
    n = algebra.dimension
    c = algebra.constants
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = sum(c[i][j][l] * c[l][k][m] for l in range(n))
                    rhs = sum(c[j][k][l] * c[i][l][m] for l in range(n))
                    if lhs != rhs:
                        return False
    return True


# -- standard examples ------------------------------------------------


def matrix_algebra(size: int) -> FDAlgebra:
    """Full matrix algebra with basis the matrix units, row-major."""
    if size < 1:
        raise ValueError("size must be positive")
    names = tuple(f"e{p + 1}{q + 1}" for p in range(size) for q in range(size))
    n = size * size
    idx = lambda p, q: p * size + q
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(size):
        for q in range(size):
            for r in range(size):
                for s in range(size):
                    if q == r:
                        constants[idx(p, q)][idx(r, s)][idx(p, s)] = Fraction(1)
    unit = [Fraction(0)] * n
    for p in range(size):
        unit[idx(p, p)] = Fraction(1)
    return FDAlgebra(names, _freeze3(constants), tuple(unit))


# -- bimodules ---------------------------------------------------------


@dataclass(frozen=True)
class FDBimodule:
    """Left and right action tensors over an FDAlgebra.

    ``left[i][t][s]``: coefficient of u_s in e_i . u_t.
    ``right[t][i][s]``: coefficient of u_s in u_t . e_i.
    """

    algebra: FDAlgebra
    basis_names: tuple[str, ...]
    left: Tensor3
    right: Tensor3

    def __post_init__(self):
        na = self.algebra.dimension
        nm = len(self.basis_names)
        left = _freeze3(self.left)
        right = _freeze3(self.right)
        if len(left) != na or any(
            len(plane) != nm or any(len(row) != nm for row in plane) for plane in left
        ):
            raise ValueError("left tensor must be na*nm*nm")
        if len(right) != nm or any(
            len(plane) != na or any(len(row) != nm for row in plane) for plane in right
        ):
            raise ValueError("right tensor must be nm*na*nm")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def dimension(self) -> int:
        return len(self.basis_names)

    def act_left(self, i: int, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        nm = self.dimension
        out = [Fraction(0)] * nm
        for t, x in enumerate(vec):
            if x:
                for s in range(nm):
                    if self.left[i][t][s]:
                        out[s] += x * self.left[i][t][s]
        return tuple(out)

    def act_right(self, vec: Sequence[Fraction], i: int) -> tuple[Fraction, ...]:
        nm = self.dimension
        out = [Fraction(0)] * nm
        for t, x in enumerate(vec):
            if x:
                for s in range(nm):
                    if self.right[t][i][s]:
                        out[s] += x * self.right[t][i][s]
        return tuple(out)


def regular_bimodule(algebra: FDAlgebra) -> FDBimodule:
    n = algebra.dimension
    c = algebra.constants
    left = tuple(
        tuple(tuple(c[i][t][s] for s in range(n)) for t in range(n)) for i in range(n)
    )
    right = tuple(
        tuple(tuple(c[t][i][s] for s in range(n)) for i in range(n)) for t in range(n)
    )
    return FDBimodule(algebra, algebra.basis_names, left, right)


# -- bar complex -------------------------------------------------------


def _bar_matrix(algebra: FDAlgebra, module: FDBimodule, degree: int) -> QMatrix:
    """Matrix of d_n: C^n -> C^{n+1} in the basis-tuple coordinates.

    A cochain in C^n is a map from basis n-tuples to module coordinates;
    coordinates are indexed by (tuple, module basis vector), tuples in
    lexicographic order.
    """
    na = algebra.dimension
    nm = module.dimension
    src_tuples = list(iter_product(range(na), repeat=degree))
    dst_tuples = list(iter_product(range(na), repeat=degree + 1))
    src_pos = {(tup, s): p for p, (tup, s) in enumerate(
        (t, s) for t in src_tuples for s in range(nm)
    )}
    rows: list[dict[int, Fraction]] = [
        dict() for _ in range(len(dst_tuples) * nm)
    ]
    c = algebra.constants
    for d_idx, tup in enumerate(dst_tuples):
        base = d_idx * nm
        # a_1 . phi(rest)
        for t in range(nm):
            col = src_pos[(tup[1:], t)]
            unit = [Fraction(0)] * nm
            unit[t] = Fraction(1)
            for s, x in enumerate(module.act_left(tup[0], unit)):
                if x:
                    rows[base + s][col] = rows[base + s].get(col, Fraction(0)) + x
        # interior contractions
        for i in range(1, degree + 1):
            sign = Fraction(-1 if i % 2 else 1)
            for l in range(na):
                coeff = c[tup[i - 1]][tup[i]][l]
                if not coeff:
                    continue
                merged = tup[: i - 1] + (l,) + tup[i + 1 :]
                for s in range(nm):
                    col = src_pos[(merged, s)]
                    rows[base + s][col] = (
                        rows[base + s].get(col, Fraction(0)) + sign * coeff
                    )
        # phi(front) . a_{n+1}
        sign = Fraction(1 if (degree + 1) % 2 == 0 else -1)
        for t in range(nm):
            col = src_pos[(tup[:degree], t)]
            unit = [Fraction(0)] * nm
            unit[t] = Fraction(1)
            for s, x in enumerate(module.act_right(unit, tup[degree])):
                if x:
                    rows[base + s][col] = rows[base + s].get(col, Fraction(0)) + sign * x
        for r in range(base, base + nm):
            rows[r] = {k: v for k, v in rows[r].items() if v}
    return QMatrix(len(dst_tuples) * nm, len(src_tuples) * nm, rows)


def hochschild_dimension(
    algebra: FDAlgebra, module: FDBimodule, degree: int
) -> int:
    """dim HH^degree with the given coefficients; exact, degree <= 3."""
    if not 0 <= degree <= 3:
        raise ValueError("only degrees 0..3 are supported")
    if module.algebra != algebra:
        raise ValueError("module is over a different algebra")
    d_n = _bar_matrix(algebra, module, degree)
    dim_z = kernel_basis(d_n).dim
    if degree == 0:
        return dim_z
    d_prev = _bar_matrix(algebra, module, degree - 1)
    dim_b = rank(d_prev)
    return dim_z - dim_b


def center_dimension(algebra: FDAlgebra) -> int:
    """dim of the commutant {z : za = az for all a}; independent of the
    bar complex, so it cross-checks HH^0 with regular coefficients."""
    n = algebra.dimension
    c = algebra.constants
    rows: list[dict[int, Fraction]] = []
    for a in range(n):
        for k in range(n):
            row: dict[int, Fraction] = {}
            for z in range(n):
                val = c[z][a][k] - c[a][z][k]
                if val:
                    row[z] = val
            rows.append(row)
    matrix = QMatrix(len(rows), n, rows)
    return kernel_basis(matrix).dim


def derivation_space_dimension(algebra: FDAlgebra) -> int:
    """Linear maps D with D(ab) = D(a)b + a D(b), by brute-force solve."""
    n = algebra.dimension
    c = algebra.constants
    # unknowns D[p][q] (column q*n+p? keep (p, q): D(e_p) = sum_q D[p][q] e_q)
    cols = {(p, q): p * n + q for p in range(n) for q in range(n)}
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row: dict[int, Fraction] = {}

                def bump(key, val):
                    if val:
                        row[key] = row.get(key, Fraction(0)) + val

                for l in range(n):
                    # D applied to the product
                    bump(cols[(l, m)], c[i][j][l])
                    # minus D(e_i) e_j
                    bump(cols[(i, l)], -c[l][j][m])
                    # minus e_i D(e_j)
                    bump(cols[(j, l)], -c[i][l][m])
                rows.append({k: v for k, v in row.items() if v})
    matrix = QMatrix(len(rows), n * n, rows)
    return kernel_basis(matrix).dim


def inner_derivation_space_dimension(algebra: FDAlgebra) -> int:
    """Span of the commutator maps x -> ax - xa."""
    n = algebra.dimension
    c = algebra.constants
    vectors = []
    for a in range(n):
        vec = [Fraction(0)] * (n * n)
        for p in range(n):
            for q in range(n):
                vec[p * n + q] = c[a][p][q] - c[p][a][q]
        vectors.append(vec)
    return SubspaceBasis.from_vectors(n * n, vectors).dim


def current_algebra(algebra: FDAlgebra) -> ConformalAlgebra:
    """Constant-coefficient conformal algebra on the same basis."""
    n = algebra.dimension
    structure: dict[tuple[int, int], list[tuple[int, Poly]]] = {}
    for i in range(n):
        for j in range(n):
            entries = [
                (k, Poly.const(PRODUCT_VARS, algebra.constants[i][j][k]))
                for k in range(n)
                if algebra.constants[i][j][k]
            ]
            if entries:
                structure[(i, j)] = entries
    return ConformalAlgebra(algebra.basis_names, structure)
