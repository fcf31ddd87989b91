"""Finite-dimensional algebras, read as current algebras.

An ordinary algebra and a conformal algebra are two cases of one theory,
H = k and H = k[del].  The current algebra Cur A = k[del] (x) A carries
A's structure constants as constant lam-products, and its regular module
carries them as constant actions.  Every table is constant, so the
conformal differential maps cochain values of polynomial degree k to
degree k, and the degree-0 slice (``TruncationWindow(0)``) of the complex
of Cur A with regular coefficients is the bar complex of A with
coefficients in A:

    (d phi)(a_1, ..., a_{n+1}) = a_1 phi(a_2, ..., a_{n+1})
      + sum_i (-1)^i phi(..., a_i a_{i+1}, ...)
      + (-1)^{n+1} phi(a_1, ..., a_n) a_{n+1}

B in the slice is the image of the degree-0 sources alone, so the first
widening round already holds it and the second, whose new sources land
outside the slice, confirms that (``stabilized`` in 2 rounds).  ``pseudo
classical`` therefore reads HH^n(A), the center (Z^0), the derivations
(Z^1) and the inner derivations (B^1) off ``cohomology_dimensions`` on
``current_algebra(A)``: one differential serves both theories.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .conformal import PRODUCT_VARS, ConformalAlgebra
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
