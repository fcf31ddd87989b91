"""Finite-dimensional algebras, held as their current algebras.

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
Cur A: one differential serves both theories.

A itself is never stored apart from Cur A: ``formats.parse_fd_algebra``
reads an ``.fda`` file straight into it, and `matrix_algebra` builds
Cur M_n.
"""

from __future__ import annotations

from .conformal import PRODUCT_VARS, ConformalAlgebra
from .polyring import Poly


def matrix_algebra(size: int) -> ConformalAlgebra:
    """Current algebra of the full matrix algebra M_size, on the matrix
    units e_pq (row-major): e_pq lam e_qs = e_ps."""
    if size < 1:
        raise ValueError("size must be positive")
    names = tuple(f"e{p + 1}{q + 1}" for p in range(size) for q in range(size))
    one = Poly.const(PRODUCT_VARS, 1)
    structure = {
        (p * size + q, q * size + s): [(p * size + s, one)]
        for p in range(size)
        for q in range(size)
        for s in range(size)
    }
    return ConformalAlgebra(names, structure)
