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
reads an ``.fda`` file straight into it.
"""
