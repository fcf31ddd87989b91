"""Extensions and first-order deformations built from cocycle data.

Three constructions, each paired with a direct verification route so the
verdict never rests on a single code path:

* module extensions 0 -> M -> E -> N -> 0 glued by a family of maps
  gamma(a): N -> M, one conformal linear map per algebra generator;
* abelian algebra extensions A (+) M twisted by a 2-cochain;
* first-order deformations of the product by a 2-cochain over the
  algebra acting on itself.

Both assembled objects are direct sums of their parts' tables, merged
by `_direct_sum`: E's left action from the sub's, gamma's and the
quotient's; the product of A (+) M from P, the twist, L and R, each part
moved past the generators before it.

In every case the datum is accepted or rejected by an explicit residual
system, and the assembled object is independently re-checked with the
axiom checkers.  Disagreement between the two routes raises
ComplexInconsistencyError, since it can only come from a bug here.
A degree-2 cochain has one reading as a product, `_cochain_table`, a
structure table over (del, lam): the twist `build_abelian_extension`
adds to the product it assembles, and the table `deformation_residuals`
moves through the checkers' own law maps beside the algebra's.

Checks on the base objects a datum is built over are kept on those
objects, so each runs once per object however many data share it: the
associativity of the algebra (`conformal.associativity_failure`) and
the axiom verdict of a module (`cfmodule.axiom_failure`), which also
tells whether the module breaks its left law, the law it checks first.
A non-associative algebra raises `NonAssociativeError`.  The checks that
are routes of a verdict run every time and keep nothing on an object
across calls: the associativity checker on the algebra
`build_abelian_extension` assembles, `check_module_axioms` on the module
`build_extension` glues, and the cochain differential in `deform` and
`build_abelian_extension`.  That differential's verdict is read off the
stencil's raw sums (`cohomology._differential_equals`), with no cochain
built; the stencil is the one kept on the module, with the slot images
that earlier calls on the module formed: the images are part of the
compiled d, not a verdict.  Likewise the ring maps that depend on no
input (the law maps, the Chom maps, `_SHIFT` and `_STAY`) are module
constants, built once per process; each keeps the image of every
monomial it has moved, keyed by the monomial's exponents alone, so that
memo is bounded by the degrees of the tables read, not by the number of
calls.

Both witness searches are one exact solve, `exactla.solve_columns`, on
columns keyed by the terms they produce: the coboundary terms of each
monomial of B from `_coboundary_terms`, the raw-term builder behind
`gamma_coboundary`, and the stencil columns of d_1 on the degree-bounded
1-cochains, solved by `cohomology._preimage`.  A target term no column
reaches makes the system inconsistent.  Each found witness is checked
without building a family or a cochain from it: B's coboundary by the
same builder, d of a 1-cochain minus the target on the stencil's raw
sums, which also decide `equivalent_deformations`.

The two differentials of the Chom complex of gluing data are written
side by side in one representation: each reads its data one way, moves
it by module-constant ring maps, and sums raw terms into one accumulator
normalized once.  d0, `_coboundary_terms`, takes B as it is given, {(t,
k): B_tk} over del alone, moves each entry by `_SHIFT` and `_STAY`, and
keys its terms (i, t, s, exponent).  d1, `extension_residuals`, reads
gamma once as a table shaped like the actions, moves every table it
composes by its map of `_CHOM_MAPS` (`_moved`), and keys its terms ((i,
j, t, s), exponent).  It reaches nothing of the law kernel the axiom
checker on the glued module runs on, and `build_extension` reads gamma
for E on its own, so the two routes of its verdict share no reading: a
misread index shows as a disagreement, not as the same wrong answer.

Conventions for the residuals (all polynomials in del, lam, mu): lam is
always the outer variable.  In extension residuals mu is the total
variable, so the inner action carries mu - lam.  In deformation
residuals mu is the inner product's variable and lam + mu the total one,
as in `conformal._law_sides`.
"""

from __future__ import annotations

import itertools
import operator
from typing import Mapping, Optional

from .cfmodule import (
    BimoduleStructure,
    CLinearMap,
    UnfitModuleError,
    axiom_failure,
    check_module_axioms,
)
from .conformal import (
    ASSOC_VARS,
    PRODUCT_VARS,
    ConformalAlgebra,
    NonAssociativeError,
    _DEL,
    _LAM,
    _MU,
    _finish,
    _law_sides,
    _law_tables,
    associativity_failure,
    check_associativity,
)
from .cohomology import (
    Cochain,
    ComplexInconsistencyError,
    _differential_equals,
    _preimage,
)
from .exactla import solve_columns
from .polyring import Poly, _RingMap, _coeff, _frozen

DEL_ONLY = ("del",)


@_frozen
class ExtensionDatum:
    """Gluing data for a left-module extension of ``quotient`` by ``sub``.

    ``gamma[i]`` is the conformal linear map quotient -> sub describing the
    twisted part of the i-th generator's action; omitted indices are zero.
    """

    algebra: ConformalAlgebra
    sub: BimoduleStructure
    quotient: BimoduleStructure
    gamma: Mapping[int, CLinearMap]

    def __post_init__(self):
        for name, module in (("sub", self.sub), ("quotient", self.quotient)):
            if module.algebra != self.algebra:
                raise ValueError(f"{name} module is over a different algebra")
            _require_left(name, module)
            # the left law is checked first: it fails iff the verdict names it
            if (cex := axiom_failure(module)) is not None and cex.law == "left":
                raise UnfitModuleError(f"{name} module violates its own left law")
        clean = _checked_gamma(self.algebra, self.sub, self.quotient, self.gamma)
        object.__setattr__(self, "gamma", clean)


def _require_left(name: str, module: BimoduleStructure) -> None:
    """Refuse a sub or quotient module with no left action to glue by."""
    if not module.has_left:
        raise UnfitModuleError(f"{name} module needs a left action")


def _checked_gamma(
    algebra: ConformalAlgebra,
    sub: BimoduleStructure,
    quotient: BimoduleStructure,
    gamma: Mapping[int, CLinearMap],
) -> dict[int, CLinearMap]:
    """The nonzero maps of a family quotient -> sub, by int index, after
    checking that each index names a generator of the algebra and each
    map runs from the quotient's generators to the sub's."""
    clean: dict[int, CLinearMap] = {}
    for i, gmap in gamma.items():
        i = operator.index(i)
        if not (0 <= i < algebra.rank):
            raise ValueError(f"gamma index {i} out of range")
        if gmap.source != quotient.generators:
            raise ValueError("gamma source must be the quotient module")
        if gmap.target != sub.generators:
            raise ValueError("gamma target must be the sub module")
        if not gmap.is_zero():
            clean[i] = gmap
    return clean


# the four ring maps of the Chom differential, built once per process,
# each moving a table over (del, lam): an entry at the outer variable; a
# map or an inner action at mu - lam, its del riding on the outer lam; the
# product a_i lam a_j, whose del turns into -mu since gamma of it acts
# with the total variable; and gamma of that product at the total
# variable mu.  They are the law kernel's maps in nothing but bindings,
# so the two routes of an extension verdict share no image
_CHOM_MAPS = tuple(
    _RingMap(PRODUCT_VARS, bindings)
    for bindings in (
        {"lam": _LAM, "del": _DEL},
        {"lam": _MU - _LAM, "del": _LAM + _DEL},
        {"lam": _LAM, "del": -_MU},
        {"lam": _MU, "del": _DEL},
    )
)


def extension_residuals(datum: ExtensionDatum) -> dict[tuple[int, int, int, int], Poly]:
    """Nonzero obstructions to the glued action satisfying the left law.

    The obstruction is the Chom differential of gamma, read as a 1-cochain
    with values in Chom(quotient, sub):

        a_i lam gamma_j  +  gamma_i lam a_j  -  gamma_{a_i lam a_j},

    with (a lam f)_mu n = a lam (f_{mu-lam} n) and (f lam a)_mu n =
    f_lam (a_{mu-lam} n).  Key (i, j, t, s): generators a_i (outer,
    variable lam) and a_j (inner, variable mu - lam) acting on quotient
    generator t, read off the coefficient of sub generator s.  Gamma is
    read once, as a table {(i, t): [(s, gamma_i entry)]} shaped like the
    actions; every table the three terms compose (gamma, the sub's and
    the quotient's left actions, the products) is moved by its map of
    `_CHOM_MAPS` through `_moved`, so each distinct monomial is expanded
    once per map per process however many entries and calls share it.
    The products are summed raw into one accumulator over (i, j, t),
    normalized once, as `_coboundary_terms` sums d0.  Empty dict means
    gamma is a cocycle.
    """
    algebra, rank_n = datum.algebra, datum.quotient.rank
    outer, shifted, product, total = _CHOM_MAPS
    gamma: dict[tuple[int, int], list[tuple[int, Poly]]] = {}
    for i, gmap in datum.gamma.items():
        for (t, s), g in gmap.matrix.items():
            gamma.setdefault((i, t), []).append((s, g))
    gamma_outer, gamma_shifted, gamma_total = (
        _moved(gamma, ring) for ring in (outer, shifted, total)
    )
    sub_outer = _moved(datum.sub.left, outer)
    quotient_shifted = _moved(datum.quotient.left, shifted)
    products = _moved(algebra.structure, product)
    acc: dict = {}
    for i, j, t in itertools.product(range(algebra.rank), range(algebra.rank), range(rank_n)):
        for k, g in gamma_shifted.get((j, t), ()):  # a_i lam gamma_j
            for s, l_iks in sub_outer.get((i, k), ()):
                _add_chom_terms(acc, (i, j, t, s), g, l_iks, 1)
        for k, l_jtk in quotient_shifted.get((j, t), ()):  # gamma_i lam a_j
            for s, g in gamma_outer.get((i, k), ()):
                _add_chom_terms(acc, (i, j, t, s), l_jtk, g, 1)
        for l, p_ijl in products.get((i, j), ()):  # minus gamma_{a_i lam a_j}
            for s, g in gamma_total.get((l, t), ()):
                _add_chom_terms(acc, (i, j, t, s), p_ijl, g, -1)
    terms: dict = {}
    for (key, exp), c in acc.items():
        if c:
            terms.setdefault(key, {})[exp] = _coeff(c)
    return {key: Poly._raw(ASSOC_VARS, terms[key]) for key in sorted(terms)}


def _moved(table: Mapping, ring: _RingMap) -> dict:
    """A table {key: [(target, polynomial), ...]} with each polynomial
    moved by ``ring``, as the raw term items of its image."""
    return {
        key: [(target, ring.raw(p).items()) for target, p in entries]
        for key, entries in table.items()
    }


def _add_chom_terms(acc: dict, key: tuple, first, second, sign: int) -> None:
    """Add sign times the product of two raw term items over (del, lam,
    mu) into the sums of acc keyed (key, exponent)."""
    for (e0, e1, e2), c1 in first:
        c1 = sign * c1
        for (f0, f1, f2), c2 in second:
            k = (key, (e0 + f0, e1 + f1, e2 + f2))
            c = c1 * c2
            acc[k] = acc[k] + c if k in acc else c


# B's entries are over del alone; a . B(n) moves B's del onto the
# action's total variable (del -> lam + del) and B(a . n) keeps it
# (del -> del), each a ring map into (del, lam) built once per process
_STAY = _RingMap(DEL_ONLY, {"del": Poly.var(PRODUCT_VARS, "del")})
_SHIFT = _RingMap(
    DEL_ONLY, {"del": Poly.var(PRODUCT_VARS, "lam") + Poly.var(PRODUCT_VARS, "del")}
)


def _coboundary_terms(
    sub: BimoduleStructure, quotient: BimoduleStructure, b: Mapping[tuple[int, int], Poly]
) -> dict:
    """The coboundary a |-> a . B(n) - B(a . n) of the B given as {(t, k):
    B_tk}, each B_tk a polynomial in del alone, as its nonzero
    coefficients keyed (i, t, s, exponent over (del, lam)), as
    `_family_terms` keys a family.  Each B_tk is moved by `_SHIFT` for a .
    B(n) and by `_STAY` for B(a . n), so a power of del is expanded once
    per process however many calls and columns share it.  Products are
    summed raw and normalized once: no `Poly` or `CLinearMap` of the
    coboundary is built.  A sub or quotient without a left action raises
    UnfitModuleError, and a sub and quotient over different algebras
    ValueError, whatever B."""
    _require_left("sub", sub)
    _require_left("quotient", quotient)
    if sub.algebra != quotient.algebra:
        raise ValueError("sub and quotient modules are over different algebras")
    rows: dict[int, list] = {}  # t -> ((k, B_tk at del), ...)
    acc: dict = {}
    for (t, k), poly in b.items():
        rows.setdefault(t, []).append((k, _STAY.raw(poly).items()))
        image = _SHIFT.raw(poly).items()
        for i in range(sub.algebra.rank):
            for s, l_iks in sub.left.get((i, k), ()):
                _add_terms(acc, i, t, s, image, l_iks.terms.items(), 1)
    for (i, t), l_entries in quotient.left.items():
        for k, l_itk in l_entries:
            for s, b_ks in rows.get(k, ()):
                _add_terms(acc, i, t, s, l_itk.terms.items(), b_ks, -1)
    return {key: _coeff(c) for key, c in acc.items() if c}


def _add_terms(acc: dict, i: int, t: int, s: int, first, second, sign: int) -> None:
    """Add sign times the product of two raw term items over (del, lam)
    into the sums of acc keyed (i, t, s, exponent)."""
    for (e0, e1), c1 in first:
        c1 = sign * c1
        for (f0, f1), c2 in second:
            key = (i, t, s, (e0 + f0, e1 + f1))
            c = c1 * c2
            acc[key] = acc[key] + c if key in acc else c


def _direct_sum(*parts) -> dict[tuple[int, int], list[tuple[int, Poly]]]:
    """One table from a direct sum's parts, each (table, (i shift, j
    shift), target shift): its entry (k, p) at (i, j) lands as (k + target
    shift, p) at (i + i shift, j + j shift).  The parts land on disjoint
    targets, so no pair gets a target twice."""
    table: dict = {}
    for part, (di, dj), dk in parts:
        for (i, j), entries in part.items():
            table.setdefault((i + di, j + dj), []).extend((k + dk, p) for k, p in entries)
    return table


def build_extension(
    datum: ExtensionDatum,
) -> tuple[BimoduleStructure, bool, dict[tuple[int, int, int, int], Poly]]:
    """Assemble E = sub (+) quotient with the glued left action.

    Returns the module, whether it satisfies the left law, and the
    `extension_residuals` the verdict was read from.  The verdict is
    computed twice, from the residual system and from the axiom checker
    on E itself; disagreement raises ComplexInconsistencyError.
    """
    sub, quo = datum.sub, datum.quotient
    r_sub = sub.rank
    names = tuple(f"m:{g}" for g in sub.generators) + tuple(
        f"n:{g}" for g in quo.generators
    )
    # gamma read as a table: a_i on quotient generator t -> sub generator s
    twist: dict[tuple[int, int], list[tuple[int, Poly]]] = {}
    for i, gmap in datum.gamma.items():
        for (t, s), g in gmap.matrix.items():
            twist.setdefault((i, t), []).append((s, g))
    left = _direct_sum(
        (sub.left, (0, 0), 0), (twist, (0, r_sub), 0), (quo.left, (0, r_sub), r_sub)
    )
    extension = BimoduleStructure(
        algebra=datum.algebra, generators=names, left=left, right=None
    )
    residuals = extension_residuals(datum)
    checker_verdict = check_module_axioms(extension) is None
    if (not residuals) != checker_verdict:
        raise ComplexInconsistencyError(
            "extension residuals disagree with the axiom checker on E"
        )
    return extension, checker_verdict, residuals


def gamma_coboundary(
    sub: BimoduleStructure,
    quotient: BimoduleStructure,
    b_matrix: Mapping[tuple[int, int], Poly],
) -> dict[int, CLinearMap]:
    """Trivial gluing data generated by a del-equivariant map B: quotient -> sub.

    ``b_matrix[(t, k)]`` is the coefficient of sub generator k in B of
    quotient generator t, a polynomial in del alone.  The result is the
    family a |-> a . B(n) - B(a . n), read off `_coboundary_terms`.
    """
    for (t, k), poly in b_matrix.items():
        t, k = operator.index(t), operator.index(k)
        if not (0 <= t < quotient.rank and 0 <= k < sub.rank):
            raise ValueError(f"B index {(t, k)} out of range")
        if poly.variables != DEL_ONLY:
            raise ValueError("B entries must be polynomials in del alone")
    matrices: dict[int, dict] = {}
    for (i, t, s, exp), c in _coboundary_terms(sub, quotient, b_matrix).items():
        matrices.setdefault(i, {}).setdefault((t, s), {})[exp] = c
    return {
        i: CLinearMap(
            quotient.generators,
            sub.generators,
            {key: Poly._raw(PRODUCT_VARS, terms) for key, terms in sorted(matrices[i].items())},
        )
        for i in sorted(matrices)
    }


def _family_terms(family: Mapping[int, CLinearMap]) -> dict:
    """The coefficients of a family of maps quotient -> sub, keyed (algebra
    generator i, quotient generator t, sub generator s, exponent); two
    families are equal exactly when these dicts are."""
    return {
        (i, t, s, exp): coeff
        for i, gmap in family.items()
        for (t, s), poly in gmap.matrix.items()
        for exp, coeff in poly.terms.items()
    }


def find_extension_witness(
    sub: BimoduleStructure,
    quotient: BimoduleStructure,
    gamma_diff: Mapping[int, CLinearMap],
    max_degree: int,
) -> Optional[dict[tuple[int, int], Poly]]:
    """Search for B with deg <= max_degree whose coboundary equals gamma_diff.

    The search is an exact linear solve over the coefficients of B, one
    column of `_coboundary_terms` per monomial of B; None means no witness
    exists within the degree bound (a larger bound may still succeed).
    A gamma_diff index outside the algebra, a map that does not run from
    the quotient's generators to the sub's, or a sub and quotient over
    different algebras raise ValueError, as in `ExtensionDatum`.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    target = _family_terms(_checked_gamma(sub.algebra, sub, quotient, gamma_diff))
    unknowns = [
        (t, k, e)
        for t in range(quotient.rank)
        for k in range(sub.rank)
        for e in range(max_degree + 1)
    ]
    monomials = [Poly.monomial(DEL_ONLY, (e,)) for e in range(max_degree + 1)]
    columns = [_coboundary_terms(sub, quotient, {(t, k): monomials[e]}) for t, k, e in unknowns]
    coords = solve_columns(columns, target)
    if coords is None:
        return None
    found: dict[tuple[int, int], dict] = {}
    for (t, k, e), c in zip(unknowns, coords):
        if c:
            found.setdefault((t, k), {})[(e,)] = _coeff(c)
    witness = {key: Poly._raw(DEL_ONLY, terms) for key, terms in found.items()}
    if _coboundary_terms(sub, quotient, witness) != target:
        raise ComplexInconsistencyError("witness reconstruction failed to verify")
    return witness


def _gamma_difference(
    first: ExtensionDatum, second: ExtensionDatum
) -> dict[int, CLinearMap]:
    if (first.algebra, first.sub, first.quotient) != (
        second.algebra,
        second.sub,
        second.quotient,
    ):
        raise ValueError("extension data live over different modules")
    diff: dict[int, CLinearMap] = {}
    zero = CLinearMap.zero(first.quotient.generators, first.sub.generators)
    for i in range(first.algebra.rank):
        d = first.gamma.get(i, zero) - second.gamma.get(i, zero)
        if not d.is_zero():
            diff[i] = d
    return diff


def equivalent_extensions(
    first: ExtensionDatum,
    second: ExtensionDatum,
    b_matrix: Mapping[tuple[int, int], Poly],
) -> bool:
    """Does the given map B: quotient -> sub identify the two extensions?

    True exactly when the gamma difference equals the coboundary of B as
    polynomials; a False here only rules out this particular witness.
    """
    produced = gamma_coboundary(first.sub, first.quotient, b_matrix)
    return _family_terms(produced) == _family_terms(_gamma_difference(first, second))


def search_extension_witness(
    first: ExtensionDatum, second: ExtensionDatum, max_degree: int
) -> Optional[dict[tuple[int, int], Poly]]:
    """Witness B identifying the two extensions, or None within the bound."""
    return find_extension_witness(
        first.sub, first.quotient, _gamma_difference(first, second), max_degree
    )


def _cochain_table(phi: Cochain) -> dict[tuple[int, int], tuple[tuple[int, Poly], ...]]:
    """A degree-2 cochain read as a structure table, its nonzero values
    over (del, lam): the twist of an assembled product and the table the
    law maps move in `deformation_residuals`.  (del, lam1) and (del, lam)
    order their exponents alike, so each value keeps its terms."""
    return {
        key: tuple((k, Poly._raw(PRODUCT_VARS, p.terms)) for k, p in enumerate(vec) if p.terms)
        for key, vec in phi.values.items()
    }


@_frozen
class AbelianExtensionDatum:
    """Square-zero extension data: a bimodule and a degree-2 cochain."""

    algebra: ConformalAlgebra
    module: BimoduleStructure
    cocycle: Cochain

    def __post_init__(self):
        if self.module.algebra != self.algebra:
            raise ValueError("module is over a different algebra")
        if not (self.module.has_left and self.module.has_right):
            raise UnfitModuleError("abelian extension needs a two-sided module")
        if self.cocycle.degree != 2:
            raise ValueError("abelian extension twist must be a degree-2 cochain")
        if self.cocycle.algebra != self.algebra or self.cocycle.module != self.module:
            raise ValueError("cochain is not over this algebra and module")
        if associativity_failure(self.algebra) is not None:
            raise NonAssociativeError("base algebra is not associative")
        if axiom_failure(self.module) is not None:
            raise UnfitModuleError("module violates its axiom system")


def build_abelian_extension(
    datum: AbelianExtensionDatum,
) -> tuple[ConformalAlgebra, bool]:
    """Assemble A (+) M with product twisted by the cochain.

    Generators are the algebra's (prefixed a:) then the module's (prefixed
    m:); module generators multiply to zero among themselves.  Returns the
    algebra and whether it is associative, re-deriving the verdict from
    the cochain differential; disagreement raises ComplexInconsistencyError.
    """
    algebra, module, phi = datum.algebra, datum.module, datum.cocycle
    na = algebra.rank
    names = tuple(f"a:{g}" for g in algebra.generators) + tuple(
        f"m:{g}" for g in module.generators
    )
    structure = _direct_sum(
        (algebra.structure, (0, 0), 0),
        (_cochain_table(phi), (0, 0), na),
        (module.left, (0, na), na),
        (module.right, (na, 0), na),
    )
    extension = ConformalAlgebra(names, structure)
    cochain_verdict = _differential_equals(phi)
    checker_verdict = check_associativity(extension) is None
    if cochain_verdict != checker_verdict:
        raise ComplexInconsistencyError(
            "cochain differential disagrees with the associativity checker"
        )
    return extension, checker_verdict


@_frozen
class DeformationDatum:
    """First-order product perturbation, recorded as a degree-2 cochain
    over the algebra acting on itself."""

    algebra: ConformalAlgebra
    cocycle: Cochain

    def __post_init__(self):
        if self.cocycle.degree != 2:
            raise ValueError("deformation datum must be a degree-2 cochain")
        if self.cocycle.algebra != self.algebra:
            raise ValueError("cochain is over a different algebra")
        if self.cocycle.module != BimoduleStructure.regular(self.algebra):
            raise ValueError("deformation cochain must take values in the algebra")
        if associativity_failure(self.algebra) is not None:
            raise NonAssociativeError("base algebra is not associative")


def deformation_residuals(
    datum: DeformationDatum,
) -> dict[tuple[int, int, int, int], Poly]:
    """First-order associativity obstruction of the perturbed product.

    Key (a, b, c, s): the coefficient of generator s in the degree-one
    part of (a lam b) (lam+mu) c - a lam (b mu c) for the product P + eps F,
    a polynomial in (del, lam, mu).  That part is the law with F in one of
    the two products, F read as a structure table (`_cochain_table`):
    P and F are each moved by all four of the checkers' own law maps
    (`_law_tables`), built once per process, so a monomial is expanded
    once per map however many tables and calls read it; and `_law_sides`
    adds both placements of F, left orders minus right orders, into one
    accumulator of raw sums per triple, which `_finish` reads once.
    Empty dict means the perturbation is flat to first order.
    """
    n, products = datum.algebra.rank, datum.algebra.structure
    twist = _cochain_table(datum.cocycle)
    pf = _law_tables(products, twist, products, twist)
    fp = _law_tables(twist, products, twist, products)
    out: dict[tuple[int, int, int, int], Poly] = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        acc: dict = {}
        _law_sides(pf, a, b, c, acc, acc)
        _law_sides(fp, a, b, c, acc, acc)
        for s, residual in _finish(acc).items():
            out[(a, b, c, s)] = residual
    return out


def deform(datum: DeformationDatum) -> tuple[dict[tuple[int, int, int, int], Poly], bool]:
    """Residual system and verdict for a first-order deformation.

    The verdict (flat to first order) is also re-derived from the cochain
    differential of the perturbation; the two routes must agree.
    """
    residuals = deformation_residuals(datum)
    direct_verdict = not residuals
    cochain_verdict = _differential_equals(datum.cocycle)
    if direct_verdict != cochain_verdict:
        raise ComplexInconsistencyError(
            "deformation residuals disagree with the cochain differential"
        )
    return residuals, direct_verdict


def find_deformation_witness(
    algebra: ConformalAlgebra, target: Cochain, max_degree: int
) -> Optional[Cochain]:
    """Degree-1 cochain whose differential equals the target, or None.

    The unknown cochain has value degree <= max_degree; `_preimage`
    solves exactly, so None is a definitive answer within that bound.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    module = BimoduleStructure.regular(algebra)
    if target.degree != 2 or target.module != module:
        raise ValueError("target must be a degree-2 cochain valued in the algebra")
    return _preimage(target, max_degree)


def equivalent_deformations(
    first: DeformationDatum, second: DeformationDatum, witness: Cochain
) -> bool:
    """Does the degree-1 cochain identify the two deformations?

    True exactly when the difference of the perturbations equals the
    differential of the witness, read off the stencil's raw sums.
    """
    if first.algebra != second.algebra:
        raise ValueError("deformations live over different algebras")
    if witness.degree != 1:
        raise ValueError("witness must be a degree-1 cochain")
    return _differential_equals(witness, first.cocycle - second.cocycle)


def search_deformation_witness(
    first: DeformationDatum, second: DeformationDatum, max_degree: int
) -> Optional[Cochain]:
    """Witness identifying two deformations to first order, or None."""
    if first.algebra != second.algebra:
        raise ValueError("deformations live over different algebras")
    return find_deformation_witness(
        first.algebra, first.cocycle - second.cocycle, max_degree
    )
