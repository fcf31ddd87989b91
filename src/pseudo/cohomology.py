"""Cochain complex of a conformal algebra with bimodule coefficients.

An n-cochain assigns to every n-tuple of algebra generators a module value
whose coordinates are polynomials in lam1 .. lam(n-1), del.  Slot i < n of
a cochain pairs with lam_i: a coefficient p(del) fed into that slot
contributes p(-lam_i).  The last slot carries no variable of its own; a
coefficient there contributes p(del + lam1 + ... + lam(n-1)).  Degree-0
cochains are classes in M / del M, stored as constant coordinate vectors.

The differential of an n-cochain phi evaluated on (g1, ..., g_{n+1}) is

      g1 lam1 phi(g2, ..., g_{n+1})
    + sum_{i=1..n} (-1)^i phi(..., g_i lam_i g_{i+1}, ...)
    + (-1)^{n+1} phi(g1, ..., gn) (lam1+...+lamn) g_{n+1}

where the i-th middle term merges lam_i and lam_{i+1} into one cochain
variable when i < n, and lands in the last slot (shift rule) when i = n.
For n = 0 the differential is u -> (a |-> a_{-del} u - u_0 a).  These
slot rules are written once, in ``_Stencil``, which ``apply_dn`` (every
degree, 0 included), the cocycle and coboundary slices and the preimage
solve behind the deformation witness search (``_preimage``) all run on;
the last three hand its sparse columns straight to ``exactla``.  A
cochain becomes label-keyed terms ((tuple, k, monomial), coeff) in
``_terms`` and is built back from them in ``_from_terms``, the one way
each direction is written.  Inside the stencil a target label is one
integer code (see ``_Stencil``), laid out so that a degree bound is one
comparison and a label's place in the degree-D target slice is (code %
span) * extent(D) + code // span; only ``apply_dn`` and the overflow
message decode codes back to labels, and no other module sees a code.
What lives on the module: its grading (`grading`), and its compiled
stencil for each degree n, built on first use (`_stencil`), with the
ring map of each slot, its moved structure entries per (cut, generator)
with the images a call has asked for kept beside them (basis monomial ->
image), and the numbering of the target monomials up to the largest
degree asked for.  A later call on the same module forms only what no
earlier call formed.  All of it is freed with the module (for a regular
module, which forms a reference cycle with its algebra, when the cycle
collector reclaims the pair); an equal but distinct module forms its own.

Cohomology is computed in the truncated slice of total degree <= D: the
cocycle space is exact there, while the coboundary space is obtained by
widening the source degree in steps of K until the intersection with the
slice stops growing, a stabilized lower bound in general.  On a graded
input the widening differentiates only the sources whose weight can
reach the slice, and a last pass takes those the rounds left, so there
the coboundary space is exact.  The widening's round 0 comes first:
since d after d = 0 its rows lie in Z, so they seed the kernel that
computes Z (`exactla.kernel`'s known rows), which checks that d sends
each to 0 and eliminates only the columns off their pivots.  The later
rounds stop differentiating once B fills Z in the slice, which the same
identity makes exact: they still run and count, so nothing reported
moves.  `cohomology_dimensions` refuses a non-associative algebra
(`NonAssociativeError`) and a module that breaks its laws
(`UnfitModuleError`) before computing, reading the verdicts kept on
them, so the guard that B lies in Z flags only a bug here.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice, product as iter_product
from math import comb
from typing import Mapping, Sequence

from .cfmodule import BimoduleStructure, UnfitModuleError, axiom_failure
from .conformal import ConformalAlgebra, NonAssociativeError, _kept, associativity_failure
from .exactla import (
    ContainmentError,
    SubspaceBasis,
    _SliceSpan,
    kernel,
    quotient_dimension,
    solve_columns,
)
from .polyring import Poly, _RingMap, _coeff, _frozen, _mul_terms, iter_monomials


class ComplexInconsistencyError(RuntimeError):
    """An internal identity (d after d = 0, or a dual-route verdict) broke."""


class TruncationOverflowError(RuntimeError):
    """A polynomial escaped the degree window it was promised to fit."""


# widening rounds of the coboundary slice before it is reported unstabilized
DEFAULT_MAX_ROUNDS = 4


def cochain_variables(degree: int) -> tuple[str, ...]:
    """del, lam1, ..., lam(n-1): already the canonical variable order."""
    if degree < 0:
        raise ValueError("cochain degree must be nonnegative")
    if degree == 0:
        return ()
    return ("del",) + tuple(f"lam{i}" for i in range(1, degree))


@_frozen
class TruncationWindow:
    """Degree bound D for the reported slice and widening step K."""

    degree_bound: int
    stabilization_margin: int = 1

    def __post_init__(self):
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if self.stabilization_margin < 1:
            raise ValueError("stabilization margin must be at least 1")


@_frozen
class Cochain:
    """Alternating-free multilinear cochain given on generator tuples.

    ``values[(i1, ..., in)]`` is the coordinate vector (one polynomial per
    module generator) of the value on that tuple; missing tuples are zero.
    """

    degree: int
    algebra: ConformalAlgebra
    module: BimoduleStructure
    values: Mapping[tuple[int, ...], tuple[Poly, ...]]

    def __post_init__(self):
        if self.module.algebra != self.algebra:
            raise ValueError("module is over a different algebra")
        variables = cochain_variables(self.degree)
        clean = {}
        for key, vec in self.values.items():
            key = tuple(map(operator.index, key))
            if len(key) != self.degree:
                raise ValueError(f"tuple {key} has wrong length for degree {self.degree}")
            if any(not (0 <= i < self.algebra.rank) for i in key):
                raise ValueError(f"generator index out of range in {key}")
            vec = tuple(vec)
            if len(vec) != self.module.rank:
                raise ValueError("value vector length does not match module rank")
            for poly in vec:
                if poly.variables != variables:
                    raise ValueError(
                        f"degree-{self.degree} values must be over {variables}, "
                        f"got {poly.variables}"
                    )
            if any(not p.is_zero for p in vec):
                clean[key] = vec
        object.__setattr__(self, "values", clean)

    @classmethod
    def zero(cls, algebra: ConformalAlgebra, module: BimoduleStructure, degree: int) -> "Cochain":
        return cls(degree, algebra, module, {})

    def is_zero(self) -> bool:
        return not self.values

    def _same_shape(self, other: "Cochain"):
        if (
            self.degree != other.degree
            or self.algebra != other.algebra
            or self.module != other.module
        ):
            raise ValueError("cochain shapes differ")

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._merged(other, 1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._merged(other, -1)

    def _merged(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other: the label terms of both merged in one pass
        and the sum built once, by `_from_terms`."""
        self._same_shape(other)
        terms = dict(_terms(self))
        for label, c in _terms(other):
            c = sign * c
            terms[label] = terms[label] + c if label in terms else c
        return _from_terms(self.degree, self.module, terms.items())

    def scaled(self, factor) -> "Cochain":
        factor = _coeff(factor)
        return _from_terms(
            self.degree, self.module, ((label, c * factor) for label, c in _terms(self))
        )


class CochainIndex:
    """Coordinates on the degree-<=D slice of the n-cochain space.

    The basis is ordered by generator tuple (lex), then module generator,
    then monomial (graded-lex); for n = 0 there is one basis vector per
    module generator.
    """

    def __init__(
        self,
        algebra: ConformalAlgebra,
        module: BimoduleStructure,
        degree: int,
        max_degree: int,
    ):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if module.algebra != algebra:
            raise ValueError("module is over a different algebra")
        self.algebra = algebra
        self.module = module
        self.degree = degree
        self.monomials = list(iter_monomials(cochain_variables(degree), max_degree))
        self.sources = [
            (tup, k)
            for tup in iter_product(range(algebra.rank), repeat=degree)
            for k in range(module.rank)
        ]
        self.labels: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = [
            (tup, k, mono) for tup, k in self.sources for mono in self.monomials
        ]

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def reconstruct(self, coords: Sequence) -> Cochain:
        if len(coords) != self.dimension:
            raise ValueError("coordinate count does not match this index")
        return _from_terms(self.degree, self.module, zip(self.labels, coords))


def _terms(cochain: Cochain):
    """The cochain's terms as ((tuple, k, monomial), coeff), keyed by the
    labels of `CochainIndex`."""
    for tup, vec in cochain.values.items():
        for k, poly in enumerate(vec):
            for mono, coeff in poly.terms.items():
                yield (tup, k, mono), coeff


def _from_terms(degree: int, module: BimoduleStructure, terms) -> Cochain:
    """The degree-n cochain with the given ((tuple, k, monomial), coeff)
    terms, each label at most once; every coeff is normalized and a zero
    one dropped; its labels are valid, so no constructor check is run."""
    values: dict = {}
    for (tup, k, mono), coeff in terms:
        coeff = _coeff(coeff)
        if coeff:
            vec = values.get(tup)
            if vec is None:
                vec = values[tup] = [{} for _ in range(module.rank)]
            vec[k][mono] = coeff
    variables = cochain_variables(degree)
    vecs = {t: tuple(Poly._raw(variables, terms) for terms in values[t]) for t in sorted(values)}
    cochain = object.__new__(Cochain)
    # the fields of a frozen instance, set past its __setattr__
    vars(cochain).update(degree=degree, algebra=module.algebra, module=module, values=vecs)
    return cochain


def apply_dn(cochain: Cochain) -> Cochain:
    """d of an n-cochain, n >= 0 (see module docstring), on the module's
    stencil, decoded into a cochain."""
    n, module = cochain.degree, cochain.module
    stencil = _stencil(module, n)
    acc = stencil.differential(cochain.values)
    label = stencil.label
    return _from_terms(n + 1, module, ((label(code), c) for code, c in acc.items() if c))


def _differential_equals(cochain: Cochain, target: Cochain | None = None) -> bool:
    """Whether d of the cochain is ``target``, a cochain one degree up on
    the same module (zero when None): the stencil's raw sums of d, minus
    the target's terms at their codes, all vanish; it refuses what
    `apply_dn` and a difference refuse, but decodes no label."""
    n, module = cochain.degree, cochain.module
    stencil = _stencil(module, n)
    if target is not None and (target.degree, target.module) != (n + 1, module):
        raise ValueError("cochain shapes differ")
    acc = stencil.differential(cochain.values)
    if target is not None:
        code = stencil.code
        for label, c in _terms(target):
            key = code(label)
            acc[key] = acc[key] - c if key in acc else -c
    return not any(acc.values())


class _Stencil:
    """d_n compiled for one module: the only definition of its slot rules.

    A cochain value p on (tuple t, module generator k) reaches only n + 2
    kinds of target tuple: the head (g,) + t, the middle slot i
    t[:i-1] + (a, b) + t[i:] for every product a lam_i b with a term on
    t[i-1], and the tail t + (g,).  Slot s cuts t[lo:hi] out and inserts
    generators in its place; its image depends on t only through the cut.
    One loop builds every slot from its rule (lo, hi, value bindings,
    coefficient bindings, sign, entries): it substitutes each structure
    entry once, with the rule's coefficient bindings and sign, and the slot
    keeps the `polyring._RingMap` of its value bindings.

    A target label (tuple t, module generator s, exponent e) is one
    integer, its code (``code`` encodes, ``label`` decodes):

        code = rank(e) * span + index(t) * rank(M) + s,

    with span = rank(A)^(n+1) * rank(M), index(t) the tuple read as a
    base-rank(A) numeral (the lex order of tuples) and rank(e) the place
    of e in ``iter_monomials`` over the n + 1 target variables.  That
    order is graded, so the labels of degree <= D are exactly the codes
    below ``extent(D) * span``, and a label's place in
    ``CochainIndex(n + 1, D)`` is (code % span) * extent(D) + code // span.
    A column is a sparse dict from codes to coefficients: no target label
    is built, hashed or looked up on the way to an echelon row.

    The image of a basis monomial m at a slot depends on (slot, cut, k, m)
    alone, so it is formed once, as (offset, coeff) pairs, and kept beside
    the entries it is formed from: a slot's table maps (cut, k) to
    (entries, {m: image}).  An offset is the code of an image term with
    the tuple parts outside the cut left 0.  ``_slots`` works out each
    slot's ring map, entries, kept images and base (added to every
    offset) once per source (tuple, k), for ``differential`` (``apply_dn``
    and ``_differential_equals``) and for ``columns``, which yields one
    column per monomial and forms none a caller does not ask for, so the
    coboundary slice stops at its ceiling.  The stencil keeps
    the numbering of target monomials (``monomials`` and its inverse
    ``numbering``), extended to the largest degree asked for.  `_stencil`
    keeps it on the module, one per (module, n), so all of it serves
    every later call on that module and is freed with it.  The images
    number at most (n + 2) * rank(A) * rank(M) times the basis monomials
    up to the largest degree a call asked for.  For n = 0 the head is
    a_{-del} u and the tail -u_0 a: lam1 is -del and a constant value is
    read in ("del",).
    """

    def __init__(self, module: BimoduleStructure, n: int):
        if not (module.has_left and module.has_right):
            if n == 0:
                raise UnfitModuleError("degree-0 differential needs both module actions")
            side = "right" if module.has_left else "left"
            raise UnfitModuleError(f"the differential needs a {side} action")
        self.src_vars = cochain_variables(n) or ("del",)
        self.dst_vars = dst_vars = cochain_variables(n + 1)
        radix, rank_m = module.algebra.rank, module.rank
        self.radix, self.rank_m = radix, rank_m
        self.span = radix ** (n + 1) * rank_m
        # target monomials in iter_monomials order, and monomial -> place
        self.monomials: list[tuple[int, ...]] = []
        self.numbering: dict[tuple[int, ...], int] = {}
        dl = Poly.var(dst_vars, "del")
        lam = [None] + [Poly.var(dst_vars, f"lam{i}") for i in range(1, n + 1)]
        if n == 0:
            lam.append(-dl)
        lam_total = Poly.zero(dst_vars)
        for i in range(1, n + 1):
            lam_total = lam_total + lam[i]

        # one rule per slot (head, middle slots 1..n, tail): (lo, hi, value
        # bindings, coefficient bindings, sign, entries), each entry
        # (inserted generators, cut, structure polynomial, ((source k,
        # target s), ...))
        left = [((g,), (), p, ((k, s),)) for (g, k), out in module.left.items() for s, p in out]
        right = [((g,), (), p, ((k, s),)) for (k, g), out in module.right.items() for s, p in out]
        products = [
            ((a, b), (l,), p, tuple((k, k) for k in range(rank_m)))
            for (a, b), out in module.algebra.structure.items()
            for l, p in out
        ]
        head = {f"lam{i}": lam[i + 1] for i in range(1, n)}
        head["del"] = dl + lam[1]
        rules = [(0, 0, head, {"lam": lam[1], "del": dl}, 1, left)]
        for i in range(1, n + 1):
            value_sub = {f"lam{j}": lam[j] for j in range(1, i)}
            if i < n:
                coeff_sub = {"lam": lam[i], "del": -(lam[i] + lam[i + 1])}
                value_sub[f"lam{i}"] = lam[i] + lam[i + 1]
                for j in range(i + 1, n):
                    value_sub[f"lam{j}"] = lam[j + 1]
            else:
                coeff_sub = {"lam": lam[n], "del": dl + lam_total - lam[n]}
            value_sub["del"] = dl
            rules.append((i - 1, i, value_sub, coeff_sub, (-1) ** i, products))
        tail = {f"lam{j}": lam[j] for j in range(1, n)}
        tail["del"] = -lam_total
        rules.append((n, n, tail, {"lam": lam_total, "del": dl}, (-1) ** (n + 1), right))

        # slot -> (lo, hi, value ring map, table, rank(A)^(n+1-lo),
        # rank(A)^(n-hi)); the table maps (cut, k) to ([(shift, moved
        # structure polynomial with the rule's sign), ...], {monomial:
        # image}), the images filled as asked for.  A shift is the code
        # part of the inserted generators and of the target generator s.
        self.slots: list[tuple[int, int, _RingMap, dict, int, int]] = []
        for lo, hi, value_sub, coeff_sub, sign, entries in rules:
            table: dict = {}
            for inserted, cut, poly, pairs in entries:
                moved = sign * poly.substitute(coeff_sub)
                index = 0
                for g in inserted:
                    index = index * radix + g
                for k, s in pairs:
                    shift = index * radix ** (n - hi) * rank_m + s
                    table.setdefault((cut, k), ([], {}))[0].append((shift, moved))
            ring = _RingMap(self.src_vars, value_sub)
            self.slots.append((lo, hi, ring, table, radix ** (n + 1 - lo), radix ** (n - hi)))

    def extent(self, max_degree: int) -> int:
        """The number of target monomials of degree <= max_degree."""
        width = len(self.dst_vars)
        return comb(max_degree + width, width)

    def limit(self, max_degree: int) -> int:
        """The smallest code of a target label above degree max_degree:
        the bound ``columns`` holds its codes below."""
        return self.extent(max_degree) * self.span

    def _rank(self, exp: tuple[int, ...]) -> int:
        """The place of a target monomial in the numbering, which is
        extended through the monomial's degree on first need."""
        place = self.numbering.get(exp)
        if place is None:
            known = len(self.monomials)
            for mono in islice(iter_monomials(self.dst_vars, sum(exp)), known, None):
                self.numbering[mono] = len(self.monomials)
                self.monomials.append(mono)
            place = self.numbering[exp]
        return place

    def code(self, label: tuple) -> int:
        """The code of a target label (tuple, s, exponent)."""
        tup, s, exp = label
        index = 0
        for g in tup:
            index = index * self.radix + g
        return self._rank(exp) * self.span + index * self.rank_m + s

    def label(self, code: int) -> tuple:
        """The target label (tuple, s, exponent) of a code that ``code`` or
        ``differential`` has formed."""
        place, rest = divmod(code, self.span)
        index, s = divmod(rest, self.rank_m)
        digits = []
        for _ in self.dst_vars:  # a target tuple has n + 1 entries, as many as variables
            index, g = divmod(index, self.radix)
            digits.append(g)
        return tuple(reversed(digits)), s, self.monomials[place]

    def _slots(self, tup: tuple, k: int) -> list:
        """(value ring map, entries, kept images, base added to every
        offset) at each slot where a source on (tup, generator k) has an
        image."""
        radix, rank_m = self.radix, self.rank_m
        # prefix[j] = index(tup[:j]); index(tup[hi:]) = whole - prefix[hi] * narrow
        prefix = [0]
        for g in tup:
            prefix.append(prefix[-1] * radix + g)
        whole = prefix[-1]
        out = []
        for lo, hi, ring, table, wide, narrow in self.slots:
            found = table.get((tup[lo:hi], k))
            if found is not None:
                entries, kept = found
                base = (prefix[lo] * wide + whole - prefix[hi] * narrow) * rank_m
                out.append((ring, entries, kept, base))
        return out

    def _image(self, ring: _RingMap, entries: list, mono: tuple) -> tuple:
        """The (offset, coeff) pairs of the basis monomial ``mono`` at one
        slot: its value moved by the slot's ring map times each entry."""
        moved = ring.image(mono or (0,))
        span = self.span
        return tuple(
            (self._rank(exp) * span + shift, c)
            for shift, poly in entries
            for exp, c in _mul_terms(moved, poly.terms).items()
        )

    def differential(self, values: Mapping) -> dict:
        """d of the cochain with these values {tuple: coordinate vector} as
        raw sums keyed by target code: each term c*m of the value on (tuple
        t, generator k) adds c times the kept image of the basis cochain
        (t, k, m) at each slot.  A reader normalizes each sum (``_coeff``)."""
        acc: dict = {}
        for tup, vec in values.items():
            for k, poly in enumerate(vec):
                terms = poly.terms
                slots = self._slots(tup, k) if terms else ()
                for mono, coeff in terms.items():
                    for ring, entries, kept, base in slots:
                        image = kept.get(mono)
                        if image is None:
                            image = kept[mono] = self._image(ring, entries, mono)
                        for offset, c in image:
                            if coeff != 1:
                                c = c * coeff
                            code = base + offset
                            acc[code] = acc[code] + c if code in acc else c
        return acc

    def columns(self, tup: tuple, k: int, monomials, limit: int):
        """d of each basis cochain (tup, k, m), m in ``monomials``, as sparse
        target-code coordinates, formed only when asked for; overflow if a
        code reaches ``limit``, worked out once as ``limit(max_degree)``."""
        slots = self._slots(tup, k) if monomials else ()
        for mono in monomials:
            acc: dict = {}
            for ring, entries, kept, base in slots:
                image = kept.get(mono)
                if image is None:
                    image = kept[mono] = self._image(ring, entries, mono)
                for offset, c in image:
                    code = base + offset
                    acc[code] = acc[code] + c if code in acc else c
            out = {}
            for code, c in acc.items():
                if c:
                    if code >= limit:
                        target, _, exp = self.label(code)
                        # the last monomial below the limit has degree
                        # max_degree; the numbering reaches past it
                        max_degree = sum(self.monomials[limit // self.span - 1])
                        raise TruncationOverflowError(
                            f"monomial {exp} on tuple {target} exceeds degree {max_degree}"
                        )
                    out[code] = c if type(c) is int else _coeff(c)
            yield out


def _stencil(module: BimoduleStructure, n: int) -> _Stencil:
    """The module's d_n: compiled on first use and kept on the module, the
    one way every caller reaches the stencil."""
    return _kept(module, ("stencil", n), lambda module: _Stencil(module, n))


def grading(module: BimoduleStructure) -> tuple[tuple, tuple, int | Fraction] | None:
    """Weights (w, u, b) that grade the complex, or None if none do.

    The input is graded when every term c*del^p*lam^q of every structure
    polynomial for x_i lam x_j -> x_k has p + q + w(k) - w(i) - w(j) = b,
    and likewise for both actions with u on the module side.  Then d maps
    a basis cochain (t, k, m) of weight |m| + u(k) - sum(w(t)) to labels
    of that weight plus b, so blocks of different weight never mix
    (Bakalov, Kac and Voronov, Cohomology of conformal algebras, 1999).
    One exact solve finds the weights, with one row per structure term;
    free unknowns are 0, and the module weights keep a free uniform
    shift.  Found on the first call and kept on the module.
    """
    return _kept(module, "grading", _solve_grading)


def _solve_grading(module: BimoduleStructure):
    rank_a = module.algebra.rank
    last = rank_a + module.rank  # unknowns: w(i) at i, u(k) at rank_a + k, b last
    # (table entry, output unknown, input unknowns, structure polynomial)
    entries = [
        (("product", i, j, k), k, (i, j), poly)
        for (i, j), out in module.algebra.structure.items()
        for k, poly in out
    ]
    entries += [
        (("left", g, k, s), rank_a + s, (g, rank_a + k), poly)
        for (g, k), out in (module.left or {}).items()
        for s, poly in out
    ]
    entries += [
        (("right", k, g, s), rank_a + s, (rank_a + k, g), poly)
        for (k, g), out in (module.right or {}).items()
        for s, poly in out
    ]
    columns: list[dict] = [{} for _ in range(last + 1)]
    target: dict = {}
    for entry, out, (first, second), poly in entries:
        for exp in poly.terms:
            row = (entry, exp)
            for col, c in ((out, 1), (first, -1), (second, -1), (last, -1)):
                columns[col][row] = columns[col].get(row, 0) + c
            target[row] = -sum(exp)
    solution = solve_columns(columns, target)
    if solution is None:
        return None
    return tuple(solution[:rank_a]), tuple(solution[rank_a:last]), solution[last]


@_frozen
class CohomologyReport:
    """The degree-<=D slice of Z and B at one degree n, as RREF bases in
    ``CochainIndex(algebra, module, n, D)`` coordinates; every dimension
    is read off them.  At n = 1 they are the derivations and the inner
    derivations in the slice.

    ``proof`` names why the coboundary slice is exact, not just a
    stabilized lower bound: ``"cocycles"`` when it fills the cocycle
    slice it lies in, ``"degree"`` at n <= 1, where round 0 already
    admits every source (each a constant class), ``"weights"`` on a
    graded input, where every source that can reach the slice is
    differentiated, else None.  ``stabilized`` and ``rounds`` describe
    the widening rounds alone.
    """

    degree: int
    degree_bound: int
    stabilization_margin: int
    cocycles: SubspaceBasis
    coboundaries: SubspaceBasis
    stabilized: bool
    rounds: int
    proof: str | None

    @property
    def dim_cocycles(self) -> int:
        return self.cocycles.dim

    @property
    def dim_coboundaries(self) -> int:
        return self.coboundaries.dim

    @property
    def dim_cohomology(self) -> int:
        return self.cocycles.dim - self.coboundaries.dim


def _slice_columns(module: BimoduleStructure, n: int, d: int) -> tuple[CochainIndex, list]:
    """The degree-<=D slice of n-cochains and the stencil column of d_n on
    each basis cochain, in order, within D plus the structure degree."""
    stencil = _stencil(module, n)
    limit = stencil.limit(d + module.structure_degree())
    index = CochainIndex(module.algebra, module, n, d)
    columns = [c for t, k in index.sources for c in stencil.columns(t, k, index.monomials, limit)]
    return index, columns


def _preimage(target: Cochain, max_degree: int) -> Cochain | None:
    """A cochain of value degree <= max_degree whose d is the target, or
    None: one exact solve on the slice's columns, checked on the raw sums."""
    module, n = target.module, target.degree - 1
    index, columns = _slice_columns(module, n, max_degree)
    code = _stencil(module, n).code
    coords = solve_columns(columns, {code(label): c for label, c in _terms(target)})
    if coords is None:
        return None
    found = _from_terms(n, module, zip(index.labels, coords))
    if not _differential_equals(found, target):
        raise ComplexInconsistencyError("witness reconstruction failed to verify")
    return found


def _coboundary_slice(
    module: BimoduleStructure,
    degree: int,
    window: TruncationWindow,
    max_rounds: int,
    columns: Sequence[Mapping],
) -> tuple[SubspaceBasis, SubspaceBasis, bool, int]:
    """Z and B intersected with the degree-<=D slice, B widened until stable.

    Z cap slice is the kernel of ``columns``, d on the slice's basis
    cochains (``_slice_columns``).  Round k takes sources of degree <=
    D + k*K.  Each source basis cochain that can reach the slice is
    differentiated once, in the round that first admits it, and must land
    within that round's target window; its image is inserted into one
    ``_SliceSpan`` kept across all rounds.  On a graded input (see
    ``grading``) a source whose weight plus b is no slice label's weight
    is skipped: its image lies in blocks outside the slice, so it cannot
    change B cap slice.  There d maps each weight block into one block,
    so B cap slice is spanned by the images of the sources that can reach
    it, and those have finitely many degrees, the largest S.  After the
    rounds the same span takes every such source up to degree S that no
    round admitted: on a graded input the basis returned is B cap slice
    exactly, whatever the rounds found.

    Round 0 runs first, with the slice's own dimension as its only
    ceiling.  Since d after d = 0 on every input `cohomology_dimensions`
    accepts, its rows lie in Z, so they seed the kernel (``exactla.kernel``
    with them as ``known``, which raises ContainmentError if one is not
    sent to 0): Z cap slice is their span plus the null space of the
    columns off their pivots, and only those columns are eliminated.
    The later rounds and the weight pass run under dim(Z cap slice): once
    the span holds that many rows of the slice it is all of B cap slice,
    since the RREF is unique, and the stencil's lazy columns form no
    further source.  The count of those rows is each round's dimension.
    A round that admits or differentiates no source still runs and counts
    toward ``rounds``, so every basis, flag and count is the one the full
    widening, skipping no source, gives.  Returns (cocycles,
    coboundaries, stabilized, rounds), the flag and count those of the
    rounds alone; degree 0 has no coboundaries and no rounds.
    """
    d = window.degree_bound
    bound = module.structure_degree()
    if degree == 0:
        # one degree-0 basis cochain per module generator
        return kernel(columns), SubspaceBasis.zero(module.rank), True, 0
    stencil = _stencil(module, degree - 1)
    # the slice's target codes, in CochainIndex(degree, D) order
    extent = stencil.extent(d)
    slice_codes = [
        place * stencil.span + rest for rest in range(stencil.span) for place in range(extent)
    ]
    image = _SliceSpan(slice_codes)
    sources = CochainIndex(module.algebra, module, degree - 1, 0).sources
    # (t, s) -> the source degrees whose labels can reach the slice, or
    # None for every degree on an ungraded input
    reach: dict = dict.fromkeys(sources)
    grades = grading(module)
    if grades is not None:
        w, u, b = grades
        # sum(w(t)) over the slice's target tuples, and the slice's weights
        sums = {0}
        for _ in range(degree):
            sums = {total + weight for total in sums for weight in w}
        slice_weights = {j + us - total for total in sums for us in u for j in range(d + 1)}
        for t, s in sources:
            shift = u[s] - sum(w[g] for g in t) + b
            reach[t, s] = {weight - shift for weight in slice_weights}
    variables = cochain_variables(degree - 1)
    filled = 0  # rows of B cap slice found so far, its dimension

    def admit(covered: int, top: int, ceiling: int) -> None:
        """Differentiate the sources of degree in (covered, top] that can
        reach the slice, until the span holds ``ceiling`` rows."""
        nonlocal filled
        limit = stencil.limit(top + bound)
        fresh = [(m, size) for m in iter_monomials(variables, top) if (size := sum(m)) > covered]
        for t, s in sources:
            if filled == ceiling:
                return
            degrees = reach[t, s]
            monomials = [m for m, size in fresh if degrees is None or size in degrees]
            for column in stencil.columns(t, s, monomials, limit):
                filled += image.insert(column)
                if filled == ceiling:
                    return

    admit(-1, d, len(slice_codes))  # round 0, whose rows seed the kernel
    cocycles = kernel(columns, image.echelon)
    ceiling = cocycles.dim
    covered, previous = d, filled  # sources of degree <= covered are differentiated
    stabilized, rounds = False, max_rounds + 1
    for k in range(1, max_rounds + 1):
        source_bound = d + k * window.stabilization_margin
        admit(covered, source_bound, ceiling)
        covered = source_bound
        if filled == previous:
            stabilized, rounds = True, k + 1
            break
        previous = filled
    if grades is not None and filled < ceiling:
        # the weight pass, up to S: the largest degree a source reaches by
        top = max((x for degrees in reach.values() for x in degrees if x == int(x)), default=-1)
        if top > covered:
            admit(covered, int(top), ceiling)
    return cocycles, image.basis(), stabilized, rounds


def cohomology_dimensions(
    algebra: ConformalAlgebra,
    module: BimoduleStructure,
    degree: int,
    window: TruncationWindow,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> CohomologyReport:
    """Truncated cohomology slice at one degree.

    Cocycles are exact within the slice.  Coboundaries are accumulated
    from sources of degree <= D + k*K for k = 0, 1, ...; once two
    consecutive rounds agree the dimension is reported as stabilized.
    On a graded input the sources that can still reach the slice are
    then taken as well, so B is exact whatever the flag reads.
    Round 0 comes first, and its rows of B seed the kernel that computes
    the cocycles; their dimension is the ceiling of the later rounds:
    once B cap slice has as many rows, no further source is
    differentiated, though every round still runs and counts.  A
    non-associative algebra raises NonAssociativeError and a two-sided
    module that breaks its laws UnfitModuleError, before anything is
    computed, so d after d = 0 holds and ComplexInconsistencyError, if a
    row of B escapes Z, means a bug.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if module.algebra != algebra:
        raise ValueError("module is over a different algebra")
    if associativity_failure(algebra) is not None:
        raise NonAssociativeError("algebra is not associative")
    # a module that lacks an action is refused by its stencil
    if module.has_left and module.has_right and axiom_failure(module) is not None:
        raise UnfitModuleError("module violates its axiom system")
    d = window.degree_bound
    columns = _slice_columns(module, degree, d)[1]
    try:
        cocycles, coboundaries, stabilized, rounds = _coboundary_slice(
            module, degree, window, max_rounds, columns
        )
        exact = quotient_dimension(cocycles, coboundaries) == 0
    except ContainmentError as exc:
        raise ComplexInconsistencyError(
            "coboundary slice escapes the cocycle space: d after d is not zero"
        ) from exc
    return CohomologyReport(
        degree=degree,
        degree_bound=d,
        stabilization_margin=window.stabilization_margin,
        cocycles=cocycles,
        coboundaries=coboundaries,
        stabilized=stabilized,
        rounds=rounds,
        proof="cocycles" if exact
        else "degree" if degree <= 1
        else "weights" if grading(module) is not None
        else None,
    )
