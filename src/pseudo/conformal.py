"""Finite associative conformal algebras presented by structure polynomials.

An algebra is a free module over the one-variable polynomial ring in
``del`` with a finite generator list; the product of two generators is

    a_i lam a_j  =  sum_k  P_ijk(lam, del) a_k.

The product of general elements follows by sesquilinearity: a ``del`` in
the left argument's coefficient turns into -lam, one in the right
argument's coefficient turns into lam + del.  Associativity

    (a lam b) (lam+mu) c  =  a lam (b mu c)

is then a polynomial identity in lam, mu, del for every generator triple,
which `check_associativity` verifies exactly.  The module laws in
`cfmodule` have the same shape, and so does the first-order part of a
deformed product in `constructions`, whose twist is read as one more
structure table, so all of them share one kernel: `_law_tables` moves
each table a law reads into raw term maps over (del, lam, mu), through
the four law maps of `_LAW_MAPS`, one ring map each, built once per
process and shared by every law, table and call, so a monomial's image
under each map is formed once per process, and
`_law_sides` composes the two orders on a triple from those term maps
into raw sums keyed (target generator, exponent), the right-nested order
subtracted.  No `Poly` is built per term: `_finish` turns each surviving
sum into a coefficient once.  A checker fills one accumulator, the
residual, per triple, and runs only the first failing triple again into
two, for the sides of its counterexample (`_first_failure`).
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Mapping

from .polyring import Poly, VariableMismatchError, _RingMap, _coeff, _frozen

# arenas: structure polynomials live in (del, lam); both sides of the
# associativity identity live in (del, lam, mu)
PRODUCT_VARS = ("del", "lam")
ASSOC_VARS = ("del", "lam", "mu")

StructureMap = Mapping[tuple[int, int], tuple[tuple[int, Poly], ...]]


def _validate_structure(
    structure: Mapping, *, first: int, second: int, target: int
) -> dict[tuple[int, int], tuple[tuple[int, Poly], ...]]:
    """Normalize a {(i, j): [(k, poly), ...]} table; drop zeros, reject dups.

    ``first``/``second`` bound the key indices, ``target`` bounds k.
    """
    clean: dict[tuple[int, int], tuple[tuple[int, Poly], ...]] = {}
    for (i, j), entries in structure.items():
        i, j = operator.index(i), operator.index(j)
        if not (0 <= i < first and 0 <= j < second):
            raise ValueError(f"generator index out of range in {(i, j)}")
        seen = set()
        kept = []
        for k, poly in entries:
            k = operator.index(k)
            if not (0 <= k < target):
                raise ValueError(f"target index {k} out of range")
            if k in seen:
                raise ValueError(f"duplicate target {k} for pair {(i, j)}")
            seen.add(k)
            if poly.variables != PRODUCT_VARS:
                raise VariableMismatchError(
                    f"structure polynomial must be over {PRODUCT_VARS}, got {poly.variables}"
                )
            if not poly.is_zero:
                kept.append((k, poly))
        if kept:
            clean[(i, j)] = tuple(sorted(kept, key=lambda e: e[0]))
    return clean


def _table_degree(table: StructureMap) -> int:
    """Largest total degree among a table's polynomials (0 if none)."""
    return max(
        (poly.total_degree() for entries in table.values() for _, poly in entries),
        default=0,
    )


@_frozen
class ConformalAlgebra:
    """Generator names plus the structure polynomial table.

    ``_memo`` holds what is derived from this object once and kept on it
    (see `_kept`); it takes no part in ``==``, the hash or ``repr``.
    """

    generators: tuple[str, ...]
    structure: StructureMap
    _memo: dict

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        rank = len(self.generators)
        clean = _validate_structure(self.structure, first=rank, second=rank, target=rank)
        object.__setattr__(self, "structure", clean)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def structure_degree(self) -> int:
        """Largest total degree among structure polynomials (0 if none)."""
        return _table_degree(self.structure)


def _kept(owner, key, derive: Callable):
    """``derive(owner)``, computed on the first request for ``key`` and
    kept in ``owner._memo``, so it is freed with that one object and an
    equal but distinct object derives it again.  The regular module kept
    on an algebra points back to it, so such an algebra, its module and
    what is kept on both are reclaimed together by the cycle collector,
    not when the last outside reference goes."""
    memo = owner._memo
    if key not in memo:
        memo[key] = derive(owner)
    return memo[key]


@_frozen
class LawCounterexample:
    """First generator triple on which a law's two association orders differ.

    ``law`` is "associativity" for the algebra, or the module law "left",
    "right" or "compat" (see ``cfmodule.check_module_axioms``).
    """

    law: str
    triple: tuple[int, int, int]
    lhs: tuple[Poly, ...]
    rhs: tuple[Poly, ...]

    @property
    def residual(self) -> tuple[Poly, ...]:
        return tuple(l - r for l, r in zip(self.lhs, self.rhs))


# law -> the generators each slot of its triple runs over: "a" the
# algebra's, "m" the module's.  `check_module_axioms` takes its triple
# ranges from it, and a report its generator names
LAW_SLOTS = {"associativity": "aaa", "left": "aam", "right": "maa", "compat": "ama"}


# (x_i lam x_j) (lam+mu) x_k: the del inside the first product rides on
# the intermediate generator, so it becomes -(lam+mu) in the second one
_LAM, _MU, _DEL = (Poly.var(ASSOC_VARS, v) for v in ("lam", "mu", "del"))
_FIRST = {"lam": _LAM, "del": -(_LAM + _MU)}
_SECOND = {"lam": _LAM + _MU, "del": _DEL}
# x_i lam (x_j mu x_k): the del inside the inner product rides on the right
# argument of the outer product, so it shifts to lam + del
_INNER = {"lam": _MU, "del": _LAM + _DEL}
_OUTER = {"lam": _LAM, "del": _DEL}


# the law maps of structure tables: every checker's, for all its laws,
# and those of both placements of a deformation's twist
_LAW_MAPS = (_RingMap(PRODUCT_VARS, _FIRST), _RingMap(PRODUCT_VARS, _SECOND),
             _RingMap(PRODUCT_VARS, _INNER), _RingMap(PRODUCT_VARS, _OUTER))


def _law_tables(
    first: StructureMap,
    second: StructureMap,
    inner: StructureMap,
    outer: StructureMap,
) -> tuple:
    """The four tables of one law, each moved by its law map.

    Each table maps an index pair (a, b) to the (target, terms) entries of
    x_a lam x_b, the terms the raw (exponent, coeff) items of
    `polyring._RingMap.raw` over ASSOC_VARS, so one kernel serves
    associativity, every module law and both placements of a deformation's
    twist, each table moved by the `_LAW_MAPS` entry of its place; a table
    over variables other than PRODUCT_VARS raises VariableMismatchError.
    """
    return tuple(
        {key: [(k, ring.raw(p).items()) for k, p in entries] for key, entries in table.items()}
        for ring, table in zip(_LAW_MAPS, (first, second, inner, outer))
    )


def _law_sides(tables: tuple, i: int, j: int, k: int, left: dict, right: dict) -> None:
    """Both association orders on (x_i, x_j, x_k) from `_law_tables`.

    Adds ``(x_i lam x_j) (lam+mu) x_k``, composed from ``first`` then
    ``second``, into ``left`` and subtracts ``x_i lam (x_j mu x_k)``,
    composed from ``inner`` then ``outer``, from ``right``, as raw sums
    keyed (target generator, exponent).  Given one dict for both, it
    accumulates the residual; `_finish` reads the sums.
    """
    first, second, inner, outer = tables
    for l, head in first.get((i, j), ()):
        for m, tail in second.get((l, k), ()):
            _add_product(left, m, head, tail, 1)
    for l, head in inner.get((j, k), ()):
        for m, tail in outer.get((i, l), ()):
            _add_product(right, m, head, tail, -1)


def _add_product(acc: dict, m: int, head, tail, sign: int) -> None:
    """Add sign * head * tail, two raw term items over ASSOC_VARS, into
    the sums of acc keyed (m, exponent)."""
    for (e0, e1, e2), c1 in head:
        c1 = sign * c1
        for (f0, f1, f2), c2 in tail:
            key = (m, (e0 + f0, e1 + f1, e2 + f2))
            c = c1 * c2
            acc[key] = acc[key] + c if key in acc else c


def _finish(acc: dict) -> dict[int, Poly]:
    """The nonzero sums of an accumulator keyed (target, exponent) as
    {target: poly} in target order, each coefficient normalized once."""
    terms: dict[int, dict] = {}
    for (m, exp), c in acc.items():
        if c:
            terms.setdefault(m, {})[exp] = _coeff(c)
    return {m: Poly._raw(ASSOC_VARS, terms[m]) for m in sorted(terms)}


def _first_failure(tables: tuple, triples, rank: int):
    """The first triple whose residual is nonzero, with its left-nested and
    right-nested sides as dense tuples of polys; None if every one holds.

    Each triple fills one accumulator; only the failing one is run again
    into two, to read its sides apart.
    """
    for triple in triples:
        acc: dict = {}
        _law_sides(tables, *triple, acc, acc)
        if any(acc.values()):
            left: dict = {}
            right: dict = {}
            _law_sides(tables, *triple, left, right)
            right = {key: -c for key, c in right.items()}
            return triple, _dense(left, rank), _dense(right, rank)
    return None


def _dense(acc: dict, rank: int) -> tuple[Poly, ...]:
    sides = _finish(acc)
    return tuple(sides.get(m, Poly.zero(ASSOC_VARS)) for m in range(rank))


def check_associativity(algebra: ConformalAlgebra) -> LawCounterexample | None:
    """None when every generator triple associates; else the first failure.

    The residual is left-nested minus right-nested.
    """
    rank, table = algebra.rank, algebra.structure
    tables = _law_tables(table, table, table, table)
    failure = _first_failure(tables, itertools.product(range(rank), repeat=3), rank)
    if failure is None:
        return None
    triple, left_nested, right_nested = failure
    return LawCounterexample("associativity", triple, left_nested, right_nested)


class NonAssociativeError(ValueError):
    """An algebra breaks associativity where a computation on it needs
    it: a fault of the input, not of the program."""


def associativity_failure(algebra: ConformalAlgebra) -> LawCounterexample | None:
    """`check_associativity` on ``algebra``, run on the first call and kept
    on it: the one verdict every check of an algebra's fitness reads."""
    return _kept(algebra, "associativity", check_associativity)

