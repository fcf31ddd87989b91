"""Conformal modules over a conformal algebra, and conformal linear maps.

A module structure is presented the same way as an algebra: finitely many
generators over the polynomial ring in ``del`` and action tables

    a_i lam u_j = sum_k L_ijk(lam, del) u_k      (left)
    u_j lam a_i = sum_k R_jik(lam, del) u_k      (right)

Either table may be absent.  `check_module_axioms` verifies the left
axiom, the right axiom and the two-sided compatibility law, each as an
exact polynomial identity in (del, lam, mu) on generator triples.  Every
law composes two tables the way associativity does, so it shares the law
kernel with `check_associativity`: `conformal._law_tables` moves each
law's four tables into raw term maps through the four law maps of
`conformal._LAW_MAPS`, built once per process and shared by all three
laws and every call, and `conformal._first_failure` sums each triple's
residual from them without building a `Poly` per term.

A conformal linear map f: M -> N is a matrix of polynomials in (del, lam):
f_lam(u_j) = sum_k F_jk(lam, del) v_k, subject to f_lam(del u) =
(lam + del) f_lam(u).  A family of them, one per algebra generator, is
the gluing data of a module extension; its Chom differential is
`constructions.extension_residuals`.  Every reader takes the tables and
matrices as the dicts they are: ``left``, ``right`` and ``matrix``.
"""

from __future__ import annotations

import itertools
import operator
from typing import Mapping, Optional

from .conformal import (
    LAW_SLOTS,
    PRODUCT_VARS,
    ConformalAlgebra,
    LawCounterexample,
    StructureMap,
    _first_failure,
    _kept,
    _law_tables,
    _table_degree,
    _validate_structure,
)
from .polyring import Poly, VariableMismatchError, _frozen


class UnfitModuleError(ValueError):
    """A module lacks an action, or breaks a law, that a construction on it
    needs: a fault of the input, not of the program."""


@_frozen
class BimoduleStructure:
    """Module generators plus left/right action tables (either may be None).

    ``left[(i, j)]`` lists (k, L) for a_i lam u_j; ``right[(j, i)]`` lists
    (k, R) for u_j lam a_i.  A present-but-empty table is the zero action;
    None means the structure genuinely lacks that side.  ``_memo`` holds
    what is derived from this object once and kept on it, as on
    `ConformalAlgebra`; it takes no part in ``==``, the hash or ``repr``.
    """

    algebra: ConformalAlgebra
    generators: tuple[str, ...]
    left: Optional[StructureMap]
    right: Optional[StructureMap]
    _memo: dict

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate module generator names")
        if self.left is None and self.right is None:
            raise ValueError("at least one action table is required")
        rank = len(self.generators)
        if self.left is not None:
            clean = _validate_structure(
                self.left, first=self.algebra.rank, second=rank, target=rank
            )
            object.__setattr__(self, "left", clean)
        if self.right is not None:
            clean = _validate_structure(
                self.right, first=rank, second=self.algebra.rank, target=rank
            )
            object.__setattr__(self, "right", clean)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def has_left(self) -> bool:
        return self.left is not None

    @property
    def has_right(self) -> bool:
        return self.right is not None

    def structure_degree(self) -> int:
        """Largest total degree among the algebra's and both actions'
        polynomials, found on the first call and kept on the module."""
        return _kept(self, "structure_degree", lambda module: max([
            module.algebra.structure_degree(),
            *(_table_degree(t) for t in (module.left, module.right) if t is not None),
        ]))

    @classmethod
    def regular(cls, algebra: ConformalAlgebra) -> "BimoduleStructure":
        """The algebra acting on itself on both sides: one module per
        algebra object, kept on it, so what is kept on the module serves
        every caller."""
        return _kept(algebra, "regular", lambda algebra: cls(
            algebra=algebra,
            generators=algebra.generators,
            left=dict(algebra.structure),
            right=dict(algebra.structure),
        ))


def check_module_axioms(module: BimoduleStructure) -> LawCounterexample | None:
    """Verify every applicable module law; None means all pass.

    The laws run in the order left, right, compat, each over its triples in
    lexicographic order, whose slots `conformal.LAW_SLOTS` names; the
    residual is right-nested minus left-nested.  The left law runs first,
    so a module breaks it exactly when the verdict names "left".  Assumes
    the underlying algebra is associative (run check_associativity first);
    the verdict on a non-associative algebra is not meaningful.
    """
    sizes = {"a": module.algebra.rank, "m": module.rank}
    P, L, R = module.algebra.structure, module.left, module.right
    laws = (
        # a_i lam (a_j mu u_t)  vs  (a_i lam a_j) (lam+mu) u_t
        ("left", module.has_left, (P, L, L, L)),
        # u_t lam (a_i mu a_j)  vs  (u_t lam a_i) (lam+mu) a_j
        ("right", module.has_right, (R, R, P, R)),
        # a_i lam (u_t mu a_j)  vs  (a_i lam u_t) (lam+mu) a_j
        ("compat", module.has_left and module.has_right, (L, R, R, L)),
    )
    # every law reads the same four process-wide law maps, so a monomial
    # any table shares with another, or with an earlier call, is expanded
    # once per map
    for law, applies, tables in laws:
        if not applies:
            continue
        triples = itertools.product(*(range(sizes[slot]) for slot in LAW_SLOTS[law]))
        failure = _first_failure(_law_tables(*tables), triples, module.rank)
        if failure is not None:
            triple, left_nested, right_nested = failure
            return LawCounterexample(law, triple, right_nested, left_nested)
    return None


def axiom_failure(module: BimoduleStructure) -> LawCounterexample | None:
    """`check_module_axioms` on ``module``, run on the first call and kept
    on it: the one verdict every check of a module's fitness reads."""
    return _kept(module, "axioms", check_module_axioms)


@_frozen
class CLinearMap:
    """Conformal linear map between free modules, as a generator matrix.

    ``matrix[(j, k)]`` is the coefficient of the k-th target generator in
    f_lam(u_j), a polynomial in (del, lam).  Absent entries are zero.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    matrix: Mapping[tuple[int, int], Poly]

    def __post_init__(self):
        clean = {}
        for (j, k), poly in self.matrix.items():
            j, k = operator.index(j), operator.index(k)
            if not (0 <= j < len(self.source) and 0 <= k < len(self.target)):
                raise ValueError(f"matrix index {(j, k)} out of range")
            if poly.variables != PRODUCT_VARS:
                raise VariableMismatchError(
                    f"map entries must be over {PRODUCT_VARS}, got {poly.variables}"
                )
            if not poly.is_zero:
                clean[(j, k)] = poly
        object.__setattr__(self, "matrix", clean)

    @classmethod
    def zero(cls, source: tuple[str, ...], target: tuple[str, ...]) -> "CLinearMap":
        return cls(source, target, {})

    def is_zero(self) -> bool:
        return not self.matrix

    def __add__(self, other: "CLinearMap") -> "CLinearMap":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("map shapes differ")
        matrix = dict(self.matrix)
        for key, poly in other.matrix.items():
            matrix[key] = matrix[key] + poly if key in matrix else poly
        return CLinearMap(self.source, self.target, matrix)

    def __sub__(self, other: "CLinearMap") -> "CLinearMap":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "CLinearMap":
        return CLinearMap(
            self.source, self.target, {k: p * factor for k, p in self.matrix.items()}
        )
