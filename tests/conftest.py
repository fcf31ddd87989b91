import os
import pathlib
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import pseudo.conformal as conformal
import pseudo.constructions as constructions
from pseudo.cfmodule import BimoduleStructure
from pseudo.cohomology import Cochain, cochain_variables
from pseudo.conformal import ASSOC_VARS, PRODUCT_VARS, ConformalAlgebra
from pseudo.exactla import SubspaceBasis, _span
from pseudo.formats import parse_algebra, parse_fd_algebra, parse_module
from pseudo.polyring import Poly, _RingMap

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("exact")

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"
# U1 and U2: rank two, structure polynomials of mixed degree; U2 is
# a lam a = a + del b
U1_PATH = INPUTS.parent / "perfbench" / "algebras" / "u1.alg"
U2_PATH = INPUTS.parent / "perfbench" / "algebras" / "u2.alg"


def src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, so a
    child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(INPUTS.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fd_algebra(name: str) -> ConformalAlgebra:
    """The current algebra of the finite-dimensional algebra in inputs/<name>.fda."""
    return parse_fd_algebra((INPUTS / f"{name}.fda").read_text(encoding="utf-8"))


def committed_modules():
    """(file, module) for every committed definition: the regular module
    of each algebra (fd algebras as their current algebras) and each
    module file over cur1."""
    cur1 = parse_algebra((INPUTS / "cur1.alg").read_text(encoding="utf-8"))
    for path in sorted(INPUTS.glob("*.alg")) + [U1_PATH, U2_PATH]:
        algebra = parse_algebra(path.read_text(encoding="utf-8"))
        yield path.name, BimoduleStructure.regular(algebra)
    for path in sorted(INPUTS.glob("*.fda")):
        algebra = parse_fd_algebra(path.read_text(encoding="utf-8"))
        yield path.name, BimoduleStructure.regular(algebra)
    for path in sorted(INPUTS.glob("*.mod")):
        yield path.name, parse_module(path.read_text(encoding="utf-8"), cur1)


def free_rank_one(product: Poly | None = None) -> ConformalAlgebra:
    """Rank-one algebra with e lam e = product (default: the unit current algebra)."""
    if product is None:
        product = Poly.const(PRODUCT_VARS, 1)
    structure = {(0, 0): ((0, product),)} if not product.is_zero else {}
    return ConformalAlgebra(("e",), structure)


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


def tensor_product(left: ConformalAlgebra, right: ConformalAlgebra) -> ConformalAlgebra:
    """Current algebra of A ⊗ B, from the constant tables of Cur A and
    Cur B, on the generators a ⊗ b (A's index major), named a_b:
    (a ⊗ b)(a' ⊗ b') = aa' ⊗ bb'."""
    a, b = structure_constants(left), structure_constants(right)
    m = right.rank
    pairs = list(iter_product(range(left.rank), range(m)))
    structure = {}
    for i, j in pairs:
        for k, l in pairs:
            entries = [(p * m + q, Poly.const(PRODUCT_VARS, a[i][k][p] * b[j][l][q]))
                       for p, q in pairs if a[i][k][p] and b[j][l][q]]
            if entries:
                structure[(i * m + j, k * m + l)] = entries
    names = tuple(f"{x}_{y}" for x in left.generators for y in right.generators)
    return ConformalAlgebra(names, structure)


def subspace(ambient_dimension: int, vectors) -> SubspaceBasis:
    """The span of dense vectors in Q^ambient_dimension."""
    rows = ({j: Fraction(v) for j, v in enumerate(vec) if v} for vec in vectors)
    return SubspaceBasis(ambient_dimension, _span(rows))


def unit_cochain(index, i: int):
    """Basis cochain i of a CochainIndex."""
    return index.reconstruct([int(j == i) for j in range(index.dimension)])


# Classical oracles: each solves the defining equations of the center, the
# derivations or the inner derivations of a finite-dimensional algebra A
# directly from its structure constants, apart from the cochain complex
# that pseudo classical reads the same dimensions from.  A is given as its
# current algebra, a constant table.


def structure_constants(algebra: ConformalAlgebra) -> list[list[list[Fraction]]]:
    """``c[i][j][k]``: the coefficient of generator k in the product of
    generators i and j of a constant table."""
    n = algebra.rank
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), entries in algebra.structure.items():
        for k, poly in entries:
            if poly.total_degree():
                raise ValueError("structure_constants expects a constant table")
            c[i][j][k] = poly.constant_term()
    return c


def center_dimension(algebra: ConformalAlgebra) -> int:
    """dim of the commutant {z : za = az for all a}; independent of the
    bar complex, so it cross-checks HH^0 with regular coefficients."""
    n = algebra.rank
    c = structure_constants(algebra)
    rows = [[c[z][a][k] - c[a][z][k] for z in range(n)] for a in range(n) for k in range(n)]
    return len(fraction_kernel(rows, n))


def derivation_space_dimension(algebra: ConformalAlgebra) -> int:
    """Linear maps D with D(ab) = D(a)b + a D(b), by brute-force solve."""
    n = algebra.rank
    c = structure_constants(algebra)
    # unknowns D[p][q], in column p * n + q: D(e_p) = sum_q D[p][q] e_q
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for l in range(n):
                    # D applied to the product
                    row[l * n + m] += c[i][j][l]
                    # minus D(e_i) e_j
                    row[i * n + l] -= c[l][j][m]
                    # minus e_i D(e_j)
                    row[j * n + l] -= c[i][l][m]
                rows.append(row)
    return len(fraction_kernel(rows, n * n))


def inner_derivation_space_dimension(algebra: ConformalAlgebra) -> int:
    """Span of the commutator maps x -> ax - xa."""
    n = algebra.rank
    c = structure_constants(algebra)
    vectors = []
    for a in range(n):
        vec = [Fraction(0)] * (n * n)
        for p in range(n):
            for q in range(n):
                vec[p * n + q] = c[a][p][q] - c[p][a][q]
        vectors.append(vec)
    return len(fraction_rref(vectors, n * n)[1])


# The term-by-term differential: each slot's substitutions are written out
# again here, apart from the compiled stencil that apply_dn and the slices
# share, so the tests can compare the two.


def reference_d0(cochain: Cochain) -> Cochain:
    """Differential of a degree-0 class u: a |-> a_{-del} u - u_0 a."""
    if cochain.degree != 0:
        raise ValueError("reference_d0 expects a degree-0 cochain")
    module = cochain.module
    if not (module.has_left and module.has_right):
        raise ValueError("degree-0 differential needs both module actions")
    algebra = cochain.algebra
    u = [p.constant_term() for p in cochain.values.get((), ())]
    dl = Poly.var(("del",), "del")
    values: dict[tuple[int, ...], tuple[Poly, ...]] = {}
    for i in range(algebra.rank):
        vec = [Poly.zero(("del",)) for _ in range(module.rank)]
        for j, coeff in enumerate(u):
            if not coeff:
                continue
            # expand a_i lam u_j fully, then substitute lam -> -del
            for k, l_ijk in module.left.get((i, j), ()):
                vec[k] = vec[k] + coeff * l_ijk.substitute({"lam": -dl, "del": dl})
            # u_j lam a_i at lam = 0
            for k, r_jik in module.right.get((j, i), ()):
                vec[k] = vec[k] - coeff * r_jik.substitute(
                    {"lam": Poly.zero(("del",)), "del": dl}
                )
        if any(not p.is_zero for p in vec):
            values[(i,)] = tuple(vec)
    return Cochain(1, algebra, module, values)


def check_h0_representative(
    algebra: ConformalAlgebra, module: BimoduleStructure, coords: Sequence
) -> list[Poly]:
    """Residuals a_{-del} u - u_0 a of the constant vector u, every
    coordinate of every generator in turn, zeros included.

    A representative of a degree-0 class is valid exactly when every
    residual coordinate is zero.  They are read off `reference_d0`, the
    term-by-term differential, rather than the kernel arithmetic.
    """
    u = Cochain(0, algebra, module, {(): tuple(Poly.const((), Fraction(c)) for c in coords)})
    values = reference_d0(u).values
    zero = (Poly.zero(("del",)),) * module.rank
    return [p for i in range(algebra.rank) for p in values.get((i,), zero)]


def reference_dn(cochain: Cochain) -> Cochain:
    """Differential of an n-cochain for n >= 1 (see module docstring)."""
    n = cochain.degree
    if n < 1:
        raise ValueError("reference_dn expects degree >= 1; use reference_d0")
    module = cochain.module
    if not module.has_left:
        raise ValueError("the differential needs a left action")
    if not module.has_right:
        raise ValueError("the differential needs a right action")
    algebra = cochain.algebra
    dst_vars = cochain_variables(n + 1)
    dl = Poly.var(dst_vars, "del")
    lam = [None] + [Poly.var(dst_vars, f"lam{i}") for i in range(1, n + 1)]
    lam_total = Poly.zero(dst_vars)
    for i in range(1, n + 1):
        lam_total = lam_total + lam[i]
    lam_head = lam_total - lam[n]  # lam1 + ... + lam(n-1)
    sign_last = 1 if (n + 1) % 2 == 0 else -1

    # every polynomial is substituted once per call: each structure table
    # (its sign folded in) and each cochain value once per slot kind
    def moved_table(table, bindings, sign=1):
        return {
            key: [(k, sign * poly.substitute(bindings)) for k, poly in entries]
            for key, entries in table.items()
        }

    def moved_values(bindings):
        return {
            key: [(k, poly.substitute(bindings)) for k, poly in enumerate(vec) if not poly.is_zero]
            for key, vec in cochain.values.items()
        }

    # head term: g1 lam1 phi(g2 ... g_{n+1}); the cochain variables shift
    # one slot right and del rides the module value
    shift = {f"lam{i}": lam[i + 1] for i in range(1, n)}
    shift["del"] = dl + lam[1]
    head_values = moved_values(shift)
    left = moved_table(module.left, {"lam": lam[1], "del": dl})

    # middle terms: slot i absorbs the product g_i lam_i g_{i+1}
    middles = []
    for i in range(1, n + 1):
        if i < n:
            # the product sits in a non-last slot: its del becomes
            # -(lam_i + lam_{i+1}), the merged cochain variable
            coeff_sub = {"lam": lam[i], "del": -(lam[i] + lam[i + 1])}
            value_sub = {f"lam{j}": lam[j] for j in range(1, i)}
            value_sub[f"lam{i}"] = lam[i] + lam[i + 1]
            for j in range(i + 1, n):
                value_sub[f"lam{j}"] = lam[j + 1]
        else:
            # the product sits in the last slot: shift rule with the
            # cochain's own variables lam1 .. lam(n-1)
            coeff_sub = {"lam": lam[n], "del": dl + lam_head}
            value_sub = {f"lam{j}": lam[j] for j in range(1, n)}
        value_sub["del"] = dl
        sign = -1 if i % 2 else 1
        middles.append(
            (i, moved_values(value_sub), moved_table(algebra.structure, coeff_sub, sign))
        )

    # tail term: phi(g1 ... gn) (lam1+...+lamn) g_{n+1}; the value's del
    # becomes minus the total action variable
    value_sub = {f"lam{j}": lam[j] for j in range(1, n)}
    value_sub["del"] = -lam_total
    tail_values = moved_values(value_sub)
    right = moved_table(module.right, {"lam": lam_total, "del": dl}, sign_last)

    values: dict[tuple[int, ...], tuple[Poly, ...]] = {}
    for gens in iter_product(range(algebra.rank), repeat=n + 1):
        acc = [Poly.zero(dst_vars) for _ in range(module.rank)]
        for k, moved in head_values.get(gens[1:], ()):
            for s, l_ks in left.get((gens[0], k), ()):
                acc[s] = acc[s] + moved * l_ks
        for i, moved_inner, products in middles:
            for l, coeff in products.get((gens[i - 1], gens[i]), ()):
                key = gens[: i - 1] + (l,) + gens[i + 1 :]
                for k, moved in moved_inner.get(key, ()):
                    acc[k] = acc[k] + coeff * moved
        for k, moved in tail_values.get(gens[:n], ()):
            for s, r_ks in right.get((k, gens[n]), ()):
                acc[s] = acc[s] + moved * r_ks
        if any(not p.is_zero for p in acc):
            values[gens] = tuple(acc)
    return Cochain(n + 1, algebra, module, values)


# The law kernel term by term: every table entry moved by Poly.substitute
# and the two association orders composed with Poly * and +, apart from
# the raw-term kernel the checkers share, so the tests can compare the two.

_LAM3, _MU3, _DEL3 = (Poly.var(ASSOC_VARS, v) for v in ("lam", "mu", "del"))
# (x_i lam x_j) (lam+mu) x_k from first then second; x_i lam (x_j mu x_k)
# from inner then outer
REFERENCE_LAW_MAPS = (
    {"lam": _LAM3, "del": -(_LAM3 + _MU3)},
    {"lam": _LAM3 + _MU3, "del": _DEL3},
    {"lam": _MU3, "del": _LAM3 + _DEL3},
    {"lam": _LAM3, "del": _DEL3},
)


def reference_law_sides(tables, rank: int):
    """The function (i, j, k) -> (left-nested, right-nested) of one law,
    each side a tuple of ``rank`` polys; ``tables`` is (first, second,
    inner, outer), each entry substituted once here."""
    first, second, inner, outer = (
        {key: [(t, poly.substitute(bindings)) for t, poly in entries]
         for key, entries in table.items()}
        for table, bindings in zip(tables, REFERENCE_LAW_MAPS)
    )

    def sides(i, j, k):
        left = [Poly.zero(ASSOC_VARS) for _ in range(rank)]
        right = [Poly.zero(ASSOC_VARS) for _ in range(rank)]
        for l, p in first.get((i, j), ()):
            for m, q in second.get((l, k), ()):
                left[m] = left[m] + p * q
        for l, p in inner.get((j, k), ()):
            for m, q in outer.get((i, l), ()):
                right[m] = right[m] + p * q
        return tuple(left), tuple(right)

    return sides


def reference_law_failure(tables, triples, rank: int):
    """(triple, left-nested, right-nested) of the first triple whose two
    orders differ, or None."""
    sides = reference_law_sides(tables, rank)
    for triple in triples:
        left, right = sides(*triple)
        if left != right:
            return triple, left, right
    return None


def reference_check_associativity(algebra: ConformalAlgebra):
    """(law, triple, lhs, rhs) of the first failing triple, or None."""
    table = algebra.structure
    triples = iter_product(range(algebra.rank), repeat=3)
    failure = reference_law_failure((table,) * 4, triples, algebra.rank)
    return None if failure is None else ("associativity", *failure)


def reference_check_module_axioms(module: BimoduleStructure):
    """(law, triple, lhs, rhs) of the first failing module law, its lhs
    right-nested, or None."""
    na, nm = module.algebra.rank, module.rank
    P, L, R = module.algebra.structure, module.left, module.right
    laws = (
        ("left", module.has_left, (na, na, nm), (P, L, L, L)),
        ("right", module.has_right, (nm, na, na), (R, R, P, R)),
        ("compat", module.has_left and module.has_right, (na, nm, na), (L, R, R, L)),
    )
    for law, applies, sizes, tables in laws:
        if applies:
            failure = reference_law_failure(tables, iter_product(*map(range, sizes)), nm)
            if failure is not None:
                triple, left, right = failure
                return law, triple, right, left
    return None


def reference_deformation_residuals(algebra: ConformalAlgebra, cocycle: Cochain) -> dict:
    """{(a, b, c, s): poly}: both placements of the twist F in the law of
    P + eps F, left-nested minus right-nested, zeros dropped."""
    n, products = algebra.rank, algebra.structure
    lam = {"lam1": Poly.var(PRODUCT_VARS, "lam")}
    twist = {key: [(k, poly.substitute(lam))
                   for k, poly in enumerate(vec) if not poly.is_zero]
             for key, vec in cocycle.values.items()}
    pf = reference_law_sides((products, twist, products, twist), n)
    fp = reference_law_sides((twist, products, twist, products), n)
    out = {}
    for triple in iter_product(range(n), repeat=3):
        (l1, r1), (l2, r2) = pf(*triple), fp(*triple)
        for s in range(n):
            residual = l1[s] + l2[s] - r1[s] - r2[s]
            if not residual.is_zero:
                out[(*triple, s)] = residual
    return out


def reference_gamma_coboundary(sub: BimoduleStructure, quotient: BimoduleStructure,
                               b_matrix: dict) -> dict:
    """{(i, t, s, exponent): Fraction}: a_i . B(n_t) - B(a_i . n_t) summed
    term by term with the fraction helpers, no ring map; B's del moves to
    lam + del in the first term and stays del in the second."""
    shift = {"del": Poly.var(PRODUCT_VARS, "lam") + Poly.var(PRODUCT_VARS, "del")}
    out = {}
    for i, t in iter_product(range(sub.algebra.rank), range(quotient.rank)):
        acc = {s: {} for s in range(sub.rank)}
        for k in range(sub.rank):
            if (t, k) in b_matrix:
                moved = fraction_substitute(b_matrix[t, k], shift, PRODUCT_VARS)
                for s, l_iks in sub.left.get((i, k), ()):
                    acc[s] = fraction_add(acc[s], fraction_mul(moved, fraction_terms(l_iks)))
        for k, l_itk in quotient.left.get((i, t), ()):
            for s in range(sub.rank):
                if (k, s) in b_matrix:
                    widened = {(e, 0): c for (e,), c in fraction_terms(b_matrix[k, s]).items()}
                    product = fraction_mul(fraction_terms(l_itk), widened)
                    acc[s] = fraction_add(acc[s], {exp: -c for exp, c in product.items()})
        for s, terms in acc.items():
            out.update({(i, t, s, exp): c for exp, c in terms.items()})
    return out


def reference_extension_residuals(datum) -> dict:
    """{(i, j, t, s): Poly}: a_i lam gamma_j + gamma_i lam a_j -
    gamma_{a_i lam a_j} read at quotient generator t and sub generator s,
    summed term by term with `Poly.substitute` and ``*``.  mu is the total
    variable: gamma_j and the inner action a_j run at mu - lam with their
    del on lam + del, the product's del turns into -mu, and gamma of the
    product acts at mu."""
    algebra, sub, quotient = datum.algebra, datum.sub, datum.quotient
    lam, mu, dl = (Poly.var(ASSOC_VARS, v) for v in ("lam", "mu", "del"))
    outer, shifted = {"lam": lam, "del": dl}, {"lam": mu - lam, "del": lam + dl}

    def gamma(i, t, s):
        zero = Poly.zero(PRODUCT_VARS)
        return datum.gamma[i].matrix.get((t, s), zero) if i in datum.gamma else zero

    out = {}
    for i, j in iter_product(range(algebra.rank), repeat=2):
        for t, s in iter_product(range(quotient.rank), range(sub.rank)):
            total = Poly.zero(ASSOC_VARS)
            for k in range(sub.rank):  # a_i lam ((gamma_j)_{mu-lam} n_t)
                for m, l_ikm in sub.left.get((i, k), ()):
                    if m == s:
                        total = total + gamma(j, t, k).substitute(shifted) * l_ikm.substitute(outer)
            # (gamma_i)_lam (a_j (mu-lam) n_t)
            for k, l_jtk in quotient.left.get((j, t), ()):
                total = total + l_jtk.substitute(shifted) * gamma(i, k, s).substitute(outer)
            for l, p_ijl in algebra.structure.get((i, j), ()):  # gamma_{a_i lam a_j} at mu
                total = total - p_ijl.substitute({"lam": lam, "del": -mu}) \
                    * gamma(l, t, s).substitute({"lam": mu, "del": dl})
            if not total.is_zero:
                out[(i, j, t, s)] = total
    return out


def record_images(monkeypatch) -> list:
    """Every monomial image a ring map forms from here on, as (ring map,
    exponent); a repeat would mean a map expanded one monomial twice."""
    formed = []
    original = _RingMap._form
    monkeypatch.setattr(
        _RingMap, "_form", lambda ring, exp: formed.append((ring, exp)) or original(ring, exp)
    )
    return formed


def constant_ring_maps() -> dict:
    """The ring maps built once per process, by the module constant that
    holds them."""
    groups = {"conformal._LAW_MAPS": conformal._LAW_MAPS,
              "constructions._CHOM_MAPS": constructions._CHOM_MAPS}
    maps = {f"{name}[{i}]": ring for name, group in groups.items() for i, ring in enumerate(group)}
    maps["constructions._SHIFT"] = constructions._SHIFT
    maps["constructions._STAY"] = constructions._STAY
    return maps


def cold_images(monkeypatch) -> dict:
    """Give every constant ring map an empty image memo for the rest of
    the test, as a fresh process has it; the maps by name."""
    maps = constant_ring_maps()
    for ring in maps.values():
        monkeypatch.setattr(ring, "_images", {})
    return maps


def table_monomials(*tables) -> set:
    """The distinct exponents among the polynomials of structure tables."""
    return {exp for table in tables for entries in table.values()
            for _, poly in entries for exp in poly.terms}


# A Fraction-only reference for the coefficient arithmetic: every value is
# converted to a Fraction on the way in and every result stays one, so the
# tests can compare the package's int-when-integral values against it.


def fraction_terms(p: Poly) -> dict[tuple[int, ...], Fraction]:
    return {exp: Fraction(c) for exp, c in p.terms.items()}


def fraction_add(left: dict, right: dict) -> dict:
    out = dict(left)
    for exp, c in right.items():
        out[exp] = out.get(exp, Fraction(0)) + c
    return {exp: c for exp, c in out.items() if c}


def fraction_mul(left: dict, right: dict) -> dict:
    out: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, Fraction(0)) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def fraction_pow(terms: dict, n: int, width: int) -> dict:
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = fraction_mul(out, terms)
    return out


def fraction_substitute(p: Poly, bindings: dict[str, Poly], target: tuple[str, ...]) -> dict:
    """Terms of p with each bound variable replaced by its image and each
    unbound one by itself in ``target``, expanded term by term."""
    images = []
    for v in p.variables:
        if v in bindings:
            images.append(fraction_terms(bindings[v]))
        else:
            images.append({tuple(int(w == v) for w in target): Fraction(1)})
    total: dict = {}
    for exp, c in fraction_terms(p).items():
        term = {(0,) * len(target): c}
        for image, e in zip(images, exp):
            term = fraction_mul(term, fraction_pow(image, e, len(target)))
        total = fraction_add(total, term)
    return total


def fraction_rref(rows, ncols):
    """Textbook dense reduced row echelon form, pivot search column by
    column; returns (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def fraction_kernel(rows, ncols):
    """The RREF basis rows of the null space of the dense matrix ``rows``."""
    basis, pivots = fraction_rref(rows, ncols)
    vectors = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(basis, pivots):
            vec[pc] = -row[free]
        vectors.append(vec)
    return fraction_rref(vectors, ncols)[0]


def fraction_solve(rows, rhs, ncols):
    """The solution of rows @ x = rhs with free unknowns 0, or None."""
    augmented, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for row, pc in zip(augmented, pivots):
        solution[pc] = row[ncols]
    return solution


def rendered(value):
    """A result as plain data: a polynomial as its variables and text, a
    cochain, algebra or module by what defines it, containers item by
    item, a dict's items sorted by key."""
    if isinstance(value, Poly):
        return value.variables, str(value)
    if isinstance(value, Cochain):
        return "Cochain", value.degree, rendered(value.values)
    if isinstance(value, ConformalAlgebra):
        return "ConformalAlgebra", value.generators, rendered(value.structure)
    if isinstance(value, BimoduleStructure):
        return "BimoduleStructure", value.generators, rendered(value.left), rendered(value.right)
    if isinstance(value, dict):
        return tuple(sorted((key, rendered(item)) for key, item in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(rendered(item) for item in value)
    return value


def seeded_poly(rng, variables: tuple[str, ...], degree: int) -> Poly:
    """One to three monomials drawn from ``rng`` over ``variables``, each
    of degree <= ``degree`` with a coefficient of -2, -1, 1 or 2, summed."""
    total = Poly.zero(variables)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(variables))] += 1
        total = total + Poly.monomial(variables, exps, rng.choice((-2, -1, 1, 2)))
    return total


def top_degree(cochain: Cochain) -> int:
    """The largest total degree among the cochain's values, 0 when all are zero."""
    return max((p.total_degree() or 0 for vec in cochain.values.values() for p in vec), default=0)


@pytest.fixture(scope="session")
def inputs_dir() -> pathlib.Path:
    return INPUTS


@pytest.fixture(scope="session")
def cur1():
    return free_rank_one()


@pytest.fixture(scope="session")
def mat2():
    return matrix_algebra(2)


@pytest.fixture(scope="session")
def cur1_regular(cur1):
    return BimoduleStructure.regular(cur1)


@pytest.fixture(scope="session")
def mat2_regular(mat2):
    return BimoduleStructure.regular(mat2)


def rationals(max_num: int = 4, max_den: int = 3) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polys(
    variables: tuple[str, ...], max_degree: int = 3, max_terms: int = 4
) -> st.SearchStrategy:
    """Random sparse polynomials over a fixed variable tuple."""
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in variables]
    )
    term = st.tuples(exponents, rationals())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: _poly_from_pairs(variables, pairs)
    )


def _poly_from_pairs(variables, pairs) -> Poly:
    total = Poly.zero(variables)
    for exps, coeff in pairs:
        total = total + Poly.monomial(variables, exps, coeff)
    return total
