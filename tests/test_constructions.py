import copy
import inspect
import itertools

import pytest
from hypothesis import given, strategies as st

import pseudo.cfmodule as cfmodule
import pseudo.cohomology as cohomology
import pseudo.conformal as conformal
import pseudo.constructions as constructions
from conftest import (
    INPUTS,
    cold_images,
    free_rank_one,
    matrix_algebra,
    polys,
    record_images,
    reference_extension_residuals,
    reference_gamma_coboundary,
    rendered,
    table_monomials,
    top_degree,
)
from pseudo.cfmodule import (
    BimoduleStructure,
    CLinearMap,
    UnfitModuleError,
    check_module_axioms,
)
from pseudo.cohomology import Cochain, apply_dn, cochain_variables
from pseudo.conformal import (
    ASSOC_VARS,
    PRODUCT_VARS,
    ConformalAlgebra,
    NonAssociativeError,
    check_associativity,
)
from pseudo.constructions import (
    AbelianExtensionDatum,
    DeformationDatum,
    ExtensionDatum,
    build_abelian_extension,
    build_extension,
    deform,
    deformation_residuals,
    equivalent_deformations,
    equivalent_extensions,
    extension_residuals,
    find_deformation_witness,
    find_extension_witness,
    gamma_coboundary,
    search_deformation_witness,
    search_extension_witness,
)
from pseudo.formats import parse_algebra, parse_cochain, parse_gamma, parse_module
from pseudo.polyring import Poly, VariableMismatchError, _RingMap, parse_poly

D1 = cochain_variables(1)
D2 = cochain_variables(2)
DEL = ("del",)
# a degree-3 cochain value read over ASSOC_VARS, a degree-2 one over PRODUCT_VARS
AS_ASSOC = {"lam1": Poly.var(ASSOC_VARS, "lam"), "lam2": Poly.var(ASSOC_VARS, "mu")}
AS_PRODUCT = {"lam1": Poly.var(PRODUCT_VARS, "lam")}


def gamma_of(sub, quotient, text: str):
    poly = parse_poly(text, PRODUCT_VARS)
    if poly.is_zero:
        return {}
    return {0: CLinearMap(quotient.generators, sub.generators, {(0, 0): poly})}


def datum_of(cur1, cur1_regular, text: str) -> ExtensionDatum:
    return ExtensionDatum(
        cur1, cur1_regular, cur1_regular, gamma_of(cur1_regular, cur1_regular, text)
    )


def two_cochain(algebra, module, text: str) -> Cochain:
    return Cochain(2, algebra, module, {(0, 0): (parse_poly(text, D2),)})


def test_extension_datum_validation(cur1, mat2, cur1_regular, mat2_regular):
    with pytest.raises(ValueError):
        ExtensionDatum(cur1, cur1_regular, mat2_regular, {})
    right_only = BimoduleStructure(
        algebra=cur1, generators=("u",), left=None,
        right={(0, 0): ((0, Poly.const(PRODUCT_VARS, 1)),)},
    )
    with pytest.raises(ValueError):
        ExtensionDatum(cur1, right_only, cur1_regular, {})
    bad_shape = {0: CLinearMap(("u", "v"), ("e",), {})}
    with pytest.raises(ValueError):
        ExtensionDatum(cur1, cur1_regular, cur1_regular, bad_shape)


def test_unfit_modules_raise_unfit_module_error(cur1, cur1_regular):
    def module(actions, *lines):
        return parse_module("\n".join(["kind: module", "generators: u", f"actions: {actions}",
                                       *lines]), cur1)

    left_only = module("left", "left e u -> 1 * u")
    right_only = module("right", "right u e -> 1 * u")
    broken_left = module("left", "left e u -> del * u")
    broken_both = module("left right", "left e u -> del * u", "right u e -> 1 * u")
    broken_right = module("left right", "left e u -> 1 * u", "right u e -> del * u")
    for unfit, n, message in [
        (left_only, 0, "degree-0 differential needs both module actions"),
        (right_only, 0, "degree-0 differential needs both module actions"),
        (left_only, 1, "the differential needs a right action"),
        (right_only, 2, "the differential needs a left action"),
    ]:
        with pytest.raises(UnfitModuleError, match=message):
            cohomology._Stencil(unfit, n)
    for sub, quotient, message in [
        (right_only, cur1_regular, "sub module needs a left action"),
        (cur1_regular, right_only, "quotient module needs a left action"),
        (broken_left, cur1_regular, "sub module violates its own left law"),
        (cur1_regular, broken_left, "quotient module violates its own left law"),
    ]:
        with pytest.raises(UnfitModuleError, match=message):
            ExtensionDatum(cur1, sub, quotient, {})
    # an extension reads only the left law, though the module's verdict
    # names the right law it breaks
    assert ExtensionDatum(cur1, broken_right, broken_right, {}).gamma == {}
    for unfit, message in [
        (left_only, "abelian extension needs a two-sided module"),
        (broken_both, "module violates its axiom system"),
        (broken_right, "module violates its axiom system"),
    ]:
        with pytest.raises(UnfitModuleError, match=message):
            AbelianExtensionDatum(cur1, unfit, Cochain.zero(cur1, unfit, 2))


def test_coboundaries_refuse_a_module_without_a_left_action(cur1, cur1_regular):
    # the coboundary builder refuses as ExtensionDatum does, whatever B:
    # a zero B over a right-only sub, and every search, raise the same error
    right_only = parse_module("kind: module\ngenerators: u\nactions: right\n"
                              "right u e -> 1 * u\n", cur1)
    b_del = {(0, 0): Poly.var(DEL, "del")}
    for sub, quotient, name in [(right_only, cur1_regular, "sub"),
                                (cur1_regular, right_only, "quotient")]:
        message = f"{name} module needs a left action"
        for b_matrix in ({}, b_del):
            with pytest.raises(UnfitModuleError, match=message):
                gamma_coboundary(sub, quotient, b_matrix)
        with pytest.raises(UnfitModuleError, match=message):
            find_extension_witness(sub, quotient, {}, 1)


def test_coboundaries_refuse_modules_over_different_algebras(cur1_regular, mat2_regular):
    # d0 refuses a sub and a quotient over different algebras, as
    # ExtensionDatum does, in either order and whatever B
    message = "sub and quotient modules are over different algebras"
    b_del = {(0, 0): Poly.var(DEL, "del")}
    for sub, quotient in [(cur1_regular, mat2_regular), (mat2_regular, cur1_regular)]:
        for b_matrix in ({}, b_del):
            with pytest.raises(ValueError, match=message):
                gamma_coboundary(sub, quotient, b_matrix)
        for max_degree in (0, 1):
            with pytest.raises(ValueError, match=message):
                find_extension_witness(sub, quotient, {}, max_degree)


def test_non_associative_algebras_raise_non_associative_error(inputs_dir):
    # both data over an algebra read its kept associativity verdict and
    # refuse a failing one with the same named error, a ValueError
    bad = parse_algebra((inputs_dir / "bad_del.alg").read_text())
    module = BimoduleStructure.regular(bad)
    zero = Cochain.zero(bad, module, 2)
    for build in (lambda: DeformationDatum(bad, zero),
                  lambda: AbelianExtensionDatum(bad, module, zero)):
        with pytest.raises(NonAssociativeError, match="base algebra is not associative"):
            build()
    assert issubclass(NonAssociativeError, ValueError)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_extension_datum_checks_one_module_once(cur1, inputs_dir, monkeypatch):
    # a module parsed here, so no earlier test has checked it
    module = parse_module((inputs_dir / "uboth.mod").read_text(), cur1)
    calls = _count_calls(monkeypatch, cfmodule, "check_module_axioms")
    datum_of(cur1, module, "lam")
    assert len(calls) == 1
    # the axiom verdict is kept on the module for the next datum
    datum_of(cur1, module, "1")
    assert len(calls) == 1


def test_equal_but_distinct_algebras_are_checked_again(inputs_dir, monkeypatch):
    text = (inputs_dir / "cur1.alg").read_text()
    first, second = parse_algebra(text), parse_algebra(text)
    assert first == second and first is not second
    calls = _count_calls(monkeypatch, conformal, "check_associativity")
    module_calls = _count_calls(monkeypatch, cfmodule, "check_module_axioms")
    for algebra in (first, first, second, second):
        module = BimoduleStructure.regular(algebra)
        DeformationDatum(algebra, Cochain.zero(algebra, module, 2))
        AbelianExtensionDatum(algebra, module, Cochain.zero(algebra, module, 2))
    assert len(calls) == 2 and calls[0][0] is first and calls[1][0] is second
    assert [args[0].algebra for args in module_calls] == [first, second]


def test_kept_verdicts_leave_equality_and_repr_alone(inputs_dir):
    text = (inputs_dir / "cur1.alg").read_text()
    used, fresh = parse_algebra(text), parse_algebra(text)
    before = repr(used)
    module = BimoduleStructure.regular(used)
    module_before = repr(module)
    flat = two_cochain(used, module, "1")
    build_abelian_extension(AbelianExtensionDatum(used, module, flat))
    deform(DeformationDatum(used, flat))
    build_extension(datum_of(used, module, "lam"))
    assert used._memo and module._memo
    assert "_memo" not in before + module_before
    assert repr(used) == before == repr(fresh)
    assert repr(module) == module_before == repr(BimoduleStructure.regular(fresh))
    assert used == fresh and module == BimoduleStructure.regular(fresh)


def test_one_abelian_datum_built_twice_checks_its_assembly_twice(cur1, cur1_regular, monkeypatch):
    datum = AbelianExtensionDatum(cur1, cur1_regular, two_cochain(cur1, cur1_regular, "lam1"))
    calls = _count_calls(monkeypatch, constructions, "check_associativity")
    first, ok = build_abelian_extension(datum)
    second, again = build_abelian_extension(datum)
    assert not ok and not again
    assert first == second and first is not second
    assert len(calls) == 2 and calls[0][0] is first and calls[1][0] is second


def test_extension_residuals_substitute_each_entry_once_per_map(mat2, mat2_regular, inputs_dir,
                                                               monkeypatch):
    # gamma is moved by the outer, shifted and total-variable maps, the
    # sub and quotient actions by the outer and the shifted one and the
    # product table by its own: the four Chom maps, built once per
    # process; from cold images each expands a distinct monomial of what
    # it moves at most once, and a call on fresh, equal data expands none
    b_matrix = {(t, k): parse_poly("del + 1", DEL) for t in range(4) for k in range(4)}
    gamma = gamma_coboundary(mat2_regular, mat2_regular, b_matrix)
    datum = ExtensionDatum(mat2, mat2_regular, mat2_regular, gamma)
    twin = parse_algebra((inputs_dir / "mat2.alg").read_text(encoding="utf-8"))
    twin_module = BimoduleStructure.regular(twin)
    twin_datum = ExtensionDatum(twin, twin_module, twin_module,
                                gamma_coboundary(twin_module, twin_module, b_matrix))
    gamma_entries = sum(len(gmap.matrix) for gmap in gamma.values())
    assert gamma_entries == 48
    cold_images(monkeypatch)
    formed = record_images(monkeypatch)
    assert extension_residuals(datum) == {}
    table = sum(len(entries) for entries in mat2.structure.values())
    gamma_monomials = len({exp for gmap in gamma.values()
                           for poly in gmap.matrix.values() for exp in poly.terms})
    bound = 3 * gamma_monomials + 3 * len(table_monomials(mat2.structure))
    assert len(set(formed)) == len(formed)
    assert len({ring for ring, _ in formed}) <= 4
    assert 0 < len(set(formed)) <= bound < 3 * gamma_entries + 3 * table
    formed.clear()
    assert extension_residuals(twin_datum) == {}
    assert formed == []


def test_extension_residuals_oracles(cur1, cur1_regular):
    const = datum_of(cur1, cur1_regular, "1")
    residuals = extension_residuals(const)
    assert set(residuals) == {(0, 0, 0, 0)}
    assert residuals[(0, 0, 0, 0)] == Poly.const(ASSOC_VARS, 1)
    flat = datum_of(cur1, cur1_regular, "lam")
    assert extension_residuals(flat) == {}


def test_build_extension_verdicts(cur1, cur1_regular):
    glued, ok, _ = build_extension(datum_of(cur1, cur1_regular, "lam"))
    assert ok
    assert glued.generators == ("m:e", "n:e")
    assert glued.has_left and not glued.has_right
    assert check_module_axioms(glued) is None
    _, bad, _ = build_extension(datum_of(cur1, cur1_regular, "1"))
    assert not bad


def test_build_extension_glued_entries(cur1, cur1_regular):
    glued, _, _ = build_extension(datum_of(cur1, cur1_regular, "lam"))
    one = Poly.const(PRODUCT_VARS, 1)
    assert glued.left[(0, 0)] == ((0, one),)
    assert glued.left[(0, 1)] == (
        (0, Poly.var(PRODUCT_VARS, "lam")), (1, one),
    )


def test_gamma_coboundary_oracles(cur1, cur1_regular):
    b_del = {(0, 0): Poly.var(DEL, "del")}
    out = gamma_coboundary(cur1_regular, cur1_regular, b_del)
    assert set(out) == {0}
    assert out[0].matrix == {(0, 0): Poly.var(PRODUCT_VARS, "lam")}
    b_const = {(0, 0): Poly.const(DEL, 1)}
    trivial = gamma_coboundary(cur1_regular, cur1_regular, b_const)
    assert all(m.is_zero() for m in trivial.values())
    with pytest.raises(ValueError):
        gamma_coboundary(cur1_regular, cur1_regular,
                         {(0, 0): Poly.const(PRODUCT_VARS, 1)})


def test_extension_witness_search(cur1, cur1_regular):
    flat = gamma_of(cur1_regular, cur1_regular, "lam")
    witness = find_extension_witness(cur1_regular, cur1_regular, flat, 2)
    assert witness is not None
    produced = gamma_coboundary(cur1_regular, cur1_regular, witness)
    diff = produced[0] - flat[0]
    assert diff.is_zero()
    stuck = gamma_of(cur1_regular, cur1_regular, "1")
    assert find_extension_witness(cur1_regular, cur1_regular, stuck, 3) is None


def test_extension_witness_search_checks_gamma_as_the_datum_does(cur1, cur1_regular, inputs_dir):
    # a map for a generator cur1 lacks, and a map over uboth.mod's
    # generators given as one of the regular module, are refused by the
    # search with the datum's own messages, not answered with None
    uboth = parse_module((inputs_dir / "uboth.mod").read_text(encoding="utf-8"), cur1)
    flat = gamma_of(cur1_regular, cur1_regular, "lam")
    cases = [
        (cur1_regular, cur1_regular, {5: flat[0]}, "gamma index 5 out of range"),
        (cur1_regular, uboth, flat, "gamma source must be the quotient module"),
        (uboth, cur1_regular, flat, "gamma target must be the sub module"),
    ]
    for sub, quotient, gamma, message in cases:
        with pytest.raises(ValueError, match=message):
            ExtensionDatum(cur1, sub, quotient, gamma)
        with pytest.raises(ValueError, match=message):
            find_extension_witness(sub, quotient, gamma, 2)


def test_equivalent_extensions_with_witness(cur1, cur1_regular):
    flat = datum_of(cur1, cur1_regular, "lam")
    zero = datum_of(cur1, cur1_regular, "0")
    b_del = {(0, 0): Poly.var(DEL, "del")}
    assert equivalent_extensions(flat, zero, b_del)
    shifted = {(0, 0): parse_poly("del + 5", DEL)}
    assert equivalent_extensions(flat, zero, shifted)
    wrong = {(0, 0): parse_poly("2*del", DEL)}
    assert not equivalent_extensions(flat, zero, wrong)
    found = search_extension_witness(flat, zero, 2)
    assert found is not None and equivalent_extensions(flat, zero, found)
    stuck = datum_of(cur1, cur1_regular, "1")
    assert search_extension_witness(stuck, zero, 3) is None


def test_abelian_extension_datum_validation(cur1, cur1_regular):
    with pytest.raises(ValueError):
        AbelianExtensionDatum(
            cur1, cur1_regular,
            Cochain(1, cur1, cur1_regular, {(0,): (Poly.var(D1, "del"),)}),
        )
    left_only = BimoduleStructure(
        algebra=cur1, generators=("u",),
        left={(0, 0): ((0, Poly.const(PRODUCT_VARS, 1)),)}, right=None,
    )
    with pytest.raises(ValueError):
        AbelianExtensionDatum(cur1, left_only, Cochain.zero(cur1, left_only, 2))
    mutant = free_rank_one(Poly.var(PRODUCT_VARS, "lam"))
    reg = BimoduleStructure.regular(mutant)
    with pytest.raises(ValueError):
        AbelianExtensionDatum(mutant, reg, Cochain.zero(mutant, reg, 2))


def test_build_abelian_extension_flat(cur1, cur1_regular):
    phi = two_cochain(cur1, cur1_regular, "1")
    assert apply_dn(phi).is_zero()
    extension, ok = build_abelian_extension(AbelianExtensionDatum(cur1, cur1_regular, phi))
    assert ok
    assert extension.generators == ("a:e", "m:e")
    assert check_associativity(extension) is None
    one = Poly.const(PRODUCT_VARS, 1)
    assert extension.structure[(0, 0)] == ((0, one), (1, one))
    assert extension.structure[(0, 1)] == ((1, one),)
    assert extension.structure[(1, 0)] == ((1, one),)
    assert (1, 1) not in extension.structure


def test_build_abelian_extension_obstructed(cur1, cur1_regular):
    phi = two_cochain(cur1, cur1_regular, "lam1")
    assert not apply_dn(phi).is_zero()
    extension, ok = build_abelian_extension(
        AbelianExtensionDatum(cur1, cur1_regular, phi)
    )
    assert not ok
    assert check_associativity(extension) is not None


def test_deformation_datum_validation(cur1, cur1_regular):
    wrong_degree = Cochain(1, cur1, cur1_regular, {(0,): (Poly.var(D1, "del"),)})
    with pytest.raises(ValueError):
        DeformationDatum(cur1, wrong_degree)
    other = BimoduleStructure(
        algebra=cur1, generators=("u",),
        left={(0, 0): ((0, Poly.const(PRODUCT_VARS, 1)),)},
        right={(0, 0): ((0, Poly.const(PRODUCT_VARS, 1)),)},
    )
    with pytest.raises(ValueError):
        DeformationDatum(cur1, Cochain.zero(cur1, other, 2))


def test_deformation_residual_oracles(cur1, cur1_regular):
    flat = DeformationDatum(cur1, two_cochain(cur1, cur1_regular, "1"))
    assert deformation_residuals(flat) == {}
    residuals, ok = deform(flat)
    assert ok and residuals == {}
    bent = DeformationDatum(cur1, two_cochain(cur1, cur1_regular, "lam1"))
    residuals, ok = deform(bent)
    assert not ok
    assert set(residuals) == {(0, 0, 0, 0)}
    assert residuals[(0, 0, 0, 0)] == Poly.var(ASSOC_VARS, "lam")


# regular modules of the free rank-one algebra, where P then F and F then
# P read the one triple alike, and of two algebras of rank 2 and 4
DEFORMED = [BimoduleStructure.regular(algebra) for algebra in (
    free_rank_one(),
    parse_algebra((INPUTS / "lam_c.alg").read_text(encoding="utf-8")),
    matrix_algebra(2),
)]


def draw_two_cochain(data, module) -> Cochain:
    """A sparse 2-cochain over a module: one to three values, each on a
    drawn pair and target."""
    algebra, rank = module.algebra, module.rank
    index, target = st.integers(0, algebra.rank - 1), st.integers(0, rank - 1)
    entries = data.draw(st.lists(
        st.tuples(index, index, target, polys(D2, max_degree=2, max_terms=3)),
        min_size=1, max_size=3,
    ))
    values = {}
    for a, b, s, q in entries:
        vec = values.setdefault((a, b), [Poly.zero(D2)] * rank)
        vec[s] = vec[s] + q
    return Cochain(2, algebra, module, {key: tuple(vec) for key, vec in values.items()})


@given(st.sampled_from(DEFORMED), st.data())
def test_deformation_residual_is_minus_the_differential(module, data):
    cocycle = draw_two_cochain(data, module)
    datum = DeformationDatum(module.algebra, cocycle)
    residuals = deformation_residuals(datum)
    image = apply_dn(cocycle)
    collected = {}
    for (a, b, c), vec in image.values.items():
        for s, poly in enumerate(vec):
            if not poly.is_zero:
                collected[(a, b, c, s)] = -poly.substitute(AS_ASSOC)
    assert residuals == collected


# over cur1, with a left action and a zero right one: L and R differ
ONE_SIDED = parse_module((INPUTS / "uleft.mod").read_text(encoding="utf-8"), free_rank_one())


@given(st.sampled_from([*DEFORMED[1:], ONE_SIDED]), st.data())
def test_abelian_extension_is_the_direct_sum_of_its_parts(module, data):
    # A (+) M over regular modules of rank 2 and 4, and over a module whose
    # two actions differ, so a swap of L and R shows: the algebra block is P
    # with the twist on the module generators, the mixed blocks are L and
    # R moved past A's generators, M . M is zero, and the verdict is d phi = 0;
    # on a drawn flag phi is the differential of a drawn 1-cochain, so a cocycle
    algebra, na = module.algebra, module.algebra.rank
    phi = draw_two_cochain(data, module)
    if data.draw(st.booleans(), label="coboundary"):
        vec = tuple(data.draw(polys(D1, max_degree=2, max_terms=2)) for _ in range(module.rank))
        phi = apply_dn(Cochain(1, algebra, module, {(data.draw(st.integers(0, na - 1)),): vec}))
    extension, associative = build_abelian_extension(AbelianExtensionDatum(algebra, module, phi))
    table = extension.structure
    for i, j in itertools.product(range(na), repeat=2):
        twist = tuple((na + s, q.substitute(AS_PRODUCT))
                      for s, q in enumerate(phi.values.get((i, j), ())) if not q.is_zero)
        assert table.get((i, j), ()) == algebra.structure.get((i, j), ()) + twist
    for i, t in itertools.product(range(na), range(module.rank)):
        assert table.get((i, na + t), ()) == tuple(
            (na + k, p) for k, p in module.left.get((i, t), ()))
        assert table.get((na + t, i), ()) == tuple(
            (na + k, p) for k, p in module.right.get((t, i), ()))
    assert not [key for key in table if min(key) >= na]
    assert associative == apply_dn(phi).is_zero()


def test_deformation_residuals_move_the_twist_without_renaming(mat2, mat2_regular, monkeypatch):
    # the twist is read as a structure table over (del, lam), no value of
    # it renamed, and moved by the checkers' own law maps: from cold
    # images, each of the four maps expands exactly the distinct monomials
    # of the product table and the twist, and the call builds no ring map;
    # the twist's values over their own (del, lam1) are a table the law
    # maps refuse
    zero = Poly.zero(D2)
    values = {
        (0, 1): (parse_poly("lam1 + del^2", D2), zero, parse_poly("-1/2*del*lam1", D2), zero),
        (3, 2): (zero, parse_poly("2 + lam1^2", D2), zero, parse_poly("del", D2)),
    }
    cochain = Cochain(2, mat2, mat2_regular, values)
    expected = {}
    for (a, b, c), vec in apply_dn(cochain).values.items():
        for s, poly in enumerate(vec):
            if not poly.is_zero:
                expected[(a, b, c, s)] = -poly.substitute(AS_ASSOC)
    assert expected
    datum = DeformationDatum(mat2, cochain)
    twist = {key: tuple((k, poly) for k, poly in enumerate(vec) if not poly.is_zero)
             for key, vec in values.items()}
    cold_images(monkeypatch)
    formed = record_images(monkeypatch)
    built = []
    original = _RingMap.__init__
    monkeypatch.setattr(_RingMap, "__init__",
                        lambda ring, *args: built.append(ring) or original(ring, *args))
    assert deformation_residuals(datum) == expected
    assert built == []
    monomials = table_monomials(mat2.structure, twist)
    assert len(set(formed)) == len(formed)
    assert set(formed) == {(ring, exp) for ring in conformal._LAW_MAPS for exp in monomials}
    with pytest.raises(VariableMismatchError):
        conformal._law_tables(mat2.structure, twist, mat2.structure, twist)


def draw_left_module(data, algebra: ConformalAlgebra, name: str) -> BimoduleStructure:
    """A module of rank 1 or 2 with a random left action and no right one."""
    rank = data.draw(st.integers(1, 2), label=f"{name} rank")
    entry = st.tuples(st.integers(0, rank - 1), polys(PRODUCT_VARS, max_degree=2, max_terms=2))
    entries = st.lists(entry, max_size=rank, unique_by=lambda e: e[0])
    left = {(i, j): data.draw(entries, label=f"{name} left")
            for i in range(algebra.rank) for j in range(rank)}
    return BimoduleStructure(algebra, tuple(f"{name}{t}" for t in range(rank)), left, None)


@given(st.data())
def test_gamma_coboundary_matches_the_term_by_term_reference(data):
    # the raw-term coboundary against the fraction-only reference, on
    # random left actions (no law is assumed) and B of degree <= 3; the
    # search finds a B of degree <= 3 whose coboundary is the same family
    rank = data.draw(st.integers(1, 2), label="algebra rank")
    algebra = ConformalAlgebra(("a", "b")[:rank], {})
    sub, quotient = draw_left_module(data, algebra, "m"), draw_left_module(data, algebra, "n")
    b_matrix = {(t, k): data.draw(polys(DEL, max_degree=3, max_terms=3), label="B")
                for t in range(quotient.rank) for k in range(sub.rank)}
    family = gamma_coboundary(sub, quotient, b_matrix)
    expected = reference_gamma_coboundary(sub, quotient, b_matrix)
    assert constructions._family_terms(family) == expected
    assert list(family) == sorted(family)
    assert all(list(gmap.matrix) == sorted(gmap.matrix) for gmap in family.values())
    witness = find_extension_witness(sub, quotient, family, 3)
    assert witness is not None
    assert all(poly.variables == DEL and not poly.is_zero for poly in witness.values())
    assert reference_gamma_coboundary(sub, quotient, witness) == expected


def draw_fit_left_module(data, algebra: ConformalAlgebra, name: str) -> BimoduleStructure:
    """A module of rank 1 or 2 with a left action that keeps the left law
    and no right one.  Over generators that multiply to zero, each a_i
    sends u1 to a random p_i(lam, del) u0 and kills u0; over orthogonal
    idempotents e_i lam e_j = delta_ij e_i, each generator is fixed by
    the idempotent of its drawn colour or by none, and when u0 has a
    colour and u1 none, that idempotent sends u1 to f(lam + del) u0."""
    rank = data.draw(st.integers(1, 2), label=f"{name} rank")
    left: dict = {}
    if not algebra.structure:
        for i in range(algebra.rank if rank == 2 else 0):
            p_i = data.draw(polys(PRODUCT_VARS, max_degree=2, max_terms=2), label=f"{name} left")
            left[(i, 1)] = [(0, p_i)]
    else:
        colours = st.sampled_from((None, *range(algebra.rank)))
        colour = [data.draw(colours, label=f"{name} colour") for _ in range(rank)]
        for t, i in enumerate(colour):
            if i is not None:
                left[(i, t)] = [(t, Poly.const(PRODUCT_VARS, 1))]
        if rank == 2 and colour[0] is not None and colour[1] is None:
            f = data.draw(polys(DEL, max_degree=2, max_terms=2), label=f"{name} cross")
            shift = Poly.var(PRODUCT_VARS, "lam") + Poly.var(PRODUCT_VARS, "del")
            left[(colour[0], 1)] = [(0, f.substitute({"del": shift}))]
    return BimoduleStructure(algebra, tuple(f"{name}{t}" for t in range(rank)), left, None)


# algebras the fit modules above are drawn over: zero products of rank 1
# and 2, the current algebra of C and that of C + C
FIT_ALGEBRAS = (
    ConformalAlgebra(("a",), {}),
    ConformalAlgebra(("a", "b"), {}),
    free_rank_one(),
    ConformalAlgebra(("e", "f"), {(0, 0): ((0, Poly.const(PRODUCT_VARS, 1)),),
                                  (1, 1): ((1, Poly.const(PRODUCT_VARS, 1)),)}),
)


@given(st.data())
def test_extension_residuals_match_the_term_by_term_reference(data):
    # the raw-term Chom differential against the reference built from
    # Poly.substitute and *, gluing two independently drawn modules so
    # that a swap of sub and quotient shows; gamma is a coboundary, so a
    # cocycle, plus on a drawn flag a random family with exponents <= 2.
    # The residuals vanish exactly when the glued module keeps its law
    algebra = data.draw(st.sampled_from(FIT_ALGEBRAS), label="algebra")
    sub = draw_fit_left_module(data, algebra, "m")
    quotient = draw_fit_left_module(data, algebra, "n")
    b_matrix = {(t, k): data.draw(polys(DEL, max_degree=2, max_terms=2), label="B")
                for t in range(quotient.rank) for k in range(sub.rank)}
    gamma = gamma_coboundary(sub, quotient, b_matrix)
    if data.draw(st.booleans(), label="bent"):
        entry = polys(PRODUCT_VARS, max_degree=2, max_terms=2)
        for i in range(algebra.rank):
            bend = CLinearMap(quotient.generators, sub.generators, {
                (t, s): data.draw(entry, label="gamma")
                for t in range(quotient.rank) for s in range(sub.rank)
            })
            gamma[i] = gamma[i] + bend if i in gamma else bend
    datum = ExtensionDatum(algebra, sub, quotient, gamma)
    residuals = extension_residuals(datum)
    assert residuals == reference_extension_residuals(datum)
    assert list(residuals) == sorted(residuals)
    assert all(poly.variables == ASSOC_VARS for poly in residuals.values())
    extension, verdict, again = build_extension(datum)
    assert again == residuals
    assert (not residuals) == (check_module_axioms(extension) is None) == verdict


def test_deformation_witness_search(cur1, cur1_regular):
    phi = Cochain(1, cur1, cur1_regular, {(0,): (parse_poly("del^2", D1),)})
    target = apply_dn(phi)
    witness = find_deformation_witness(cur1, target, 2)
    assert witness is not None
    assert (apply_dn(witness) - target).is_zero()
    obstructed = two_cochain(cur1, cur1_regular, "lam1")
    assert find_deformation_witness(cur1, obstructed, 4) is None


def test_equivalent_deformations_with_witness(cur1, cur1_regular):
    g = Cochain(1, cur1, cur1_regular, {(0,): (parse_poly("del^2 - del", D1),)})
    f = apply_dn(g)
    first = DeformationDatum(cur1, f)
    second = DeformationDatum(cur1, Cochain.zero(cur1, cur1_regular, 2))
    assert equivalent_deformations(first, second, g)
    assert equivalent_deformations(second, first, g.scaled(-1))
    assert not equivalent_deformations(first, second, g.scaled(2))
    found = search_deformation_witness(first, second, 2)
    assert found is not None and equivalent_deformations(first, second, found)


def test_equivalent_deformations_refuses_a_witness_over_another_module(
    cur1, cur1_regular, mat2, mat2_regular, inputs_dir
):
    # a module of the same rank over the same algebra numbers its labels
    # as the regular one does, so only the shape check tells them apart
    g = Cochain(1, cur1, cur1_regular, {(0,): (parse_poly("del^2 - del", D1),)})
    first = DeformationDatum(cur1, apply_dn(g))
    second = DeformationDatum(cur1, Cochain.zero(cur1, cur1_regular, 2))
    uleft = parse_module((inputs_dir / "uleft.mod").read_text(encoding="utf-8"), cur1)
    for witness in (
        Cochain(1, cur1, uleft, g.values),
        Cochain.zero(cur1, uleft, 1),
        Cochain(1, mat2, mat2_regular, {(0,): (parse_poly("del", D1),) * 4}),
    ):
        with pytest.raises(ValueError, match="cochain shapes differ"):
            equivalent_deformations(first, second, witness)


@pytest.mark.parametrize("degree", [0, 2])
def test_equivalent_deformations_refuses_a_witness_not_of_degree_one(
    cur1, cur1_regular, degree
):
    flat = DeformationDatum(cur1, Cochain.zero(cur1, cur1_regular, 2))
    with pytest.raises(ValueError, match="witness must be a degree-1 cochain"):
        equivalent_deformations(flat, flat, Cochain.zero(cur1, cur1_regular, degree))


ONE_DEL = Poly.var(DEL, "del")
ONE_PRODUCT = Poly.const(PRODUCT_VARS, 1)
# constructors handed a generator index or an exponent that is not an int
NOT_AN_INT = {
    "exponent 1.5": lambda cur1, reg: Poly(DEL, {(1.5,): 1}),
    "exponent '2'": lambda cur1, reg: Poly(DEL, [(("2",), 1)]),
    "product key": lambda cur1, reg: ConformalAlgebra(("e",), {(0.0, 0): [(0, ONE_PRODUCT)]}),
    "product target": lambda cur1, reg: ConformalAlgebra(("e",), {(0, 0): [(0.0, ONE_PRODUCT)]}),
    "action key": lambda cur1, reg: BimoduleStructure(
        cur1, ("u",), left={(0, 0.0): [(0, ONE_PRODUCT)]}, right=None
    ),
    "cochain tuple": lambda cur1, reg: Cochain(1, cur1, reg, {(0.0,): (Poly.const(D1, 1),)}),
    "map entry": lambda cur1, reg: CLinearMap(("u",), ("u",), {(0, 0.0): ONE_PRODUCT}),
    "gamma index": lambda cur1, reg: ExtensionDatum(
        cur1, reg, reg, {0.5: CLinearMap(reg.generators, reg.generators, {(0, 0): ONE_PRODUCT})}
    ),
    "B index": lambda cur1, reg: gamma_coboundary(reg, reg, {(0.0, 0): ONE_DEL}),
}


@pytest.mark.parametrize("build", NOT_AN_INT.values(), ids=NOT_AN_INT.keys())
def test_indices_and_exponents_must_be_ints(cur1, cur1_regular, build):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build(cur1, cur1_regular)


def test_a_bool_index_or_exponent_reads_as_its_int(cur1, cur1_regular):
    assert Poly(DEL, {(True,): 1}) == ONE_DEL
    value = (Poly.const(D1, 1),)
    assert Cochain(1, cur1, cur1_regular, {(False,): value}).values == {(0,): value}
    assert gamma_coboundary(cur1_regular, cur1_regular, {(False, False): ONE_DEL}) == (
        gamma_coboundary(cur1_regular, cur1_regular, {(0, 0): ONE_DEL})
    )


def test_search_deformation_witness_none_when_inequivalent(cur1, cur1_regular):
    bent = DeformationDatum(cur1, two_cochain(cur1, cur1_regular, "lam1"))
    flat = DeformationDatum(cur1, Cochain.zero(cur1, cur1_regular, 2))
    assert search_deformation_witness(bent, flat, 3) is None


def _refuse(*args):
    raise AssertionError("one verification route called into the other")


# the law kernel in conformal, and its helpers that are not part of it
LAW_KERNEL = ("_law_tables", "_law_sides", "_add_product", "_finish", "_first_failure",
              "_dense")
NOT_KERNEL = {"_validate_structure", "_table_degree", "_kept"}
# the extension residuals' own Chom differential and its product helper
CHOM_DIFFERENTIAL = ("extension_residuals", "_add_chom_terms")


@pytest.mark.parametrize("gamma_file", ["gamma_lam.coc", "gamma_const.coc"])
def test_dual_routes_share_no_composition_code(monkeypatch, inputs_dir, gamma_file):
    """Each verdict's two routes stay independent: the extension residuals
    and apply_dn never reach the law kernel (every name of LAW_KERNEL),
    the axiom checker never reaches the Chom differential the extension
    residuals are summed by (every name of CHOM_DIFFERENTIAL), and no
    route but the cochain differential reaches the compiled stencil.
    apply_dn runs under the first patch on a module whose stencil is not
    compiled yet, so the compilation is covered too.  A private function
    added to conformal must be named in LAW_KERNEL or NOT_KERNEL, and a
    kernel or Chom name its module no longer defines fails the patch."""
    private = {
        name for name, obj in vars(conformal).items()
        if inspect.isfunction(obj) and obj.__module__ == conformal.__name__
        and name.startswith("_")
    }
    assert private == set(LAW_KERNEL) | NOT_KERNEL
    cur1 = parse_algebra((inputs_dir / "cur1.alg").read_text())
    module = BimoduleStructure.regular(cur1)
    gamma = parse_gamma((inputs_dir / gamma_file).read_text(), cur1, module, module)
    datum = ExtensionDatum(cur1, module, module, gamma)
    cochain = parse_cochain((inputs_dir / "f_lam.coc").read_text(), cur1, module, 2)
    extension, verdict, _ = build_extension(datum)
    _, flat = deform(DeformationDatum(cur1, cochain))
    abelian, associative = build_abelian_extension(AbelianExtensionDatum(cur1, module, cochain))
    fresh = parse_algebra((inputs_dir / "cur1.alg").read_text())
    fresh_module = BimoduleStructure.regular(fresh)
    fresh_cochain = parse_cochain((inputs_dir / "f_lam.coc").read_text(), fresh, fresh_module, 2)
    assert ("stencil", 2) not in fresh_module._memo
    with monkeypatch.context() as patch:
        for name in LAW_KERNEL:
            patch.setattr(conformal, name, _refuse)
            for owner in (cfmodule, constructions):
                patch.setattr(owner, name, _refuse, raising=False)
        assert (not extension_residuals(datum)) == verdict
        assert apply_dn(fresh_cochain).is_zero() == flat
        assert ("stencil", 2) in fresh_module._memo
    with monkeypatch.context() as patch:
        for name in CHOM_DIFFERENTIAL:
            patch.setattr(constructions, name, _refuse)
        assert (check_module_axioms(extension) is None) == verdict
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_stencil", _refuse)
        with pytest.raises(AssertionError, match="one verification route"):
            apply_dn(cochain)
        assert (not deformation_residuals(DeformationDatum(cur1, cochain))) == flat
        assert (check_associativity(abelian) is None) == associative
        assert (not extension_residuals(datum)) == verdict
        assert (check_module_axioms(extension) is None) == verdict


def _verdict_sequence(inputs_dir) -> tuple[list, int]:
    """Deformations, abelian extensions, module extensions and both witness
    searches, each flat and obstructed, on freshly read cur1 and mat2: what
    they answer, and the largest degree among the tables they read."""
    answers, degrees = [], []
    for name in ("cur1.alg", "mat2.alg"):
        algebra = parse_algebra((inputs_dir / name).read_text(encoding="utf-8"))
        module = BimoduleStructure.regular(algebra)
        gens = module.generators
        rank = module.rank
        g = {(0,): (parse_poly("del^2 - del", D1),) * rank}
        flat = apply_dn(Cochain(1, algebra, module, g))
        bent = flat + Cochain(2, algebra, module, {(0, 0): (parse_poly("-2*lam1", D2),) * rank})
        zero = DeformationDatum(algebra, Cochain.zero(algebra, module, 2))
        coboundary = gamma_coboundary(module, module, {(0, 0): parse_poly("3*del", DEL)})
        kick = {0: CLinearMap(gens, gens, {(0, 0): Poly.const(PRODUCT_VARS, -2)})}
        unglued = ExtensionDatum(algebra, module, module, {})
        for cochain in (flat, bent):
            residuals, verdict = deform(DeformationDatum(algebra, cochain))
            abelian = AbelianExtensionDatum(algebra, module, cochain)
            _, associative = build_abelian_extension(abelian)
            witness = search_deformation_witness(DeformationDatum(algebra, cochain), zero, 2)
            answers.append((verdict, associative, rendered(residuals), rendered(witness)))
        for gamma in (coboundary, kick):
            datum = ExtensionDatum(algebra, module, module, gamma)
            _, verdict, residuals = build_extension(datum)
            witness = search_extension_witness(datum, unglued, 2)
            answers.append((verdict, rendered(residuals), rendered(witness)))
        degrees += [algebra.structure_degree(), top_degree(flat), top_degree(bent), 2]
        degrees += [p.total_degree() or 0 for gamma in (coboundary, kick)
                    for gmap in gamma.values() for p in gmap.matrix.values()]
    return answers, max(degrees)


def test_shared_ring_map_images_stay_correct_and_bounded(inputs_dir, monkeypatch):
    """The constant ring maps' images are shared by every call of the
    process: running the same verdicts and searches again on fresh objects
    gives the same answers and leaves every image as it was, so no caller
    changed one, and no image is keyed by a monomial of higher degree than
    the tables the calls read (the witness searches read the del powers
    of their unknowns up to their bound)."""
    maps = cold_images(monkeypatch)
    answers, top = _verdict_sequence(inputs_dir)
    assert [a[0] for a in answers] == [True, False, True, False] * 2
    assert [a[-1] is None for a in answers] == [False, True, False, True] * 2
    before = {name: copy.deepcopy(ring._images) for name, ring in maps.items()}
    assert all(before.values())
    assert _verdict_sequence(inputs_dir) == (answers, top)
    assert {name: ring._images for name, ring in maps.items()} == before
    assert [(name, exp) for name, ring in maps.items() for exp in ring._images
            if sum(exp) > top] == []
