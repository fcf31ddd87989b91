import pytest

from conftest import INPUTS, cold_images, record_images, table_monomials
from pseudo.cfmodule import (
    BimoduleStructure,
    CLinearMap,
    check_module_axioms,
)
from pseudo.cohomology import Cochain, cochain_variables
from pseudo.conformal import ASSOC_VARS, PRODUCT_VARS, check_associativity
from pseudo.constructions import DeformationDatum, deformation_residuals
from pseudo.formats import parse_algebra
from pseudo.polyring import Poly, parse_poly

ONE = Poly.const(PRODUCT_VARS, 1)
# rank two, structure polynomials of degree 0 and 1
U2_PATH = INPUTS.parent / "perfbench" / "algebras" / "u2.alg"
DEL = Poly.var(PRODUCT_VARS, "del")


def rank_one_module(algebra, left_poly=None, right_poly=None):
    left = None if left_poly is None else (
        {} if left_poly.is_zero else {(0, 0): ((0, left_poly),)}
    )
    right = None if right_poly is None else (
        {} if right_poly.is_zero else {(0, 0): ((0, right_poly),)}
    )
    return BimoduleStructure(algebra=algebra, generators=("u",), left=left, right=right)


def test_regular_module_passes(cur1, mat2):
    for alg in (cur1, mat2):
        reg = BimoduleStructure.regular(alg)
        assert reg.generators == alg.generators
        assert reg.has_left and reg.has_right
        assert check_module_axioms(reg) is None


def _entries(table) -> int:
    return sum(len(entries) for entries in table.values())


def test_checkers_substitute_each_table_entry_once_per_map(monkeypatch):
    # the four law maps are built once per process and shared by every law
    # and call: from cold images, a call expands each distinct monomial of
    # the tables it moves at most once per map, not once per entry, triple
    # or law, and the same call on fresh, equal objects expands none
    formed = record_images(monkeypatch)
    for path in (INPUTS / "mat2.alg", U2_PATH):
        text = path.read_text(encoding="utf-8")
        algebra, twin = parse_algebra(text), parse_algebra(text)
        reg = BimoduleStructure.regular(algebra)
        cold_images(monkeypatch)
        formed.clear()
        assert check_associativity(algebra) is None
        monomials = len(table_monomials(algebra.structure))
        assert len(set(formed)) == len(formed)
        assert len({ring for ring, _ in formed}) <= 4
        assert 0 < len(set(formed)) <= 4 * monomials <= 4 * _entries(algebra.structure)
        formed.clear()
        assert check_associativity(twin) is None
        assert formed == []
        cold_images(monkeypatch)
        assert check_module_axioms(reg) is None
        read = _entries(algebra.structure) + _entries(reg.left) + _entries(reg.right)
        monomials = len(table_monomials(algebra.structure, reg.left, reg.right))
        assert len(set(formed)) == len(formed)
        assert len({ring for ring, _ in formed}) <= 4
        assert 0 < len(set(formed)) <= 4 * monomials <= 4 * read
        formed.clear()
        assert check_module_axioms(BimoduleStructure.regular(twin)) is None
        assert formed == []


def test_law_kernel_builds_no_poly_per_term(monkeypatch):
    # the kernel sums raw terms and reads each sum once: no Poly product,
    # sum or difference is formed while a law is checked, whether it
    # holds or fails
    read = lambda name: parse_algebra((INPUTS / name).read_text(encoding="utf-8"))
    algebras = [read("mat2.alg"), parse_algebra(U2_PATH.read_text(encoding="utf-8"))]
    d2 = cochain_variables(2)
    runs = []
    for algebra in algebras:
        module = BimoduleStructure.regular(algebra)
        value = (Poly.var(d2, "lam1"),) + (Poly.zero(d2),) * (algebra.rank - 1)
        datum = DeformationDatum(algebra, Cochain(2, algebra, module, {(0, 0): value}))
        runs.append((algebra, module, datum))
    bad = read("bad_del.alg")
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        original = getattr(Poly, name)
        monkeypatch.setattr(
            Poly, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    residuals = []
    for algebra, module, datum in runs:
        assert check_associativity(algebra) is None
        assert check_module_axioms(module) is None
        residuals.append(deformation_residuals(datum))
    assert check_associativity(bad) is not None
    assert calls == []
    assert all(residuals)


def test_two_sided_unit_module(cur1):
    mod = rank_one_module(cur1, ONE, ONE)
    assert check_module_axioms(mod) is None


def test_left_unit_zero_right_module(cur1):
    mod = rank_one_module(cur1, ONE, Poly.zero(PRODUCT_VARS))
    assert mod.right == {}
    assert check_module_axioms(mod) is None


def test_broken_left_law(cur1):
    mod = rank_one_module(cur1, DEL, ONE)
    cex = check_module_axioms(mod)
    assert cex is not None
    assert cex.law == "left"
    assert cex.triple == (0, 0, 0)
    assert cex.residual[0] == parse_poly("lam*del + del^2 - del", ASSOC_VARS)


def test_absent_sides_skip_their_laws(cur1):
    left_only = rank_one_module(cur1, DEL, None)
    cex = check_module_axioms(left_only)
    assert cex is not None and cex.law == "left"
    right_only = rank_one_module(cur1, None, ONE)
    assert check_module_axioms(right_only) is None
    assert not right_only.has_left


def test_structure_validation(cur1):
    with pytest.raises(ValueError):
        BimoduleStructure(algebra=cur1, generators=("u",),
                          left={(1, 0): ((0, ONE),)}, right=None)
    with pytest.raises(ValueError):
        BimoduleStructure(algebra=cur1, generators=("u",),
                          left={(0, 0): ((0, Poly.const(("del",), 1)),)}, right=None)
    with pytest.raises(ValueError):
        BimoduleStructure(algebra=cur1, generators=("u",), left=None, right=None)


def test_entry_lookup(mat2):
    reg = BimoduleStructure.regular(mat2)
    assert reg.left[(0, 1)] == ((1, ONE),)
    assert (0, 2) not in reg.left
    assert reg.right[(1, 2)] == ((0, ONE),)
    assert reg.structure_degree() == 0


def test_clinear_map_arithmetic():
    f = CLinearMap(("u",), ("v",), {(0, 0): DEL})
    g = CLinearMap(("u",), ("v",), {(0, 0): ONE})
    assert (f + g).matrix[(0, 0)] == DEL + ONE
    assert (f - f).is_zero()
    assert f.scaled(2).matrix[(0, 0)] == 2 * DEL
    zero = CLinearMap.zero(("u",), ("v",))
    assert zero.is_zero()
    with pytest.raises(ValueError):
        f + CLinearMap(("u", "w"), ("v",), {})
    with pytest.raises(ValueError):
        CLinearMap(("u",), ("v",), {(1, 0): ONE})


def test_broken_right_law(cur1):
    mod = BimoduleStructure(algebra=cur1, generators=("u",), left={},
                            right={(0, 0): ((0, -ONE),)})
    cex = check_module_axioms(mod)
    assert cex is not None
    assert cex.law == "right"
    assert cex.triple == (0, 0, 0)
    assert cex.residual == (Poly.const(ASSOC_VARS, -2),)


def test_broken_compat_law(cur1):
    mod = BimoduleStructure(algebra=cur1, generators=("u", "v"),
                            left={(0, 1): ((1, ONE),)},
                            right={(1, 0): ((0, ONE), (1, ONE))})
    cex = check_module_axioms(mod)
    assert cex is not None
    assert cex.law == "compat"
    assert cex.triple == (0, 1, 0)
    assert cex.residual == (Poly.const(ASSOC_VARS, -1), Poly.zero(ASSOC_VARS))
