import pytest

from pseudo.cfmodule import check_module_axioms
from pseudo.cohomology import cochain_variables
from pseudo.conformal import PRODUCT_VARS, check_associativity
from pseudo.formats import (
    DefinitionError,
    parse_algebra,
    parse_cochain,
    parse_fd_algebra,
    parse_gamma,
    parse_module,
)
from pseudo.polyring import Poly, parse_poly


def read(inputs_dir, name: str) -> str:
    return (inputs_dir / name).read_text()


def test_parse_algebra_files(inputs_dir, cur1, mat2):
    assert parse_algebra(read(inputs_dir, "cur1.alg")) == cur1
    assert parse_algebra(read(inputs_dir, "mat2.alg")) == mat2
    for name in ("bad_del.alg", "bad_lam.alg"):
        mutant = parse_algebra(read(inputs_dir, name))
        assert check_associativity(mutant) is not None


def test_parse_module_files(inputs_dir, cur1):
    both = parse_module(read(inputs_dir, "uboth.mod"), cur1)
    assert both.generators == ("u",)
    assert both.has_left and both.has_right
    assert check_module_axioms(both) is None
    left = parse_module(read(inputs_dir, "uleft.mod"), cur1)
    assert left.right == {}
    assert check_module_axioms(left) is None


def test_module_sides_inferred_when_undeclared(cur1):
    text = "kind: module\ngenerators: u\nleft e u -> 1 * u\n"
    mod = parse_module(text, cur1)
    assert mod.has_left and not mod.has_right


def test_parse_cochain_files(inputs_dir, cur1, cur1_regular):
    const = parse_cochain(read(inputs_dir, "f_const.coc"), cur1, cur1_regular)
    assert const.degree == 2
    assert const.value((0, 0))[0] == Poly.const(cochain_variables(2), 1)
    lam = parse_cochain(read(inputs_dir, "f_lam.coc"), cur1, cur1_regular)
    assert lam.value((0, 0))[0] == Poly.var(cochain_variables(2), "lam1")


def test_parse_gamma_files(inputs_dir, cur1, cur1_regular):
    gamma = parse_gamma(
        read(inputs_dir, "gamma_lam.coc"), cur1, cur1_regular, cur1_regular
    )
    assert set(gamma) == {0}
    assert gamma[0].matrix == {(0, 0): Poly.var(PRODUCT_VARS, "lam")}


def test_parse_fd_algebra_files(inputs_dir):
    mat2 = parse_fd_algebra(read(inputs_dir, "mat2.fda"))
    assert mat2.dimension == 4 and mat2.unit is not None
    dual = parse_fd_algebra(read(inputs_dir, "dual.fda"))
    assert dual.dimension == 2
    assert dual.multiply((0, 1), (0, 1)) == (0, 0)


def test_comments_and_blank_lines_ignored(cur1):
    text = "\n# heading\nkind: algebra\n\ngenerators: e  # trailing\nproduct e e -> 1 * e\n"
    assert parse_algebra(text) == cur1


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "empty"),
        ("generators: e\n", 1, "kind"),
        ("kind: module\ngenerators: e\n", 1, "expected 'kind: algebra'"),
        ("kind: algebra\nproduct e e -> 1 * e\n", 2, "before the generators"),
        ("kind: algebra\ngenerators: e\ngenerators: e\n", 3, "twice"),
        ("kind: algebra\ngenerators: e e\n", 2, "duplicate"),
        ("kind: algebra\ngenerators: lam\n", 2, "collides"),
        ("kind: algebra\ngenerators: 1e\n", 2, "invalid"),
        ("kind: algebra\ngenerators: e\nproduct e f -> 1 * e\n", 3, "unknown generator"),
        ("kind: algebra\ngenerators: e\nproduct e e -> mu * e\n", 3, "bad polynomial"),
        ("kind: algebra\ngenerators: e\nproduct e e => 1 * e\n", 3, "look like"),
        (
            "kind: algebra\ngenerators: e\nproduct e e -> 1 * e\nproduct e e -> del * e\n",
            4,
            "duplicate product target",
        ),
        ("kind: algebra\ngenerators: e\nweird line\n", 3, "unknown statement"),
    ],
)
def test_algebra_errors(text, line, fragment):
    with pytest.raises(DefinitionError) as info:
        parse_algebra(text)
    assert info.value.line == line
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("kind: module\ngenerators: u\n", 1, "no actions"),
        (
            "kind: module\ngenerators: u\nactions: left\nright u e -> 1 * u\n",
            1,
            "not declared",
        ),
        (
            "kind: module\ngenerators: u\nactions: up\n",
            3,
            "actions header",
        ),
        (
            "kind: module\ngenerators: u\nleft f u -> 1 * u\n",
            3,
            "unknown algebra generator",
        ),
        (
            "kind: module\ngenerators: u\nleft e v -> 1 * u\n",
            3,
            "unknown module generator",
        ),
    ],
)
def test_module_errors(text, line, fragment, cur1):
    with pytest.raises(DefinitionError) as info:
        parse_module(text, cur1)
    assert info.value.line == line
    assert fragment in str(info.value)


def test_cochain_errors(cur1, cur1_regular):
    with pytest.raises(DefinitionError) as info:
        parse_cochain("kind: cochain\nvalue e -> 1 * e\n", cur1, cur1_regular)
    assert "missing degree" in str(info.value)
    with pytest.raises(DefinitionError) as info:
        parse_cochain(
            "kind: cochain\ndegree: 2\nvalue e -> 1 * e\n", cur1, cur1_regular
        )
    assert info.value.line == 3 and "needs 2" in str(info.value)
    with pytest.raises(DefinitionError):
        parse_cochain(
            "kind: cochain\ndegree: 1\nvalue e -> lam1 * e\n", cur1, cur1_regular
        )
    with pytest.raises(DefinitionError) as info:
        parse_cochain(
            "kind: cochain\ndegree: 1\ncoefficients: chom\nvalue e e -> 1 * e\n",
            cur1,
            cur1_regular,
        )
    assert "extension data" in str(info.value)


def test_gamma_errors(cur1, cur1_regular):
    with pytest.raises(DefinitionError) as info:
        parse_gamma(
            "kind: cochain\ndegree: 1\nvalue e e -> 1 * e\n",
            cur1, cur1_regular, cur1_regular,
        )
    assert "chom" in str(info.value)
    with pytest.raises(DefinitionError) as info:
        parse_gamma(
            "kind: cochain\ndegree: 2\ncoefficients: chom\nvalue e e -> 1 * e\n",
            cur1, cur1_regular, cur1_regular,
        )
    assert "degree 1" in str(info.value)


def test_fd_algebra_errors():
    with pytest.raises(DefinitionError) as info:
        parse_fd_algebra(
            "kind: fd_algebra\ngenerators: a\nproduct a a -> del * a\n"
        )
    assert info.value.line == 3
    with pytest.raises(DefinitionError) as info:
        parse_fd_algebra("kind: fd_algebra\ngenerators: a b\nunit: 1\n")
    assert "coordinates" in str(info.value)
    with pytest.raises(DefinitionError):
        parse_fd_algebra(
            "kind: fd_algebra\ngenerators: a\nunit: 1\n"  # unit fails a*a = 0
        )


def test_rational_coefficients_parse(cur1):
    text = "kind: algebra\ngenerators: e\nproduct e e -> 1/2*del - 3 * e\n"
    alg = parse_algebra(text)
    assert alg.products(0, 0)[0][1] == parse_poly("1/2*del - 3", PRODUCT_VARS)
