import pytest
from hypothesis import given, strategies as st

from conftest import INPUTS, matrix_algebra, polys, rationals
from pseudo.cfmodule import BimoduleStructure, CLinearMap, check_module_axioms
from pseudo.cohomology import Cochain, cochain_variables
from pseudo.conformal import PRODUCT_VARS, ConformalAlgebra, check_associativity
from pseudo.formats import (
    DefinitionError,
    parse_algebra,
    parse_cochain,
    parse_fd_algebra,
    parse_gamma,
    parse_module,
)
from pseudo.polyring import Poly, parse_poly, poly_to_str, variable_key


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
    const = parse_cochain(read(inputs_dir, "f_const.coc"), cur1, cur1_regular, 2)
    assert const.degree == 2
    assert const.values[(0, 0)][0] == Poly.const(cochain_variables(2), 1)
    lam = parse_cochain(read(inputs_dir, "f_lam.coc"), cur1, cur1_regular, 2)
    assert lam.values[(0, 0)][0] == Poly.var(cochain_variables(2), "lam1")


def test_parse_gamma_files(inputs_dir, cur1, cur1_regular):
    gamma = parse_gamma(
        read(inputs_dir, "gamma_lam.coc"), cur1, cur1_regular, cur1_regular
    )
    assert set(gamma) == {0}
    assert gamma[0].matrix == {(0, 0): Poly.var(PRODUCT_VARS, "lam")}


def test_parse_fd_algebra_files(inputs_dir):
    mat2 = parse_fd_algebra(read(inputs_dir, "mat2.fda"))
    assert mat2 == matrix_algebra(2)
    dual = parse_fd_algebra(read(inputs_dir, "dual.fda"))
    assert dual.generators == ("one", "x")
    assert dual.structure[(0, 1)] == ((1, Poly.const(PRODUCT_VARS, 1)),)
    assert (1, 1) not in dual.structure  # x squares to zero


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
            4,
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
        parse_cochain("kind: cochain\nvalue e -> 1 * e\n", cur1, cur1_regular, 1)
    assert "missing degree" in str(info.value)
    with pytest.raises(DefinitionError) as info:
        parse_cochain(
            "kind: cochain\ndegree: 2\nvalue e -> 1 * e\n", cur1, cur1_regular, 2
        )
    assert info.value.line == 3 and "needs 2" in str(info.value)
    with pytest.raises(DefinitionError):
        parse_cochain(
            "kind: cochain\ndegree: 1\nvalue e -> lam1 * e\n", cur1, cur1_regular, 1
        )
    with pytest.raises(DefinitionError) as info:
        parse_cochain(
            "kind: cochain\ndegree: 1\ncoefficients: chom\nvalue e e -> 1 * e\n",
            cur1,
            cur1_regular,
            1,
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
    # unit coordinates follow the grammar of product coefficients
    for coordinate in ("0.5", "1e3", "1/0", "x"):
        with pytest.raises(DefinitionError) as info:
            parse_fd_algebra(
                f"kind: fd_algebra\ngenerators: a\nunit: {coordinate}\nproduct a a -> 2 * a\n"
            )
        assert info.value.line == 3
        assert "unit coordinates must be rationals" in str(info.value)
    half = parse_fd_algebra("kind: fd_algebra\ngenerators: a\nunit: 1/2\nproduct a a -> 2 * a\n")
    assert half.structure[(0, 0)] == ((0, Poly.const(PRODUCT_VARS, 2)),)


def test_rational_coefficients_parse(cur1):
    text = "kind: algebra\ngenerators: e\nproduct e e -> 1/2*del - 3 * e\n"
    alg = parse_algebra(text)
    assert alg.structure[(0, 0)][0][1] == parse_poly("1/2*del - 3", PRODUCT_VARS)


@pytest.mark.parametrize(
    "parser,text,line,fragment",
    [
        ("module", "# c\n\nkind: algebra\ngenerators: u\n", 3, "expected 'kind: module'"),
        (
            "fd_algebra",
            "kind: fd_algebra\ngenerators: a\n# a*a = 0\nunit: 1\n",
            4,
            "claimed unit is not an identity",
        ),
        (
            "module",
            "kind: module\ngenerators: u\nactions: left\nleft e u -> 1 * u\n"
            "\n# second side\nright u e -> 1 * u\n",
            7,
            "right lines present but not declared",
        ),
    ],
)
def test_errors_reported_at_the_line_at_fault(parser, text, line, fragment, cur1):
    parse = {"module": lambda t: parse_module(t, cur1), "fd_algebra": parse_fd_algebra}
    with pytest.raises(DefinitionError) as info:
        parse[parser](text)
    assert info.value.line == line
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "parser,text,line,fragment",
    [
        (
            "cochain",
            "kind: cochain\n# twist\ndegree: 1\ncoefficients: chom\nvalue e e -> 1 * e\n",
            4,
            "describes extension data",
        ),
        (
            "cochain",
            "kind: cochain\n\n# twist\ndegree: 1\nvalue e -> 1 * e\n",
            4,
            "expected a degree-2 cochain, found degree 1",
        ),
        (
            "gamma",
            "kind: cochain\n\n# gluing data\ndegree: 2\ncoefficients: chom\n",
            4,
            "must have degree 1",
        ),
        (
            "gamma",
            "# gluing data\n\nkind: cochain\ndegree: 1\nvalue e e -> 1 * e\n",
            3,
            "needs 'coefficients: chom'",
        ),
    ],
    ids=["chom-in-plain-cochain", "cochain-degree", "gamma-degree", "gamma-without-marker"],
)
def test_whole_file_errors_reported_at_their_header(
    parser, text, line, fragment, cur1, cur1_regular
):
    parse = {
        "cochain": lambda t: parse_cochain(t, cur1, cur1_regular, 2),
        "gamma": lambda t: parse_gamma(t, cur1, cur1_regular, cur1_regular),
    }
    with pytest.raises(DefinitionError) as info:
        parse[parser](text)
    assert info.value.line == line
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "parser,text,line",
    [
        ("cochain", "kind: cochain\ndegree: 1\ndegree: 2\nvalue e e -> 1 * e\n", 3),
        (
            "cochain",
            "kind: cochain\ncoefficients: chom\ndegree: 1\n# again\ncoefficients: chom\n",
            5,
        ),
        (
            "module",
            "kind: module\ngenerators: u\nactions: left\nleft e u -> 1 * u\n"
            "actions: right\n",
            5,
        ),
    ],
)
def test_repeated_header_rejected(parser, text, line, cur1, cur1_regular):
    parse = {
        "cochain": lambda t: parse_cochain(t, cur1, cur1_regular, 1),
        "module": lambda t: parse_module(t, cur1),
    }
    key = text.splitlines()[line - 1].split(":")[0]
    with pytest.raises(DefinitionError) as info:
        parse[parser](text)
    assert info.value.line == line
    assert f"{key} given twice" in str(info.value)


def test_cochain_rejects_a_target_repeated_after_a_zero_value(cur1, cur1_regular):
    text = "kind: cochain\ndegree: 2\nvalue e e -> 0 * e\nvalue e e -> lam1 * e\n"
    with pytest.raises(DefinitionError) as info:
        parse_cochain(text, cur1, cur1_regular, 2)
    assert info.value.line == 4
    assert "duplicate value target" in str(info.value)


# -- round trip: objects written as definition text parse back equal ------


def _statement(keyword, names, poly, target) -> str:
    return f"{keyword} {' '.join(names)} -> {poly_to_str(poly)} * {target}"


def _definition(obj, algebra=None) -> tuple[str, list[str], list[str]]:
    """Kind, header lines and statement lines that define ``obj``.

    Gluing data (a dict of maps) needs the ``algebra`` its keys index."""
    if isinstance(obj, ConformalAlgebra):
        g = obj.generators
        return "algebra", [f"generators: {' '.join(g)}"], [
            _statement("product", (g[i], g[j]), poly, g[k])
            for (i, j), entries in obj.structure.items()
            for k, poly in entries
        ]
    if isinstance(obj, BimoduleStructure):
        a, u = obj.algebra.generators, obj.generators
        sides = [side for side in ("left", "right") if getattr(obj, side) is not None]
        statements = [
            _statement(side, (a[x], u[y]) if side == "left" else (u[x], a[y]), poly, u[k])
            for side in sides
            for (x, y), entries in getattr(obj, side).items()
            for k, poly in entries
        ]
        return "module", [f"generators: {' '.join(u)}", f"actions: {' '.join(sides)}"], statements
    if isinstance(obj, Cochain):
        a, u = obj.algebra.generators, obj.module.generators
        return "cochain", [f"degree: {obj.degree}"], [
            _statement("value", [a[i] for i in key], poly, u[k])
            for key, vec in obj.values.items()
            for k, poly in enumerate(vec)
            if not poly.is_zero
        ]
    return "cochain", ["degree: 1", "coefficients: chom"], [
        _statement("value", (algebra.generators[i], cmap.source[t]), poly, cmap.target[s])
        for i, cmap in obj.items()
        for (t, s), poly in cmap.matrix.items()
    ]


def _render(kind, headers, statements, draw) -> str:
    """Definition text with comments and blank lines, statements shuffled.

    A generators header comes first; any other header may fall among the
    statements."""
    decorations = st.sampled_from(["", "# a comment", "   "])
    first = [header for header in headers if header.startswith("generators:")]
    body = list(draw(st.permutations(statements)))
    for header in headers:
        if header not in first:
            body.insert(draw(st.integers(0, len(body))), header)
    lines = [draw(decorations), f"kind: {kind}"]
    for line in first + body:
        lines.append(line + draw(st.sampled_from(["", "  # trailing"])))
        lines.append(draw(decorations))
    return "\n".join(lines) + "\n"


def _is_variable(name: str) -> bool:
    try:
        variable_key(name)
        return True
    except ValueError:
        return False


_NAMES = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,2}", fullmatch=True).filter(lambda n: not _is_variable(n)),
    min_size=1,
    max_size=3,
    unique=True,
).map(tuple)


def _random_table(draw, first, second, target):
    """A structure table {(i, j): [(k, P), ...]} with a few entries."""
    cells = st.tuples(*(st.integers(0, size - 1) for size in (first, second, target)))
    table = {}
    for i, j, k in draw(st.lists(cells, max_size=5, unique=True)):
        table.setdefault((i, j), []).append((k, draw(polys(PRODUCT_VARS, 2, 3))))
    return table


def _random_module(draw, algebra):
    u = draw(_NAMES)
    sides = draw(st.sampled_from([("left",), ("right",), ("left", "right")]))
    a, m = algebra.rank, len(u)
    return BimoduleStructure(
        algebra,
        u,
        _random_table(draw, a, m, m) if "left" in sides else None,
        _random_table(draw, m, a, m) if "right" in sides else None,
    )


def _random_case(kind, draw):
    """A random object of ``kind``, the algebra its text needs (gluing data
    only) and the parser that reads the text back."""
    if kind == "fd_algebra":
        g = draw(_NAMES)
        structure = {
            (i, j): [(k, Poly.const(PRODUCT_VARS, draw(rationals()))) for k in range(len(g))]
            for i in range(len(g))
            for j in range(len(g))
        }
        return ConformalAlgebra(g, structure), None, parse_fd_algebra
    g = draw(_NAMES)
    algebra = ConformalAlgebra(g, _random_table(draw, len(g), len(g), len(g)))
    if kind == "algebra":
        return algebra, None, parse_algebra
    module = _random_module(draw, algebra)
    if kind == "module":
        return module, None, lambda text: parse_module(text, algebra)
    if kind == "cochain":
        degree = draw(st.integers(0, 3))
        variables = cochain_variables(degree)
        keys = st.tuples(*[st.integers(0, algebra.rank - 1)] * degree)
        values = {
            key: tuple(draw(polys(variables, 2, 3)) for _ in module.generators)
            for key in draw(st.lists(keys, max_size=4, unique=True))
        }
        cochain = Cochain(degree, algebra, module, values)
        return cochain, None, lambda text: parse_cochain(text, algebra, module, degree)
    quotient = _random_module(draw, algebra)
    matrices = {}
    for (i, t), entries in _random_table(draw, algebra.rank, quotient.rank, module.rank).items():
        for s, poly in entries:
            if not poly.is_zero:  # a map keeps no zero entry, so nothing is written
                matrices.setdefault(i, {})[(t, s)] = poly
    gamma = {
        i: CLinearMap(quotient.generators, module.generators, matrix)
        for i, matrix in matrices.items()
    }
    return gamma, algebra, lambda text: parse_gamma(text, algebra, module, quotient)


@pytest.mark.parametrize("kind", ["algebra", "module", "cochain", "gamma", "fd_algebra"])
@given(data=st.data())
def test_definition_text_round_trip(kind, data):
    expected, algebra, parse = _random_case(kind, data.draw)
    written, headers, statements = _definition(expected, algebra)
    if kind == "fd_algebra":  # a constant table written as fd_algebra text
        written = kind
    text = _render(written, headers, statements, data.draw)
    assert parse(text) == expected


def _committed_files():
    root = INPUTS.parent
    paths = sorted(INPUTS.iterdir()) + sorted((root / "perfbench" / "algebras").glob("*.alg"))
    return [path.relative_to(root).as_posix() for path in paths]


@pytest.mark.parametrize("name", _committed_files())
def test_committed_definition_file_parses(name, cur1, cur1_regular, inputs_dir):
    """Each committed file parses with its kind's parser, and writing the
    result back as definition text parses to the same object."""
    text = (inputs_dir.parent / name).read_text(encoding="utf-8")
    kind = next(line for line in text.splitlines() if line.startswith("kind:")).split()[1]
    module = cur1_regular
    if name == "inputs/gamma_zero_u.coc":
        module = parse_module(read(inputs_dir, "uboth.mod"), cur1)
    algebra = None
    if kind == "algebra":
        parse = parse_algebra
    elif kind == "fd_algebra":
        parse = parse_fd_algebra
    elif kind == "module":
        parse = lambda t: parse_module(t, cur1)
    elif "coefficients: chom" in text:
        algebra = cur1
        parse = lambda t: parse_gamma(t, cur1, module, module)
    else:
        parse = lambda t: parse_cochain(t, cur1, module, 2)
    parsed = parse(text)
    _, headers, statements = _definition(parsed, algebra)
    assert parse("\n".join([f"kind: {kind}", *headers, *statements])) == parsed
