"""Parsing of the line-oriented definition files.

Every file starts with a ``kind:`` header (algebra, module, cochain or
fd_algebra) followed by headers and statement lines.  ``#`` starts a
comment; blank lines are ignored.  One grammar holds for every kind:

- each header the kind allows appears at most once;
- where the kind has ``generators:``, statements come after it;
- a statement reads ``<keyword> <name> ... -> P * <target>`` where P is
  polynomial text and target a generator, so one line holds one target
  term and multi-term values repeat the left-hand side across lines;
- a repeated target for the same left-hand side is an error.

    kind: algebra
    generators: e11 e12 e21 e22
    product e11 e12 -> 1 * e12

    kind: module
    generators: u
    actions: left right
    left e u -> del * u
    right u e -> 1 * u

    kind: cochain
    degree: 2
    value e e -> lam1 * e

A degree-1 cochain file with ``coefficients: chom`` holds extension
gluing data: ``value a u -> P * m`` with P in (del, lam), u a quotient
generator and m a sub generator.

An fd_algebra file gives a finite-dimensional algebra A: an algebra file
whose coefficients are rationals (polynomials over no variables), plus an
optional ``unit:`` header of coordinates in the same grammar.
`parse_fd_algebra` returns the current algebra Cur A, with constant
products, and checks the unit at its line without keeping it.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .cfmodule import BimoduleStructure, CLinearMap
from .conformal import PRODUCT_VARS, ConformalAlgebra
from .polyring import Poly, PolyParseError, parse_poly, variable_key

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# (line, keyword, names before "->", polynomial text, target name)
_Statement = tuple[int, str, list[str], str, str]


class DefinitionError(ValueError):
    """Rejected definition file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_poly_variable(name: str) -> bool:
    try:
        variable_key(name)
        return True
    except ValueError:
        return False


def _split_header(line: str) -> tuple[str, str] | None:
    head, sep, rest = line.partition(":")
    if not sep or " " in head.strip() or not head.strip():
        return None
    return head.strip(), rest.strip()


def _parse_generator_list(line: int, rest: str) -> tuple[str, ...]:
    names = tuple(rest.split())
    if not names:
        raise DefinitionError("empty generator list", line)
    seen = set()
    for name in names:
        if not _NAME_RE.match(name):
            raise DefinitionError(f"invalid generator name {name!r}", line)
        if _is_poly_variable(name):
            raise DefinitionError(
                f"generator name {name!r} collides with a polynomial variable", line
            )
        if name in seen:
            raise DefinitionError(f"duplicate generator {name!r}", line)
        seen.add(name)
    return names


def _split_rhs(rhs: str, line: int) -> tuple[str, str]:
    """Split 'P * name' at the last '*' preceding a bare generator name."""
    poly_text, sep, name = rhs.rpartition("*")
    name = name.strip()
    if not sep or not poly_text.strip():
        raise DefinitionError("right-hand side must have the shape 'P * generator'", line)
    if not _NAME_RE.match(name) or _is_poly_variable(name):
        raise DefinitionError(f"{name!r} is not a generator name", line)
    return poly_text.strip(), name


def _read(
    text: str, kind: str, headers: Sequence[str], shapes: Mapping[str, str]
) -> tuple[dict[str, tuple[int, str]], list[_Statement]]:
    """Check the kind line, then split the file into headers and statements.

    ``headers`` lists the headers the kind allows; ``shapes`` maps each
    statement keyword to the usage shown for a line of it without ``->``.
    Returns ``{header: (line, text)}``, with the kind line under "kind",
    and the statements in file order.
    """
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((number, line))
    if not lines:
        raise DefinitionError("empty definition file", 1)
    number, first = lines[0]
    header = _split_header(first)
    if header is None or header[0] != "kind":
        raise DefinitionError("first line must be 'kind: ...'", number)
    if header[1] != kind:
        raise DefinitionError(f"expected 'kind: {kind}', found 'kind: {header[1]}'", number)
    needs_generators = "generators" in headers
    found: dict[str, tuple[int, str]] = {"kind": (number, kind)}
    statements: list[_Statement] = []
    for number, line in lines[1:]:
        header = _split_header(line)
        if header is not None:
            key, rest = header
            if key not in headers:
                raise DefinitionError(f"unknown header {key!r}", number)
            if key in found:
                raise DefinitionError(f"{key} given twice", number)
            found[key] = (number, rest)
            continue
        keyword, *parts = line.split()
        if keyword not in shapes:
            raise DefinitionError(f"unknown statement {keyword!r}", number)
        if needs_generators and "generators" not in found:
            raise DefinitionError(f"{keyword} lines before the generators header", number)
        if "->" not in parts:
            raise DefinitionError(
                f"{keyword} lines look like '{keyword} {shapes[keyword]}'", number
            )
        poly_text, target = _split_rhs(line.split("->", 1)[1], number)
        statements.append((number, keyword, parts[: parts.index("->")], poly_text, target))
    if needs_generators and "generators" not in found:
        raise DefinitionError("missing generators header", 1)
    return found, statements


def _index_of(names: Sequence[str], what: str, name: str, line: int) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise DefinitionError(f"unknown {what} {name!r}", line) from None


def _table(
    statements: list[_Statement],
    keyword: str,
    axes: Sequence[tuple[Sequence[str], str]],
    variables: tuple[str, ...],
) -> dict[tuple[int, ...], list[tuple[int, Poly]]]:
    """``{key: [(k, P), ...]}`` from the statements of one keyword.

    ``axes`` holds (generator names, what they are) for each name before
    ``->`` and then for the target.  Entries are sorted by target; keys
    keep the order of their first statement.
    """
    *key_axes, target_axis = axes
    table: dict[tuple[int, ...], dict[int, Poly]] = {}
    for number, word, names, poly_text, target in statements:
        if word != keyword:
            continue
        if len(names) != len(key_axes):
            raise DefinitionError(
                f"{keyword} line needs {len(key_axes)} generators, got {len(names)}",
                number,
            )
        key = tuple(_index_of(*axis, name, number) for axis, name in zip(key_axes, names))
        k = _index_of(*target_axis, target, number)
        try:
            poly = parse_poly(poly_text, variables)
        except PolyParseError as exc:
            raise DefinitionError(f"bad polynomial {poly_text!r}: {exc}", number) from None
        entries = table.setdefault(key, {})
        if k in entries:
            raise DefinitionError(
                f"duplicate {keyword} target {target!r} for ({', '.join(names)})",
                number,
            )
        entries[k] = poly
    return {key: sorted(entries.items()) for key, entries in table.items()}


def parse_algebra(text: str) -> ConformalAlgebra:
    found, statements = _read(text, "algebra", ("generators",), {"product": "a b -> P * c"})
    generators = _parse_generator_list(*found["generators"])
    axis = (generators, "generator")
    return ConformalAlgebra(
        generators, _table(statements, "product", (axis, axis, axis), PRODUCT_VARS)
    )


def parse_module(text: str, algebra: ConformalAlgebra) -> BimoduleStructure:
    found, statements = _read(
        text,
        "module",
        ("generators", "actions"),
        {"left": "a u -> P * v", "right": "u a -> P * v"},
    )
    generators = _parse_generator_list(*found["generators"])
    if "actions" in found:
        number, rest = found["actions"]
        sides = set(rest.split())
        if not sides or not sides <= {"left", "right"}:
            raise DefinitionError("actions header lists 'left' and/or 'right'", number)
    else:
        sides = {keyword for _, keyword, *_ in statements}
    if not sides:
        raise DefinitionError("module defines no actions; declare sides with 'actions:'", 1)
    for number, side, *_ in statements:
        if side not in sides:
            raise DefinitionError(f"{side} lines present but not declared in actions", number)
    outer = (algebra.generators, "algebra generator")
    inner = (generators, "module generator")
    axes = {"left": (outer, inner, inner), "right": (inner, outer, inner)}
    tables = {
        side: _table(statements, side, axes[side], PRODUCT_VARS) if side in sides else None
        for side in axes
    }
    return BimoduleStructure(algebra, generators, tables["left"], tables["right"])


def _read_cochain(text: str, shape: str) -> tuple[int, int, bool, int, list[_Statement]]:
    """Degree, chom marker and value statements of a cochain file, each
    header with its line (the marker's is the kind line when absent)."""
    found, statements = _read(text, "cochain", ("degree", "coefficients"), {"value": shape})
    if "degree" not in found:
        raise DefinitionError("missing degree header", 1)
    degree_line, degree = found["degree"]
    if not degree.isdecimal():
        raise DefinitionError("degree must be a nonnegative integer", degree_line)
    try:
        value = int(degree)
    except ValueError:  # past the interpreter's limit on digits converted
        raise DefinitionError(f"degree of {len(degree)} digits is too long", degree_line) from None
    marker_line, marker = found.get("coefficients", (found["kind"][0], None))
    if marker not in (None, "chom"):
        raise DefinitionError("the only supported coefficients marker is 'chom'", marker_line)
    return value, degree_line, marker == "chom", marker_line, statements


def parse_cochain(text: str, algebra: ConformalAlgebra, module: BimoduleStructure, degree: int):
    """The `cohomology.Cochain` a file defines; an error at the
    ``degree:`` line unless the file's degree is ``degree``."""
    found, degree_line, chom, marker_line, statements = _read_cochain(text, "... -> P * m")
    if chom:
        raise DefinitionError(
            "chom-valued file describes extension data, not a plain cochain", marker_line
        )
    if found != degree:
        raise DefinitionError(
            f"expected a degree-{degree} cochain, found degree {found}", degree_line
        )
    from .cohomology import Cochain, cochain_variables

    variables = cochain_variables(degree)
    axes = [(algebra.generators, "algebra generator")] * degree
    axes.append((module.generators, "module generator"))
    values = {}
    for key, entries in _table(statements, "value", axes, variables).items():
        vec = [Poly.zero(variables)] * module.rank
        for k, poly in entries:
            vec[k] = poly
        values[key] = tuple(vec)
    return Cochain(degree, algebra, module, values)


def parse_gamma(
    text: str,
    algebra: ConformalAlgebra,
    sub: BimoduleStructure,
    quotient: BimoduleStructure,
) -> dict[int, CLinearMap]:
    degree, degree_line, chom, marker_line, statements = _read_cochain(text, "a u -> P * m")
    if not chom:
        raise DefinitionError("extension data needs 'coefficients: chom'", marker_line)
    if degree != 1:
        raise DefinitionError("extension data must have degree 1", degree_line)
    axes = (
        (algebra.generators, "algebra generator"),
        (quotient.generators, "quotient generator"),
        (sub.generators, "sub generator"),
    )
    matrices: dict[int, dict[tuple[int, int], Poly]] = {}
    for (i, t), entries in _table(statements, "value", axes, PRODUCT_VARS).items():
        for s, poly in entries:
            matrices.setdefault(i, {})[(t, s)] = poly
    return {i: CLinearMap(quotient.generators, sub.generators, m) for i, m in matrices.items()}


def parse_fd_algebra(text: str) -> ConformalAlgebra:
    """The current algebra of the finite-dimensional algebra a file defines
    (see ``pseudo.classical``); a ``unit:`` header is checked, not kept."""
    found, statements = _read(
        text, "fd_algebra", ("generators", "unit"), {"product": "a b -> c/d * e"}
    )
    generators = _parse_generator_list(*found["generators"])
    axis = (generators, "generator")
    table = _table(statements, "product", (axis, axis, axis), ())
    algebra = ConformalAlgebra(generators, {
        key: [(k, Poly.const(PRODUCT_VARS, c.constant_term())) for k, c in entries]
        for key, entries in table.items()
    })
    if "unit" in found:
        _check_unit(algebra, *found["unit"])
    return algebra


def _check_unit(algebra: ConformalAlgebra, line: int, text: str) -> None:
    """Reject unit coordinates that are not a two-sided identity of the
    constant products of ``algebra``."""
    n = algebra.rank
    coords = text.split()
    if len(coords) != n:
        raise DefinitionError(f"unit needs {n} coordinates", line)
    try:
        unit = [parse_poly(c, ()).constant_term() for c in coords]
    except PolyParseError:
        raise DefinitionError("unit coordinates must be rationals", line) from None
    products = algebra.structure
    for j in range(n):
        left, right = [0] * n, [0] * n
        for i, u in enumerate(unit):
            for k, poly in products.get((i, j), ()):
                left[k] += u * poly.constant_term()
            for k, poly in products.get((j, i), ()):
                right[k] += u * poly.constant_term()
        basis_vector = [int(k == j) for k in range(n)]
        if left != basis_vector or right != basis_vector:
            raise DefinitionError("claimed unit is not an identity", line)
