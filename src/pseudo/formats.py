"""Parsing of the line-oriented definition files.

Every file starts with a ``kind:`` header (algebra, module, cochain or
fd_algebra) followed by headers and statement lines.  ``#`` starts a
comment; blank lines are ignored.  A statement's right-hand side has the
shape ``P * name`` where P is polynomial text and name a generator; one
line contributes one target term, so multi-term values repeat the
left-hand side across lines.

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
generator and m a sub generator.  fd_algebra files look like algebra
files with constant coefficients plus an optional ``unit:`` header.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cfmodule import BimoduleStructure, CLinearMap
from .classical import FDAlgebra
from .cohomology import Cochain, cochain_variables
from .conformal import PRODUCT_VARS, ConformalAlgebra
from .polyring import Poly, PolyParseError, parse_poly, variable_key

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


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


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _split_header(line: str) -> Optional[tuple[str, str]]:
    head, sep, rest = line.partition(":")
    if not sep or " " in head.strip() or not head.strip():
        return None
    return head.strip(), rest.strip()


def _parse_generator_list(rest: str, line: int) -> tuple[str, ...]:
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


def _parse_coefficient(
    text: str, variables: tuple[str, ...], line: int
) -> Poly:
    try:
        return parse_poly(text, variables)
    except PolyParseError as exc:
        raise DefinitionError(f"bad polynomial {text!r}: {exc}", line) from None


class _Document:
    """Kind header plus the remaining lines, with position tracking."""

    def __init__(self, text: str):
        lines = list(_meaningful_lines(text))
        if not lines:
            raise DefinitionError("empty definition file", 1)
        number, first = lines[0]
        header = _split_header(first)
        if header is None or header[0] != "kind":
            raise DefinitionError("first line must be 'kind: ...'", number)
        self.kind = header[1]
        self.body = lines[1:]

    def require_kind(self, expected: str):
        if self.kind != expected:
            raise DefinitionError(
                f"expected 'kind: {expected}', found 'kind: {self.kind}'", 1
            )


def _index_of(names: Sequence[str], name: str, what: str, line: int) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise DefinitionError(f"unknown {what} {name!r}", line) from None


def parse_algebra(text: str) -> ConformalAlgebra:
    doc = _Document(text)
    doc.require_kind("algebra")
    generators: Optional[tuple[str, ...]] = None
    table: dict[tuple[int, int], dict[int, Poly]] = {}
    for number, line in doc.body:
        header = _split_header(line)
        if header is not None:
            key, rest = header
            if key == "generators":
                if generators is not None:
                    raise DefinitionError("generators given twice", number)
                generators = _parse_generator_list(rest, number)
                continue
            raise DefinitionError(f"unknown header {key!r}", number)
        parts = line.split()
        if parts[0] != "product":
            raise DefinitionError(f"unknown statement {parts[0]!r}", number)
        if generators is None:
            raise DefinitionError("products before the generators header", number)
        if len(parts) < 4 or parts[3] != "->":
            raise DefinitionError(
                "product lines look like 'product a b -> P * c'", number
            )
        i = _index_of(generators, parts[1], "generator", number)
        j = _index_of(generators, parts[2], "generator", number)
        poly_text, target = _split_rhs(line.split("->", 1)[1], number)
        k = _index_of(generators, target, "generator", number)
        poly = _parse_coefficient(poly_text, PRODUCT_VARS, number)
        pair = table.setdefault((i, j), {})
        if k in pair:
            raise DefinitionError(
                f"duplicate product target {target!r} for this pair", number
            )
        pair[k] = poly
    if generators is None:
        raise DefinitionError("missing generators header", 1)
    structure = {
        key: [(k, poly) for k, poly in sorted(entries.items())]
        for key, entries in table.items()
    }
    return ConformalAlgebra(generators, structure)


def parse_module(text: str, algebra: ConformalAlgebra) -> BimoduleStructure:
    doc = _Document(text)
    doc.require_kind("module")
    generators: Optional[tuple[str, ...]] = None
    declared: Optional[set[str]] = None
    tables: dict[str, dict[tuple[int, int], dict[int, Poly]]] = {
        "left": {},
        "right": {},
    }
    used: set[str] = set()
    for number, line in doc.body:
        header = _split_header(line)
        if header is not None:
            key, rest = header
            if key == "generators":
                if generators is not None:
                    raise DefinitionError("generators given twice", number)
                generators = _parse_generator_list(rest, number)
                continue
            if key == "actions":
                sides = rest.split()
                if not sides or any(s not in ("left", "right") for s in sides):
                    raise DefinitionError(
                        "actions header lists 'left' and/or 'right'", number
                    )
                declared = set(sides)
                continue
            raise DefinitionError(f"unknown header {key!r}", number)
        parts = line.split()
        side = parts[0]
        if side not in ("left", "right"):
            raise DefinitionError(f"unknown statement {side!r}", number)
        if generators is None:
            raise DefinitionError("action lines before the generators header", number)
        if len(parts) < 4 or parts[3] != "->":
            raise DefinitionError(
                f"{side} lines look like '{side} a u -> P * v'"
                if side == "left"
                else "right lines look like 'right u a -> P * v'",
                number,
            )
        if side == "left":
            i = _index_of(algebra.generators, parts[1], "algebra generator", number)
            j = _index_of(generators, parts[2], "module generator", number)
            key = (i, j)
        else:
            j = _index_of(generators, parts[1], "module generator", number)
            i = _index_of(algebra.generators, parts[2], "algebra generator", number)
            key = (j, i)
        poly_text, target = _split_rhs(line.split("->", 1)[1], number)
        k = _index_of(generators, target, "module generator", number)
        poly = _parse_coefficient(poly_text, PRODUCT_VARS, number)
        entries = tables[side].setdefault(key, {})
        if k in entries:
            raise DefinitionError(
                f"duplicate {side} target {target!r} for this pair", number
            )
        entries[k] = poly
        used.add(side)
    if generators is None:
        raise DefinitionError("missing generators header", 1)
    present = declared if declared is not None else used
    if not present:
        raise DefinitionError(
            "module defines no actions; declare sides with 'actions:'", 1
        )
    for side in used - present:
        raise DefinitionError(f"{side} lines present but not declared in actions", 1)

    def build(side: str):
        if side not in present:
            return None
        return {
            key: [(k, poly) for k, poly in sorted(entries.items())]
            for key, entries in tables[side].items()
        }

    return BimoduleStructure(
        algebra=algebra,
        generators=generators,
        left=build("left"),
        right=build("right"),
    )


def _parse_cochain_document(
    text: str,
) -> tuple[int, bool, list[tuple[int, list[str], str]]]:
    """Shared cochain-file front end: degree, chom flag, value lines."""
    doc = _Document(text)
    doc.require_kind("cochain")
    degree: Optional[int] = None
    chom = False
    values: list[tuple[int, list[str], str]] = []
    for number, line in doc.body:
        header = _split_header(line)
        if header is not None:
            key, rest = header
            if key == "degree":
                try:
                    degree = int(rest)
                except ValueError:
                    raise DefinitionError("degree must be an integer", number) from None
                if degree < 0:
                    raise DefinitionError("degree must be nonnegative", number)
                continue
            if key == "coefficients":
                if rest != "chom":
                    raise DefinitionError(
                        "the only supported coefficients marker is 'chom'", number
                    )
                chom = True
                continue
            raise DefinitionError(f"unknown header {key!r}", number)
        parts = line.split()
        if parts[0] != "value":
            raise DefinitionError(f"unknown statement {parts[0]!r}", number)
        if "->" not in parts:
            raise DefinitionError("value lines look like 'value ... -> P * m'", number)
        arrow = parts.index("->")
        values.append((number, parts[1:arrow], line.split("->", 1)[1]))
    if degree is None:
        raise DefinitionError("missing degree header", 1)
    return degree, chom, values


def parse_cochain(
    text: str, algebra: ConformalAlgebra, module: BimoduleStructure
) -> Cochain:
    degree, chom, value_lines = _parse_cochain_document(text)
    if chom:
        raise DefinitionError(
            "chom-valued file describes extension data, not a plain cochain", 1
        )
    variables = cochain_variables(degree)
    table: dict[tuple[int, ...], list[Poly]] = {}
    for number, args, rhs in value_lines:
        if len(args) != degree:
            raise DefinitionError(
                f"value line needs {degree} algebra generators, got {len(args)}",
                number,
            )
        key = tuple(
            _index_of(algebra.generators, name, "algebra generator", number)
            for name in args
        )
        poly_text, target = _split_rhs(rhs, number)
        k = _index_of(module.generators, target, "module generator", number)
        poly = _parse_coefficient(poly_text, variables, number)
        vec = table.setdefault(key, [Poly.zero(variables)] * module.rank)
        if not vec[k].is_zero:
            raise DefinitionError(
                f"duplicate value target {target!r} for this tuple", number
            )
        vec[k] = poly
    return Cochain(
        degree, algebra, module, {key: tuple(vec) for key, vec in table.items()}
    )


def parse_gamma(
    text: str,
    algebra: ConformalAlgebra,
    sub: BimoduleStructure,
    quotient: BimoduleStructure,
) -> dict[int, CLinearMap]:
    degree, chom, value_lines = _parse_cochain_document(text)
    if not chom:
        raise DefinitionError("extension data needs 'coefficients: chom'", 1)
    if degree != 1:
        raise DefinitionError("extension data must have degree 1", 1)
    matrices: dict[int, dict[tuple[int, int], Poly]] = {}
    for number, args, rhs in value_lines:
        if len(args) != 2:
            raise DefinitionError(
                "chom value lines look like 'value a u -> P * m'", number
            )
        i = _index_of(algebra.generators, args[0], "algebra generator", number)
        t = _index_of(quotient.generators, args[1], "quotient generator", number)
        poly_text, target = _split_rhs(rhs, number)
        s = _index_of(sub.generators, target, "sub generator", number)
        poly = _parse_coefficient(poly_text, PRODUCT_VARS, number)
        matrix = matrices.setdefault(i, {})
        if (t, s) in matrix:
            raise DefinitionError(
                f"duplicate value target {target!r} for this pair", number
            )
        matrix[(t, s)] = poly
    return {
        i: CLinearMap(quotient.generators, sub.generators, matrix)
        for i, matrix in matrices.items()
    }


def parse_fd_algebra(text: str) -> FDAlgebra:
    doc = _Document(text)
    doc.require_kind("fd_algebra")
    generators: Optional[tuple[str, ...]] = None
    unit_line: Optional[tuple[int, str]] = None
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for number, line in doc.body:
        header = _split_header(line)
        if header is not None:
            key, rest = header
            if key == "generators":
                if generators is not None:
                    raise DefinitionError("generators given twice", number)
                generators = _parse_generator_list(rest, number)
                continue
            if key == "unit":
                if unit_line is not None:
                    raise DefinitionError("unit given twice", number)
                unit_line = (number, rest)
                continue
            raise DefinitionError(f"unknown header {key!r}", number)
        parts = line.split()
        if parts[0] != "product":
            raise DefinitionError(f"unknown statement {parts[0]!r}", number)
        if generators is None:
            raise DefinitionError("products before the generators header", number)
        if len(parts) < 4 or parts[3] != "->":
            raise DefinitionError(
                "product lines look like 'product a b -> c/d * e'", number
            )
        i = _index_of(generators, parts[1], "generator", number)
        j = _index_of(generators, parts[2], "generator", number)
        poly_text, target = _split_rhs(line.split("->", 1)[1], number)
        k = _index_of(generators, target, "generator", number)
        coeff_poly = _parse_coefficient(poly_text, (), number)
        pair = products.setdefault((i, j), {})
        if k in pair:
            raise DefinitionError(
                f"duplicate product target {target!r} for this pair", number
            )
        pair[k] = coeff_poly.constant_term()
    if generators is None:
        raise DefinitionError("missing generators header", 1)
    n = len(generators)
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), entries in products.items():
        for k, coeff in entries.items():
            constants[i][j][k] = coeff
    unit = None
    if unit_line is not None:
        number, rest = unit_line
        coords = rest.split()
        if len(coords) != n:
            raise DefinitionError(f"unit needs {n} coordinates", number)
        try:
            unit = tuple(Fraction(c) for c in coords)
        except (ValueError, ZeroDivisionError):
            raise DefinitionError("unit coordinates must be rationals", number) from None
    try:
        return FDAlgebra(
            generators,
            tuple(tuple(tuple(row) for row in plane) for plane in constants),
            unit,
        )
    except ValueError as exc:
        raise DefinitionError(str(exc), 1) from None
