"""Exact multivariate polynomials over the rationals.

A polynomial is a mapping from exponent vectors to nonzero rational
coefficients together with an ordered tuple of variable names.  The
variable universe is fixed: ``del`` (the translation generator acting on
module coordinates), the product variables ``lam`` and ``mu``, and the
numbered family ``lam1``, ``lam2``, ...  Variable tuples are always kept
sorted in the global order

    del < lam < mu < lam1 < lam2 < ...

so that the exponent vectors of any two polynomials over the same
variable set align position by position.  Alignment across *different*
variable sets is one explicit step, `substitute` (through `_RingMap`);
the arithmetic operators refuse mismatched operands instead of guessing.

Zero is the empty term map; no operation ever stores a zero coefficient.
Instances are immutable by convention and safe to share.

A coefficient is an ``int`` when it is integral and otherwise a reduced
``Fraction`` with denominator above 1; it is never a float.  Integer
arithmetic is what keeps exact work cheap: the coefficients the package
meets are small and mostly integral.  Every coefficient that enters goes
through ``_coeff``, which refuses anything inexact, and every division
through ``_quotient``.  ``exactla`` keeps its matrix and echelon entries
in the same form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, attrgetter, index
from typing import Iterable, Iterator, Mapping

_FIXED_ORDER = {"del": (0, 0), "lam": (1, 0), "mu": (2, 0)}
_NUMBERED = re.compile(r"^lam([1-9][0-9]*)$")


class VariableMismatchError(ValueError):
    """Operands live over different variable sets and must be aligned first."""


class PolyParseError(ValueError):
    """Rejected polynomial text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _coeff(value) -> int | Fraction:
    """``value`` as a coefficient: an int when integral, else the reduced
    Fraction.  Anything but an int or a Fraction is refused, so a float's
    binary approximation never passes for an exact number."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool
        return int(value)
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(value).__name__}")


def _quotient(num: int | Fraction, den: int | Fraction) -> int | Fraction:
    """num / den as a coefficient; the only division of the package, so
    that an int quotient is never a float."""
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return _coeff(num / den)


def _frozen(cls):
    """Class decorator for an immutable record, built from closures, so
    nothing is compiled at import.  The fields are the class annotations
    in order, a class attribute of the same name being the default.
    ``__init__`` takes them by position or keyword, then calls
    ``__post_init__`` if the class has one; ``==``, the hash and ``repr``
    (``Name(field=value, ...)``) read them; setting or deleting an
    attribute raises AttributeError.  An annotated ``_memo`` is no field:
    each instance gets a fresh dict there."""
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(name for name in annotations if name != "_memo")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)  # C-level reads for == and the hash
    setter = object.__setattr__  # writing self.__dict__ would slow every later read

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            setter(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                setter(self, name, kwargs.pop(name))
            elif name in defaults:
                setter(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        if "_memo" in annotations:
            setter(self, "_memo", {})
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def variable_key(name: str) -> tuple[int, int]:
    """Sort key realizing the global variable order; rejects unknown names."""
    try:
        return _FIXED_ORDER[name]
    except KeyError:
        pass
    m = _NUMBERED.match(name)
    if m:
        return (3, int(m.group(1)))
    raise ValueError(f"unknown polynomial variable {name!r}")


def sort_variables(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=variable_key))


# variable tuples already found canonical; the variable universe a run
# touches is a handful of tuples, so the set stays tiny
_CANONICAL: set[tuple[str, ...]] = set()


def _canonical(variables: Iterable[str]) -> tuple[str, ...]:
    """The variables as a tuple, after checking they are in canonical order."""
    variables = tuple(variables)
    if variables not in _CANONICAL:
        if variables != sort_variables(variables):
            raise ValueError(f"variables not in canonical order: {variables}")
        _CANONICAL.add(variables)
    return variables


class Poly:
    """Polynomial with exact rational coefficients.

    ``variables`` is the sorted variable tuple; ``terms`` maps exponent
    tuples (aligned with ``variables``) to nonzero coefficients (see the
    module docstring).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | Iterable = ()):
        variables = _canonical(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exp, coeff in items:
            exp = tuple(map(index, exp))
            if len(exp) != len(variables):
                raise ValueError(f"exponent {exp} does not match variables {variables}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            acc = _coeff(clean.get(exp, 0) + _coeff(coeff))
            if acc:
                clean[exp] = acc
            else:
                clean.pop(exp, None)
        self.variables = variables
        self.terms = clean

    # -- construction ------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict) -> "Poly":
        # internal fast path: inputs already normalized
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Poly":
        return cls._raw(_canonical(variables), {})

    @classmethod
    def const(cls, variables: Iterable[str], value) -> "Poly":
        variables = _canonical(variables)
        value = _coeff(value)
        if not value:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Iterable[str], name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"{name!r} not among variables {variables}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exp: 1})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Iterable[int], coeff=1) -> "Poly":
        return cls(variables, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.variables), 0)

    # -- ring operations ---------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variable sets differ: {self.variables} vs {other.variables}"
                )
            return other
        return Poly.const(self.variables, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = terms.get(exp, 0) + coeff
            if acc:
                terms[exp] = _coeff(acc)
            else:
                terms.pop(exp, None)
        return Poly._raw(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly._raw(self.variables, _mul_terms(self.terms, self._coerce(other).terms))
        other = _coeff(other)
        if not other:
            return Poly.zero(self.variables)
        return Poly._raw(self.variables, {e: _coeff(c * other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        out = Poly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    # -- variable plumbing -------------------------------------------

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Simultaneously replace variables by polynomials (a ring map).

        Every bound name must occur in this polynomial's variable set.  All
        replacement polynomials must share a single target variable set,
        which must also contain every unbound variable: unbound variables
        map to themselves.  One `_RingMap`, built for this call.
        """
        if not bindings:
            return self
        return _RingMap(self.variables, bindings)(self)

    # -- printing and parsing ----------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.variables}, {poly_to_str(self)!r})"


def _mul_terms(left: dict, right: dict) -> dict:
    """Product of two term maps, zero coefficients dropped."""
    out: dict[tuple[int, ...], int | Fraction] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exp = tuple(map(add, e1, e2))
            c = c1 * c2
            out[exp] = out[exp] + c if exp in out else c
    return {e: _coeff(c) for e, c in out.items() if c}


class _RingMap:
    """A substitution compiled once and applied to many polynomials.

    Built from the source variables and the bindings (see
    `Poly.substitute`, which builds one per call): the bindings are
    checked here once, and the map keeps the power tables of each image
    and the image of every monomial it has moved, for as long as the map
    itself lives.  A caller that moves a whole table builds one map for
    it, so a monomial shared by many entries is expanded once, and a map
    whose bindings depend on no input is a module constant, so it expands
    a monomial once per process; a caller that sums the images further
    takes them unnormalized from ``raw``.
    Applying it to a polynomial over other variables raises
    VariableMismatchError.
    """

    __slots__ = ("source", "target", "_powers", "_images")

    def __init__(self, source: Iterable[str], bindings: Mapping[str, Poly]):
        source = _canonical(source)
        for name in bindings:
            if name not in source:
                raise VariableMismatchError(f"cannot substitute {name!r}: not among {source}")
        targets = {p.variables for p in bindings.values()}
        if len(targets) != 1:
            raise VariableMismatchError(
                f"replacement polynomials disagree on variables: {sorted(targets)}"
            )
        tvars = targets.pop()
        one = {(0,) * len(tvars): 1}
        # powers[i][e]: terms of the i-th image to the e-th power, grown on demand
        powers: list[list[dict]] = []
        for v in source:
            if v in bindings:
                powers.append([one, bindings[v].terms])
            elif v in tvars:
                powers.append([one, {tuple(int(w == v) for w in tvars): 1}])
            else:
                raise VariableMismatchError(
                    f"unbound variable {v!r} missing from target variables {tvars}"
                )
        self.source = source
        self.target = tvars
        self._powers = powers
        # exponent tuple -> terms of its image; shared, so never mutated
        self._images: dict[tuple[int, ...], dict] = {}

    def image(self, exp: tuple[int, ...]) -> dict:
        """Terms of the image of the monomial ``exp``, formed on first use."""
        got = self._images.get(exp)
        if got is None:
            got = self._images[exp] = self._form(exp)
        return got

    def _form(self, exp: tuple[int, ...]) -> dict:
        term = None
        for table, e in zip(self._powers, exp):
            if e:
                while len(table) <= e:
                    table.append(_mul_terms(table[-1], table[1]))
                term = table[e] if term is None else _mul_terms(term, table[e])
        return self._powers[0][0] if term is None else term

    def raw(self, p: Poly) -> dict:
        """Terms of the image of ``p`` as raw sums: a sum is not
        normalized, and one that cancels stays in as a zero."""
        if p.variables != self.source:
            raise VariableMismatchError(
                f"ring map from {self.source} applied to a polynomial over {p.variables}"
            )
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exp, coeff in p.terms.items():
            for m, c in self.image(exp).items():
                c = c * coeff
                out[m] = out[m] + c if m in out else c
        return out

    def __call__(self, p: Poly) -> Poly:
        return Poly._raw(self.target, {m: _coeff(c) for m, c in self.raw(p).items() if c})


def iter_monomials(variables: Iterable[str], max_degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of total degree <= max_degree, ascending (degree, lex)."""
    variables = tuple(variables)
    n = len(variables)
    if max_degree < 0:
        return
    if n == 0:
        yield ()
        return

    def parts(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    for d in range(max_degree + 1):
        yield from parts(d, n)


def poly_to_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    rev_vars = tuple(reversed(p.variables))
    pieces: list[str] = []
    # high degree first, ties broken by the reversed variable order so
    # lam-heavy monomials come before del-heavy ones
    ordered = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][::-1]), reverse=True)
    for idx, (exp, coeff) in enumerate(ordered):
        factors = []
        for v, e in zip(rev_vars, reversed(exp)):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if idx == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[()+\-*/^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# parentheses nested deeper than this are refused, not recursed into
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over: expr := term ((+|-) term)*;
    term := factor (* factor)*; factor := -* atom (^ int)?;
    atom := rational | variable | ( expr ).  '^' binds tightest; '/' only
    inside rational literals.  Only parentheses recurse, at most
    ``_MAX_NESTING`` deep, so no text exhausts the interpreter's stack."""

    def __init__(self, tokens, variables: tuple[str, ...]):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = acc * self.factor()
            else:
                return acc

    def number(self, val: str, pos: int) -> int:
        """A numeral's value; one past the interpreter's limit on digits
        converted is refused at its offset."""
        try:
            return int(val)
        except ValueError:
            raise PolyParseError(f"integer literal of {len(val)} digits is too long", pos) from None

    def factor(self) -> Poly:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.next()
            negate = not negate
        result = self.power()
        return -result if negate else result

    def power(self) -> Poly:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            return base ** self.number(val, pos)
        return base

    def atom(self) -> Poly:
        kind, val, pos = self.next()
        if kind == "num":
            num = self.number(val, pos)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "num":
                    raise PolyParseError("expected denominator digits", pos3)
                den = self.number(val3, pos3)
                if den == 0:
                    raise PolyParseError("zero denominator", pos3)
                return Poly.const(self.variables, _quotient(num, den))
            return Poly.const(self.variables, num)
        if kind == "name":
            if val not in self.variables:
                raise PolyParseError(
                    f"variable {val!r} not among allowed {self.variables}", pos
                )
            return Poly.var(self.variables, val)
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse_poly(text: str, allowed_variables: Iterable[str]) -> Poly:
    """Parse polynomial text over the given variables.

    Integers and p/q rationals, the operators + - * ^ and parentheses are
    accepted; '^' takes a nonnegative integer exponent and binds tightest.
    The result is over the full allowed variable set (canonically sorted),
    whether or not each variable occurs.
    """
    variables = sort_variables(allowed_variables)
    parser = _Parser(_tokenize(text), variables)
    result = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", pos)
    return result
