from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import _poly_from_pairs, fraction_substitute, fraction_terms, polys, rationals
from pseudo.polyring import (
    Poly,
    PolyParseError,
    VariableMismatchError,
    iter_monomials,
    parse_poly,
    poly_to_str,
    sort_variables,
    variable_key,
)

PL = ("del", "lam")
ALL3 = ("del", "lam", "mu")


def test_variable_order():
    assert sort_variables(["mu", "lam1", "del", "lam"]) == ("del", "lam", "mu", "lam1")
    assert variable_key("lam2") < variable_key("lam10")
    with pytest.raises(ValueError):
        variable_key("x")


@pytest.mark.parametrize("variables", [("lam", "del"), ("del", "del"), ("lam2", "lam1")])
def test_constructors_reject_non_canonical_variables(variables):
    Poly.zero(PL)  # a canonical tuple seen first must not excuse others
    for build in (Poly.zero, lambda v: Poly.const(v, 1), lambda v: Poly.const(v, 0), Poly):
        with pytest.raises(ValueError):
            build(variables)


def test_constructors_and_degree():
    zero = Poly.zero(PL)
    assert zero.is_zero and zero.total_degree() is None
    one = Poly.const(PL, 1)
    assert one.total_degree() == 0 and one.constant_term() == 1
    dl = Poly.var(PL, "del")
    assert dl.total_degree() == 1
    m = Poly.monomial(PL, (2, 1), Fraction(3, 2))
    assert m.terms == {(2, 1): Fraction(3, 2)}
    assert m.total_degree() == 3


def test_arithmetic_basics():
    dl = Poly.var(PL, "del")
    lam = Poly.var(PL, "lam")
    p = (dl + lam) * (dl - lam)
    assert p == dl * dl - lam * lam
    assert (p - p).is_zero
    assert (-p) + p == Poly.zero(PL)
    assert p * 0 == Poly.zero(PL)
    assert 2 * dl == dl + dl
    assert dl * Fraction(1, 2) + dl * Fraction(1, 2) == dl


def test_mixed_variable_arithmetic_rejected():
    dl = Poly.var(("del",), "del")
    lam = Poly.var(PL, "lam")
    with pytest.raises(VariableMismatchError):
        dl + lam
    assert dl.substitute({"del": Poly.var(PL, "del")}) + lam == parse_poly("del + lam", PL)


def test_substitute_binding_rules():
    p = parse_poly("del + lam", PL)
    partial = p.substitute({"del": Poly.var(PL, "lam")})
    assert partial == parse_poly("2*lam", PL)
    with pytest.raises(VariableMismatchError):
        p.substitute({"mu": Poly.var(PL, "del")})
    with pytest.raises(VariableMismatchError):
        p.substitute({"del": Poly.var(("del",), "del"),
                      "lam": Poly.var(PL, "lam")})
    # an unbound variable maps to itself, so the target set must hold it
    with pytest.raises(VariableMismatchError, match="unbound variable 'lam' missing"):
        p.substitute({"del": Poly.var(("del",), "del")})


def test_substitute_examples():
    p = parse_poly("del^2 + lam*del", PL)
    lam = Poly.var(PL, "lam")
    out = p.substitute({"del": -lam, "lam": lam})
    assert out == parse_poly("lam^2 - lam^2", PL) + Poly.zero(PL)
    assert out.is_zero
    q = parse_poly("del", ("del",))
    shifted = q.substitute({"del": parse_poly("del + lam", PL)})
    assert shifted == parse_poly("del + lam", PL)


def test_iter_monomials_order_and_counts():
    mons = list(iter_monomials(PL, 2))
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert list(iter_monomials((), 5)) == [()]
    assert len(list(iter_monomials(ALL3, 3))) == 20


def test_parse_examples():
    assert parse_poly("0", PL).is_zero
    assert parse_poly("-(del + lam)^2", PL) == -(
        (Poly.var(PL, "del") + Poly.var(PL, "lam")) ** 2
    )
    assert parse_poly("1/2 * del", PL) == Poly.var(PL, "del") * Fraction(1, 2)
    assert parse_poly("del*(del + 1)", PL) == parse_poly("del^2 + del", PL)
    assert parse_poly("3 - 2", ()) == Poly.const((), 1)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as info:
        parse_poly("del + ", PL)
    assert info.value.position is not None
    with pytest.raises(PolyParseError):
        parse_poly("mu", PL)
    with pytest.raises(PolyParseError):
        parse_poly("del ** 2", PL)
    with pytest.raises(PolyParseError):
        parse_poly("", PL)


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("1" * 4301, 0, "integer literal of 4301 digits is too long"),
        ("del^" + "1" * 4301, 4, "integer literal of 4301 digits is too long"),
        ("1/" + "1" * 4301, 2, "integer literal of 4301 digits is too long"),
        ("(" * 200 + "1" + ")" * 200, 100, "parentheses nested deeper than 100"),
    ],
)
def test_parse_refuses_text_past_its_limits(text, position, message):
    # a numeral past the interpreter's limit on digits converted, or
    # parentheses past the nesting cap, is refused at its token
    with pytest.raises(PolyParseError, match=message) as info:
        parse_poly(text, PL)
    assert info.value.position == position


def test_parse_reads_deep_but_admitted_text():
    # unary minus is read in a loop, so a long run needs no stack; the
    # nesting cap itself is admitted, as are 4300 digits
    assert parse_poly("-" * 1000 + "del", PL) == Poly.var(PL, "del")
    assert parse_poly("-" * 1001 + "(del + 1)^2", PL) == -parse_poly("del^2 + 2*del + 1", PL)
    assert parse_poly("(" * 100 + "lam" + ")" * 100, PL) == Poly.var(PL, "lam")
    assert parse_poly("9" * 4300, ()) == Poly.const((), 10 ** 4300 - 1)


def test_poly_to_str_canonical():
    p = parse_poly("lam^2 - del + 3", PL)
    assert poly_to_str(p) == "lam^2 - del + 3"
    assert poly_to_str(Poly.zero(PL)) == "0"
    assert poly_to_str(Poly.const(PL, Fraction(-1, 2))) == "-1/2"


@given(polys(PL), polys(PL), polys(PL))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(PL), polys(PL))
def test_substitute_is_a_homomorphism(p, q):
    binding = {
        "del": parse_poly("mu - lam", ALL3),
        "lam": parse_poly("lam + del", ALL3),
    }
    assert (p + q).substitute(binding) == p.substitute(binding) + q.substitute(binding)
    assert (p * q).substitute(binding) == p.substitute(binding) * q.substitute(binding)


@given(polys(ALL3, max_degree=4, max_terms=6))
def test_print_parse_round_trip(p):
    assert parse_poly(poly_to_str(p), ALL3) == p


@given(polys(PL), rationals())
def test_scalar_action(p, c):
    assert p * c == c * p
    if c:
        assert (p * c) * (1 / c) == p


def _images(variables) -> st.SearchStrategy:
    """Polynomials of total degree 0-2 over the variables, zero included."""
    monomial = st.lists(st.sampled_from(variables), max_size=2).map(
        lambda names: tuple(names.count(v) for v in variables)
    )
    pairs = st.lists(st.tuples(monomial, rationals()), max_size=3)
    return pairs.map(lambda terms: _poly_from_pairs(variables, terms))


@st.composite
def _bindings(draw):
    """A target variable set and a nonempty binding of some of (del, lam,
    mu) into it; the unbound ones must lie in the target."""
    target = draw(st.sampled_from([PL, ALL3, ("del", "lam", "mu", "lam1"), ("lam1", "lam2")]))
    forced = [v for v in ALL3 if v not in target]
    bound = set(forced) | set(draw(st.lists(st.sampled_from(ALL3), min_size=1, unique=True)))
    return target, {v: draw(_images(target)) for v in sorted(bound, key=variable_key)}


@given(polys(ALL3), polys(ALL3), _bindings(), _bindings())
def test_substitute_matches_reference(p, q, first, second):
    (target, bindings), (other_target, other) = first, second

    def agrees(poly, bindings, target):
        got = poly.substitute(bindings)
        want = fraction_substitute(poly, bindings, target)
        return got.variables == target and fraction_terms(got) == want

    assert agrees(p, bindings, target)
    # another polynomial and another map in between, then the same
    # bindings object again: nothing may carry over between calls
    assert agrees(q, other, other_target)
    assert agrees(q, bindings, target)
    assert agrees(p, bindings, target)
