"""Exact/float scalar backends: grammar, arithmetic, roots, agreement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybtk.errors import ScalarSyntaxError, UnknownSymbolError
from ybtk.scalars import (
    Field,
    FieldTag,
    exact_tag,
    float_tag,
    format_scalar,
    monomial_sqrt,
    parse_scalar,
    scalar_invert,
    substitute,
)

Q = Field(exact_tag("q"))
PQ = Field(exact_tag("p", "q"))
QI = Field(exact_tag("q", imaginary=True))
C = Field(float_tag())


def q(text, field=Q):
    return parse_scalar(text, field.tag)


# ---------------------------------------------------------------------------
# tags


def test_tag_validation():
    with pytest.raises(ValueError):
        FieldTag("exact", ("q", "q"))
    with pytest.raises(ValueError):
        FieldTag("exact", ("",))
    with pytest.raises(ValueError):
        FieldTag("float", ("q",))
    with pytest.raises(ValueError):
        FieldTag("float", (), True, 0.0)
    with pytest.raises(ValueError):
        FieldTag("symbolic")


# ---------------------------------------------------------------------------
# parsing


def test_parse_laurent_sum():
    # two terms, exponents -2 and 1
    v = q("q^-2 - q")
    assert v == q("(1 - q^3)/(q^2)")
    assert v * q("q^2") == q("1 - q^3")


def test_parse_rational_literal():
    assert q("1/2") == Fraction(1, 2)
    assert q("-3/4 + 1/4") == Fraction(-1, 2)


def test_parse_quotient_of_sums():
    # equality by cross-multiplication with an explicit Laurent expansion
    v = q("(q^-1 - q)/q^2")
    assert v == q("q^-3 - q^-1")


def test_parse_coefficient_styles():
    assert q("3/2*q") == q("3/2 q")
    assert q("2q^2") == q("q^2 + q^2")
    assert q("q/2 + 1") == q("q") / 3  # sum '/' sum splits at top level


def test_parse_imaginary():
    v = parse_scalar("1 + i", QI.tag)
    assert v * v == parse_scalar("2i", QI.tag)
    assert parse_scalar("i", QI.tag) ** 2 == QI.from_int(-1)
    with pytest.raises(UnknownSymbolError):
        q("i")  # not enabled on plain Q(q)


def test_parse_float_backend():
    assert parse_scalar("1.3+0.2i", C.tag) == 1.3 + 0.2j
    assert parse_scalar("-2", C.tag) == -2
    assert parse_scalar("1/2", C.tag) == 0.5
    with pytest.raises(UnknownSymbolError):
        parse_scalar("q", C.tag)


def test_parse_errors():
    for bad in ["", "q +", "(q", "q^x", "1..2", "q$", "&"]:
        with pytest.raises(ScalarSyntaxError):
            q(bad)
    with pytest.raises(UnknownSymbolError):
        q("t")
    with pytest.raises(ZeroDivisionError):
        q("1/0")
    with pytest.raises(ZeroDivisionError):
        q("q/(q - q)")


def test_parenthesised_sums_are_factors():
    assert q("2*(q+1)") == q("2q + 2")
    assert q("(q+1)*(q-1)") == q("q^2 - 1")
    assert q("(q+1)(q-1)") == q("q^2 - 1")
    assert q("-(q+1)") == q("-q - 1")
    assert q("2(q+1)/(q(q-1))") == q("(2q + 2)/(q^2 - q)")
    assert parse_scalar("2*(1+i)", C.tag) == 2 + 2j


def test_parenthesised_sum_errors_name_the_rule():
    with pytest.raises(ScalarSyntaxError, match="top-level numerator/denominator"):
        q("2*(1/(q+1))")
    with pytest.raises(ScalarSyntaxError, match="no exponent"):
        q("(q+1)^2")


# ---------------------------------------------------------------------------
# formatting round trips


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-1",
        "q",
        "q^-2 - q",
        "(q^-1 - q)/q^2",
        "3/2*q^2 - 1/2",
        "(1 + q)/(1 - q)",
        "(p^2 - q^2)/(p*q)",
    ],
)
def test_write_read_write_idempotent(text):
    v = parse_scalar(text, PQ.tag)
    once = format_scalar(v)
    again = format_scalar(parse_scalar(once, PQ.tag))
    assert once == again
    assert parse_scalar(once, PQ.tag) == v


def test_format_imaginary_round_trip():
    v = parse_scalar("(1 - 2i)/(i q + 3)", Field(exact_tag("q", imaginary=True)).tag)
    txt = format_scalar(v)
    assert parse_scalar(txt, QI.tag) == v
    assert format_scalar(parse_scalar(txt, QI.tag)) == txt


def test_format_float_round_trip():
    for z in [1.3 + 0.2j, -2 + 0j, 0.25j, -1j, 0j, 3.0 + 0j]:
        txt = format_scalar(z)
        assert parse_scalar(txt, C.tag) == z


def test_format_float_round_trip_without_exponents():
    for z in [complex(1e-16, 2), complex(1e20, -3.5e-8), complex(-3.5e-8, 1e-16), 1e300j]:
        txt = format_scalar(z)
        assert "e" not in txt
        assert parse_scalar(txt, C.tag) == z


# ---------------------------------------------------------------------------
# inversion and square roots


def test_invert_examples():
    assert scalar_invert(q("q")) == q("q^-1")
    assert scalar_invert(q("1 + q")) * q("1 + q") == Q.one
    with pytest.raises(ZeroDivisionError):
        scalar_invert(Q.zero)


def test_monomial_sqrt_examples():
    assert monomial_sqrt(q("q^-4")) == q("q^-2")
    assert monomial_sqrt(q("1/4")) == Fraction(1, 2)
    assert monomial_sqrt(q("q^3")) is None
    assert monomial_sqrt(q("4q^2")) == q("2q")
    assert monomial_sqrt(q("-q^2")) is None
    assert monomial_sqrt(q("1 + q")) is None
    assert monomial_sqrt(Q.zero) is None
    root = monomial_sqrt(parse_scalar("p^2*q^-6/9", PQ.tag))
    assert root == parse_scalar("p*q^-3/3", PQ.tag)


def test_monomial_sqrt_float():
    z = monomial_sqrt(complex(-4))
    assert abs(z - 2j) < 1e-12
    assert monomial_sqrt(complex(0)) is None


# ---------------------------------------------------------------------------
# algebraic laws (hypothesis)

_rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 9)
)


@st.composite
def _scalars(draw):
    # sparse Laurent-style values over Q(q): sum of c * q^e / possible shift
    terms = draw(st.lists(st.tuples(_rationals, st.integers(-4, 4)), min_size=0, max_size=3))
    acc = Q.zero
    gen = Q.sym("q")
    for c, e in terms:
        acc = acc + Q.from_fraction(c) * gen ** e
    return acc


@given(_scalars(), _scalars(), _scalars())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Q.zero == a
    assert a * Q.one == a


@given(_scalars())
@settings(max_examples=60, deadline=None)
def test_invert_involution(a):
    if not a.is_zero:
        assert scalar_invert(scalar_invert(a)) == a
        assert a * scalar_invert(a) == Q.one


@given(_scalars(), _scalars(), _scalars(), _scalars())
@settings(max_examples=40, deadline=None)
def test_equality_is_congruence(a, b, c, d):
    # same value presented un-reduced on purpose
    if not c.is_zero:
        a2 = (a * c) / c
        assert a2 == a
        assert a2 + b == a + b
        assert a2 * d == a * d


@given(_scalars())
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back(a):
    r = monomial_sqrt(a * a)
    if r is not None:
        assert r * r == a * a


# ---------------------------------------------------------------------------
# float/exact agreement on random expression trees


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return ("const", Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return ("sym", rng.choice(["p", "q"]))
    op = rng.choice(["+", "-", "*", "/", "neg"])
    if op == "neg":
        return ("neg", _random_tree(rng, depth - 1))
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _eval_tree(node, leaf, ops):
    kind = node[0]
    if kind == "const":
        return leaf["const"](node[1])
    if kind == "sym":
        return leaf["sym"](node[1])
    if kind == "neg":
        return ops["neg"](_eval_tree(node[1], leaf, ops))
    a = _eval_tree(node[1], leaf, ops)
    b = _eval_tree(node[2], leaf, ops)
    return ops[kind](a, b)


def test_float_matches_exact_at_random_points():
    rng = random.Random(20260810)
    checked = 0
    while checked < 100:
        tree = _random_tree(rng, 6)
        point = {
            "p": Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            "q": Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        }
        exact_ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
            "neg": lambda a: -a,
        }
        try:
            sym = _eval_tree(
                tree,
                {"const": PQ.from_fraction, "sym": PQ.sym},
                exact_ops,
            )
            exact_value = substitute(
                sym, {k: C.from_fraction(v) for k, v in point.items()}, C
            )
            float_value = _eval_tree(
                tree,
                {"const": lambda f: complex(f), "sym": lambda s: complex(point[s])},
                exact_ops,
            )
        except ZeroDivisionError:
            continue
        checked += 1
        scale = max(1.0, abs(exact_value), abs(float_value))
        assert abs(exact_value - float_value) <= 1e-9 * scale


def test_substitute_partial():
    v = parse_scalar("p*q + q^2", PQ.tag)
    w = substitute(v, {"p": Q.from_int(2)}, Q)
    assert w == q("2q + q^2")


def test_substitute_pole_raises():
    v = parse_scalar("1/(q - 1)", Q.tag)
    with pytest.raises(ZeroDivisionError):
        substitute(v, {"q": C.one}, C)
