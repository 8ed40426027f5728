"""Exact/float scalar backends: grammar, arithmetic, roots, agreement."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybtk.errors import ScalarSyntaxError, UnknownSymbolError
from ybtk.scalars import (
    Field,
    FieldTag,
    RatFun,
    exact_tag,
    float_tag,
    format_scalar,
    monomial_sqrt,
    parse_scalar,
    scalar_invert,
    substitute,
)

from helpers import FractionRatFun

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


def test_monomial_sqrt_through_a_shared_gaussian_unit():
    # (i q^2)/(i) is stored with the unit in both num and den
    x = QI.parse("i*q^2") * QI.parse("i").invert()
    assert format_scalar(x) == "q^2"
    assert monomial_sqrt(x) == QI.parse("q")
    y = QI.parse("4*i*q^-2") * QI.parse("9*i").invert()
    assert monomial_sqrt(y) == QI.parse("2/3*q^-1")


def test_monomial_sqrt_gaussian_non_squares_stay_none():
    assert monomial_sqrt(QI.parse("i*q^2")) is None
    assert monomial_sqrt(QI.parse("-i*q^2") * QI.parse("i").invert()) is None
    assert monomial_sqrt(QI.parse("i*q^2") * QI.parse("1+i").invert()) is None
    assert monomial_sqrt(QI.parse("2*i*q^2") * QI.parse("i").invert()) is None


def test_monomial_sqrt_gaussian_principal_root():
    # the root a + b*i with a > 0, as the float backend's cmath.sqrt
    for text in ("2 + i", "2 - i", "-2 + i", "1/2 + 3/4*i", "3/5*q - 4/5*i*q"):
        for x in (QI.parse(text), QI.parse(text) * QI.parse("q^-3")):
            root = monomial_sqrt(x * x)
            assert root == (x if not text.startswith("-") else -x), text
    # |x| = 5 is rational, but sqrt((5 + 4)/2) is not; |1 + i| is irrational
    assert monomial_sqrt(QI.parse("4 + 3*i")) is None
    assert monomial_sqrt(QI.parse("(1 + i)*q^2")) is None
    assert monomial_sqrt(QI.parse("-1/4")) is None


def test_monomial_sqrt_of_a_negative_rational_needs_i():
    # the principal root sqrt(-c)*i, as cmath.sqrt gives, only where i exists
    assert monomial_sqrt(QI.parse("-1/4"), imaginary=True) == QI.parse("i/2")
    assert monomial_sqrt(QI.parse("-4*q^-4"), imaginary=True) == QI.parse("2*i*q^-2")
    assert monomial_sqrt(QI.parse("-2*q^2"), imaginary=True) is None
    assert monomial_sqrt(q("-q^2")) is None
    assert monomial_sqrt(QI.parse("-1/4")) is None


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
# Gaussian-integer coefficients against the Fraction-coefficient reference


def _assert_integral(x):
    """int coefficient parts, a joint content of 1, a positive leading denominator."""
    parts = [v for p in (x.num, x.den) for c in p.terms.values() for v in c]
    assert all(type(v) is int for v in parts), parts
    assert math.gcd(*parts) == 1
    lead = x.den.terms[max(x.den.terms)]
    assert lead[0] > 0 or (lead[0] == 0 and lead[1] > 0)


@st.composite
def _laurent_pairs(draw, syms):
    """One random Gaussian-rational Laurent polynomial as a RatFun and as its reference."""
    field = Field(exact_tag(*syms, imaginary=True))
    exps = st.tuples(*[st.integers(-3, 3)] * len(syms))
    terms = draw(st.lists(st.tuples(_rationals, _rationals, exps), max_size=3))
    value, ref = field.zero, FractionRatFun.from_gauss(syms, 0)
    for re, im, mono in terms:
        term, ref_term = RatFun.from_gauss(syms, re, im), FractionRatFun.from_gauss(syms, re, im)
        for name, e in zip(syms, mono):
            term = term * field.sym(name) ** e
            ref_term = ref_term * FractionRatFun.gen(syms, name) ** e
        value, ref = value + term, ref + ref_term
    return value, ref


def _op_results(a, b, c):
    out = [a + b, a - b, a * b]
    if not b.is_zero:
        quo = a / b
        out += [quo, quo + c, quo - c, quo * c, quo * b]
    return out


@pytest.mark.parametrize("syms", [("q",), ("p", "q")])
def test_integer_coefficients_match_fraction_reference(syms):
    pairs = _laurent_pairs(syms)

    @given(pairs, pairs, pairs)
    @settings(max_examples=50, deadline=None)
    def check(a, b, c):
        got = _op_results(a[0], b[0], c[0])
        want = _op_results(a[1], b[1], c[1])
        for x, ref in zip(got, want):
            _assert_integral(x)
            assert format_scalar(x) == ref.text()
        values = [a, b] + list(zip(got, want))
        for x, x_ref in values:
            for y, y_ref in values:
                assert (x == y) == (x_ref == y_ref)

    check()


def test_zero_literals_and_zero_products_share_the_field_zero():
    x = q("q + 1")
    assert Q.parse("0") is Q.zero and Q.from_int(0) is Q.zero
    assert x * Q.zero is Q.zero and Q.zero * x is Q.zero


def test_no_float_from_integer_division():
    gauss = Field(exact_tag(imaginary=True))
    x = parse_scalar("(1+2i)/(3-i)", gauss.tag)
    _assert_integral(x)
    assert format_scalar(x) == "1/10 + 7/10*i"
    assert x.as_gauss() == (Fraction(1, 10), Fraction(7, 10))
    assert all(type(v) is Fraction for v in x.as_gauss())
    root = monomial_sqrt(q("9/4*q^2"))
    _assert_integral(root)
    assert format_scalar(root) == "3/2*q"
    third = q("q/3")
    _assert_integral(third)
    assert format_scalar(third) == "1/3*q"
    point = {"q": parse_scalar("1/2 + 1/3 i", gauss.tag)}
    for text, want in [("(q^2 + 1)/(2q - i)", "37/40 + 77/120*i"),
                       ("(3q^2 + i)/(q + 1)", "93/170 + 103/85*i")]:
        value = substitute(parse_scalar(text, QI.tag), point, gauss)
        _assert_integral(value)
        assert format_scalar(value) == want


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


def test_float_substitute_refuses_a_one_term_denominator_only_at_zero():
    # the zero rule is ``not x``: 2^-40 is a small denominator, not a vanishing one
    v = parse_scalar("q^-40", Q.tag)
    assert substitute(v, {"q": C.from_fraction(Fraction(1, 2))}, C) == 2.0 ** 40
    assert substitute(v, {"q": complex(1e-7)}, C) == pytest.approx(1e280, rel=1e-9)
    with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
        substitute(v, {"q": C.zero}, C)


def test_float_substitute_refuses_a_denominator_whose_terms_cancel():
    v = parse_scalar("1/(q^2 - 2)", Q.tag)
    # q^2 - 2 is about 4.4e-16 at the double nearest sqrt(2), against terms of size 4
    with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
        substitute(v, {"q": complex(math.sqrt(2))}, C)
    assert substitute(v, {"q": complex(1.5)}, C) == pytest.approx(4.0, rel=1e-12)
    # an exact target refuses only the exact zero
    e = Field(exact_tag())
    near = Fraction(14142135623730951, 10 ** 16)
    assert substitute(v, {"q": e.from_fraction(near)}, e) == e.from_fraction(1 / (near * near - 2))
    with pytest.raises(ZeroDivisionError):
        substitute(parse_scalar("1/(q - 1)", Q.tag), {"q": e.one}, e)


def test_field_has_no_zero_test_of_its_own():
    # a scalar is zero when ``not x``, on both backends
    assert not hasattr(Field, "is_zero")
    for field in (Q, C):
        assert not field.zero and field.one
    assert complex(1e-10) and q("q^-40")


def _gauss_by_hand(field, re, im):
    """Reference for ``Field.from_gauss``: ``re`` plus ``i`` times ``im``, term by term."""
    value = field.from_fraction(re)
    if im:
        value = value + field.imag_unit() * field.from_fraction(im)
    return value


@pytest.mark.parametrize(
    "field", [QI, Field(exact_tag(imaginary=True)), Field(exact_tag("p", "q", imaginary=True)), C])
def test_from_gauss_matches_the_conversion_by_hand(field):
    parts = [0, 1, -3, Fraction(-3, 2), Fraction(7, 9), Fraction(10 ** 20 + 1, 3)]
    for re in parts:
        for im in parts:
            got, want = field.from_gauss(re, im), _gauss_by_hand(field, re, im)
            assert got == want
            if field.exact:
                assert format_scalar(got) == format_scalar(want)
            else:
                assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag)


def test_from_gauss_needs_i_only_for_an_imaginary_part():
    assert Q.from_gauss(Fraction(3, 2), 0) == q("3/2")
    assert Q.from_gauss(0, 0) is Q.zero
    with pytest.raises(UnknownSymbolError):
        Q.from_gauss(1, 1)
