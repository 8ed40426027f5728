"""Scalar domains for the matrix kernels: exact rational functions and complex floats.

Two interchangeable backends sit behind one :class:`FieldTag`:

* ``exact``: rational functions in a fixed tuple of indeterminates over
  the rationals, optionally with the imaginary unit adjoined (Gaussian
  rationals, so ``i*i == -1`` holds in ordinary arithmetic).  A value is
  a quotient ``num/den`` of multivariate polynomials whose coefficients
  are Gaussian integers, each a pair of Python ``int``; a rational such
  as 3/2 is the numerator 3 over the denominator 2.  Equality of ``a/b``
  and ``c/d`` is decided by the cross-multiplication identity
  ``a*d == c*b``, so no canonical form and in particular no multivariate
  gcd is ever required.
* ``float``: complex double precision; the tag carries the relative
  tolerance used by all comparisons.

After every exact operation the common monomial factor and the integer
content (the gcd of every real and imaginary coefficient part of
numerator and denominator together) are divided out, and the leading
coefficient of the denominator is made positive.  This keeps
Laurent-style values (monomial denominators) small without full gcd
reduction.  ``Fraction`` appears only at the text and conversion
boundary: folding a monomial denominator for printing, ``as_gauss``,
``monomial_sqrt`` and ``substitute``.

Scalar text grammar (also used by the matrix file format)::

    rational := int | int '/' int | decimal
    factor   := rational | 'i' ('^' sint)? | sym ('^' sint)? | '(' sum ')'
    term     := factor (('*')? factor)*
    sum      := ('+'|'-')? term (('+'|'-') term)*
    scalar   := sum ('/' sum)?

A quotient stands only at the top level, and a parenthesised sum takes
no exponent; ``2*(q+1)`` and ``(q+1)(q-1)`` are products.

Lexical rule: ``int '/' int`` in factor position always folds into a
rational literal, so ``3/2q`` means ``(3/2)*q``.  The formatter always
parenthesises both sides of a quotient, which makes its output
unambiguous and byte-stable under re-parsing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import add, sub
from typing import Mapping, Union

from .errors import BadBindingError, ScalarSyntaxError, UnknownSymbolError

__all__ = [
    "FieldTag",
    "Field",
    "RatFun",
    "Scalar",
    "exact_tag",
    "float_tag",
    "parse_scalar",
    "format_scalar",
    "scalar_invert",
    "monomial_sqrt",
    "substitute",
]

# A polynomial coefficient is a Gaussian integer stored as (re, im).
Coeff = tuple[int, int]


def _cmul(a: Coeff, b: Coeff) -> Coeff:
    ar, ai = a
    br, bi = b
    if not ai:
        if not bi:
            return (ar * br, 0)
        return (ar * br, ar * bi)
    if not bi:
        return (ar * br, ai * br)
    return (ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a: Coeff, b: Coeff) -> tuple[Fraction, Fraction]:
    """The Gaussian rational a/b as (re, im) Fractions."""
    ar, ai = a
    br, bi = b
    if not bi:
        return (Fraction(ar, br), Fraction(ai, br))
    d = br * br + bi * bi
    return (Fraction(ar * br + ai * bi, d), Fraction(ai * br - ar * bi, d))


class _Poly:
    """Multivariate polynomial: {exponent tuple: Gaussian coefficient}."""

    __slots__ = ("nv", "terms")

    def __init__(self, nv: int, terms: dict):
        self.nv = nv
        self.terms = terms

    @staticmethod
    def zero(nv: int) -> "_Poly":
        return _Poly(nv, {})

    @staticmethod
    def const(nv: int, c: Coeff) -> "_Poly":
        if not c[0] and not c[1]:
            return _Poly(nv, {})
        return _Poly(nv, {(0,) * nv: c})

    @staticmethod
    def gen(nv: int, k: int) -> "_Poly":
        mono = tuple(1 if j == k else 0 for j in range(nv))
        return _Poly(nv, {mono: (1, 0)})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "_Poly") -> "_Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            cur = t.get(m)
            if cur is None:
                t[m] = c
            else:
                re, im = cur[0] + c[0], cur[1] + c[1]
                if re or im:
                    t[m] = (re, im)
                else:
                    del t[m]
        return _Poly(self.nv, t)

    def neg(self) -> "_Poly":
        return _Poly(self.nv, {m: (-c[0], -c[1]) for m, c in self.terms.items()})

    def mul(self, other: "_Poly") -> "_Poly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a monomial factor: the products have distinct monomials
            ((m2, c2),) = b.items()
            return _Poly(self.nv, {tuple(map(add, m1, m2)): _cmul(c1, c2) for m1, c1 in a.items()})
        t: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                c = _cmul(c1, c2)  # nonzero: Z[i] has no zero divisors
                cur = t.get(m)
                if cur is None:
                    t[m] = c
                else:
                    re, im = cur[0] + c[0], cur[1] + c[1]
                    if re or im:
                        t[m] = (re, im)
                    else:
                        del t[m]
        return _Poly(self.nv, t)

    def __eq__(self, other):
        return isinstance(other, _Poly) and self.terms == other.terms

    __hash__ = None


class RatFun:
    """An exact rational function num/den over a fixed symbol tuple.

    ``num`` and ``den`` have Gaussian-integer coefficients with a joint
    integer content of 1, and the leading coefficient of ``den`` is
    positive (a positive real part, or a zero real part and a positive
    imaginary part).

    Values are immutable; all operators return new values.  ``==`` uses
    cross-multiplication, so differently reduced representations of the
    same function compare equal; the same object and a zero on either
    side are answered without it.
    """

    __slots__ = ("syms", "num", "den")

    def __init__(self, syms: tuple, num: _Poly, den: _Poly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            num, den = _reduce(num, den)
        self.syms = syms
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_fraction(syms: tuple, value) -> "RatFun":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        nv = len(syms)
        return RatFun(
            syms,
            _Poly.const(nv, (value.numerator, 0)),
            _Poly.const(nv, (value.denominator, 0)),
            reduce=False,
        )

    @staticmethod
    def from_gauss(syms: tuple, re, im) -> "RatFun":
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the two denominators the three integers are coprime
        d = math.lcm(re.denominator, im.denominator)
        nv = len(syms)
        return RatFun(
            syms,
            _Poly.const(nv, (int(re * d), int(im * d))),
            _Poly.const(nv, (d, 0)),
            reduce=False,
        )

    @staticmethod
    def gen(syms: tuple, name: str) -> "RatFun":
        nv = len(syms)
        k = syms.index(name)
        return RatFun(syms, _Poly.gen(nv, k), _Poly.const(nv, (1, 0)), reduce=False)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    @property
    def is_one(self) -> bool:
        return self.num.terms == self.den.terms

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.syms != self.syms:
                raise ValueError("mixing scalars over different symbol tuples")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.from_fraction(self.syms, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.den.terms == o.den.terms:
            return RatFun(self.syms, self.num.add(o.num), self.den)
        num = self.num.mul(o.den).add(o.num.mul(self.den))
        return RatFun(self.syms, num, self.den.mul(o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(self.syms, self.num.neg(), self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(o.__neg__())

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(self.__neg__())

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # values are immutable, so a zero operand serves as the product
        if self.is_zero:
            return self
        if o.is_zero:
            return o
        if self.is_one:
            return o
        if o.is_one:
            return self
        return RatFun(self.syms, self.num.mul(o.num), self.den.mul(o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.invert())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.invert())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self.invert() if k < 0 else self
        k = abs(k)
        out = RatFun.from_fraction(self.syms, 1)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def invert(self) -> "RatFun":
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero scalar")
        return RatFun(self.syms, self.den, self.num)

    def __eq__(self, other):
        if other is self:
            return True
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a zero has no numerator terms, whatever its denominator
        if self.is_zero or o.is_zero:
            return self.is_zero and o.is_zero
        return self.num.mul(o.den) == o.num.mul(self.den)

    __hash__ = None

    # -- conversion ---------------------------------------------------

    def as_gauss(self) -> tuple[Fraction, Fraction] | None:
        """Return (re, im) as Fractions if the value is constant, else None."""
        if self.is_zero:
            return (Fraction(0), Fraction(0))
        nv = len(self.syms)
        one = (0,) * nv
        if set(self.num.terms) == {one} and set(self.den.terms) == {one}:
            return _cdiv(self.num.terms[one], self.den.terms[one])
        return None

    def __repr__(self):
        return "RatFun(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


def _reduce(num: _Poly, den: _Poly) -> tuple[_Poly, _Poly]:
    """Divide out common monomial and integer content; fix the sign of den.

    Additionally collapses the frequent case where the numerator is a
    monomial multiple of the denominator (detected from the leading
    terms, verified exactly), which keeps matrix-elimination output from
    dragging redundant polynomial factors around without needing gcd.
    That test and its result do not change under a common monomial or
    integer factor, so it runs first.  Otherwise one pass divides by the
    shift, the componentwise minimum of every monomial, and by g, the gcd
    of every coefficient part, negative when den's leading coefficient
    is, so the one division also fixes the sign.
    """
    if num.is_zero():
        return num, _Poly.const(den.nv, (1, 0))
    t, u = num.terms, den.terms
    if len(t) == len(u) > 1:
        collapsed = _monomial_quotient(num, den)
        if collapsed is not None:
            return collapsed
    shift = tuple(map(min, *t, *u))
    g = math.gcd(*[x for c in t.values() for x in c], *[x for c in u.values() for x in c])
    lead = u[max(u)]
    if lead[0] < 0 or (not lead[0] and lead[1] < 0):
        g = -g
    elif g == 1 and not any(shift):
        return num, den
    return (_Poly(num.nv, {tuple(map(sub, m, shift)): (re // g, im // g) for m, (re, im) in t.items()}),
            _Poly(num.nv, {tuple(map(sub, m, shift)): (re // g, im // g) for m, (re, im) in u.items()}))


def _monomial_quotient(num: _Poly, den: _Poly):
    """If num == (cn/cd) * x^e * den, return the reduced pair for (cn/cd) x^e.

    ``cn`` and ``cd`` are the leading coefficients; the test
    ``cd * x^{e-} * num == cn * x^{e+} * den`` runs in integers.  The
    quotient cn/cd is written over a positive integer denominator.
    """
    nv = num.nv
    lead_n = max(num.terms)
    lead_d = max(den.terms)
    cn = num.terms[lead_n]
    cd = den.terms[lead_d]
    exps = tuple(a - b for a, b in zip(lead_n, lead_d))
    up = tuple(max(e, 0) for e in exps)
    down = tuple(max(-e, 0) for e in exps)
    if num.mul(_Poly(nv, {down: cd})) != den.mul(_Poly(nv, {up: cn})):
        return None
    # cn/cd = cn * conj(cd) / |cd|^2
    re, im = _cmul(cn, (cd[0], -cd[1]))
    d = cd[0] * cd[0] + cd[1] * cd[1]
    g = math.gcd(re, im, d)
    return _Poly(nv, {up: (re // g, im // g)}), _Poly(nv, {down: (d // g, 0)})


Scalar = Union[RatFun, complex]


# ---------------------------------------------------------------------------
# field tags


@dataclass(frozen=True)
class FieldTag:
    """Describes a scalar domain: backend, symbols, i-availability, tolerance."""

    backend: str
    indeterminates: tuple[str, ...] = ()
    imaginary: bool = False
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.backend not in ("exact", "float"):
            raise ValueError("backend must be 'exact' or 'float'")
        object.__setattr__(self, "indeterminates", tuple(self.indeterminates))
        names = self.indeterminates
        if len(set(names)) != len(names):
            raise ValueError("indeterminate names must be distinct")
        for name in names:
            if not name or not name[0].isalpha() or name == "i":
                raise ValueError("bad indeterminate name: %r" % (name,))
        if self.backend == "float":
            if names:
                raise ValueError("the float backend has no indeterminates")
            if not (math.isfinite(self.tolerance) and self.tolerance > 0):
                raise ValueError("tolerance must be finite and positive, got %r" % (self.tolerance,))


def exact_tag(*indeterminates: str, imaginary: bool = False) -> FieldTag:
    return FieldTag("exact", tuple(indeterminates), imaginary)


def float_tag(tolerance: float = 1e-9) -> FieldTag:
    return FieldTag("float", (), True, tolerance)


class Field:
    """Operational facade over a FieldTag: parsing, formatting, constants."""

    def __init__(self, tag: FieldTag):
        self.tag = tag
        if tag.backend == "exact":
            self.zero: Scalar = RatFun.from_fraction(tag.indeterminates, 0)
            self.one: Scalar = RatFun.from_fraction(tag.indeterminates, 1)
        else:
            self.zero = complex(0)
            self.one = complex(1)

    @property
    def exact(self) -> bool:
        return self.tag.backend == "exact"

    @property
    def tolerance(self) -> float:
        return self.tag.tolerance

    def sym(self, name: str) -> Scalar:
        if not self.exact:
            raise UnknownSymbolError("unknown symbol %r (float backend has no symbols)" % name)
        if name not in self.tag.indeterminates:
            raise UnknownSymbolError("unknown symbol %r" % name)
        return RatFun.gen(self.tag.indeterminates, name)

    def from_int(self, k: int) -> Scalar:
        return self.from_fraction(k)

    def from_fraction(self, fr) -> Scalar:
        if self.exact:
            if not fr:
                # one shared zero: most entries of a sparse matrix file are 0
                return self.zero
            return RatFun.from_fraction(self.tag.indeterminates, fr)
        try:
            return complex(Fraction(fr))
        except OverflowError:
            raise ScalarSyntaxError("number too large for the float backend") from None

    def imag_unit(self) -> Scalar:
        if self.exact:
            if not self.tag.imaginary:
                raise UnknownSymbolError("the imaginary unit is not enabled for this field")
            return RatFun.from_gauss(self.tag.indeterminates, 0, 1)
        return 1j

    def from_gauss(self, re, im) -> Scalar:
        """The Gaussian rational ``re + i*im``; ``i`` is needed only when ``im`` is nonzero."""
        value = self.from_fraction(re)
        if im:
            value = value + self.imag_unit() * self.from_fraction(im)
        return value

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)

    def format(self, x: Scalar) -> str:
        return format_scalar(x)


# ---------------------------------------------------------------------------
# free-function operations


def scalar_invert(s: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    if isinstance(s, RatFun):
        return s.invert()
    if not s:
        raise ZeroDivisionError("inverting the zero scalar")
    return 1 / s


def _rational_sqrt(c: Fraction):
    """The nonnegative square root of a rational c >= 0, or None if it is irrational."""
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def monomial_sqrt(s: Scalar, imaginary: bool = False):
    """Square root of a monomial scalar, or None.

    Exact backend: succeeds only on ``c * prod(sym^k)`` with all
    exponents even and ``c`` either the square of a positive rational,
    whose positive root is returned, or a non-real Gaussian rational
    whose principal root ``a + b*i`` (a > 0) is Gaussian-rational.  A
    negative rational has the principal root ``sqrt(-c)*i`` (2*i for -4)
    when ``imaginary`` says that the field has ``i``; without it that
    root would not parse back, and None is returned.  Float backend: the
    principal complex square root (None only for zero).
    """
    if not s:
        return None
    if not isinstance(s, RatFun):
        return cmath.sqrt(s)
    if len(s.num.terms) != 1 or len(s.den.terms) != 1:
        # the value may still be a monomial in a redundant representation
        collapsed = _monomial_quotient(s.num, s.den)
        if collapsed is None:
            return None
        s = RatFun(s.syms, collapsed[0], collapsed[1], reduce=False)
    (mn, cn), = s.num.terms.items()
    (md, cd), = s.den.terms.items()
    if any(e % 2 for e in mn) or any(e % 2 for e in md):
        return None
    # num and den may share a Gaussian unit, as in (i q^2)/(i)
    x, y = _cdiv(cn, cd)
    if not y and x < 0 and not imaginary:
        return None
    # the principal root a + b*i: a = sqrt((r + x)/2), b = sign(y) sqrt((r - x)/2), r = |x + y*i|
    r = _rational_sqrt(x * x + y * y)
    if r is None:
        return None
    a, b = _rational_sqrt((r + x) / 2), _rational_sqrt((r - x) / 2)
    if a is None or b is None:
        return None
    if y < 0:
        b = -b
    d = math.lcm(a.denominator, b.denominator)
    nv = len(s.syms)
    num = _Poly(nv, {tuple(e // 2 for e in mn): (int(a * d), int(b * d))})
    den = _Poly(nv, {tuple(e // 2 for e in md): (d, 0)})
    return RatFun(s.syms, num, den)


# the largest exponent of a bound symbol that ``substitute`` forms: the
# exact 2^(10^30) would never finish, and no catalog entry comes near
MAX_BOUND_EXPONENT = 1 << 16


def substitute(s: RatFun, bindings: Mapping[str, Scalar], target: Field) -> Scalar:
    """Map an exact scalar into ``target``, sending symbols through ``bindings``.

    Symbols missing from ``bindings`` must be indeterminates of the
    target field and stay symbolic.  Raises ZeroDivisionError when the
    denominator vanishes at the binding point, and BadBindingError when a
    bound symbol's exponent exceeds MAX_BOUND_EXPONENT, its power
    overflows a float or the float value is not finite.  A float
    denominator also vanishes when its terms cancel to below their
    round-off, ``|den| < tol * sum |term|`` at the point, so a one-term
    denominator vanishes only at zero.
    """
    values = {}
    for name in s.syms:
        if name in bindings:
            values[name] = bindings[name]
        else:
            values[name] = target.sym(name)

    def power(name: str, e: int) -> Scalar:
        # a bound symbol's power is one number, formed in full
        if name in bindings and abs(e) > MAX_BOUND_EXPONENT:
            raise BadBindingError("%s^%d: exponent of a bound symbol above %d" % (name, e, MAX_BOUND_EXPONENT))
        try:
            return values[name] ** e
        except OverflowError:
            raise BadBindingError("%s^%d overflows a float at the binding point" % (name, e)) from None

    def terms(p: _Poly) -> list:
        out = []
        for mono, (re, im) in p.terms.items():
            c = target.from_gauss(re, im)
            for name, e in zip(s.syms, mono):
                if e:
                    c = c * power(name, e)
            out.append(c)
        return out

    num = sum(terms(s.num), target.zero)
    den_terms = terms(s.den)
    den = sum(den_terms, target.zero)
    if not den or not target.exact and abs(den) < target.tolerance * sum(map(abs, den_terms)):
        raise ZeroDivisionError("denominator vanishes at the binding point")
    value = num * scalar_invert(den)
    if not target.exact and not cmath.isfinite(value):
        raise BadBindingError("value is not finite at the binding point")
    return value


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        # ASCII digits only: str.isdigit() also accepts '²', which int() refuses
        if "0" <= c <= "9" or (c == "." and i + 1 < n and "0" <= text[i + 1] <= "9"):
            j = i
            seen_dot = False
            while j < n and ("0" <= text[j] <= "9" or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lit = text[i:j]
            if seen_dot:
                if lit.endswith("."):
                    raise ScalarSyntaxError("malformed decimal %r" % lit)
                out.append(("dec", Fraction(lit)))
            else:
                out.append(("int", int(lit)))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif c in "+-*/^()":
            out.append(("op", c))
            i += 1
        else:
            raise ScalarSyntaxError("unexpected character %r at position %d" % (c, i))
    return out


class _Parser:
    def __init__(self, tokens, field: Field):
        self.toks = tokens
        self.pos = 0
        self.field = field

    def _peek(self, k=0):
        j = self.pos + k
        return self.toks[j] if j < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            raise ScalarSyntaxError("unexpected end of input")
        self.pos += 1
        return t

    def _expect_op(self, ch):
        t = self._next()
        if t != ("op", ch):
            raise ScalarSyntaxError("expected %r" % ch)

    def parse(self):
        v = self._sum()
        t = self._peek()
        if t == ("op", "/"):
            self.pos += 1
            d = self._sum()
            if not d:
                raise ZeroDivisionError("division by zero in scalar text")
            v = v / d
        if self._peek() is not None:
            raise ScalarSyntaxError("trailing input after scalar")
        return v

    def _sum(self):
        negate = False
        t = self._peek()
        if t in (("op", "+"), ("op", "-")):
            self.pos += 1
            negate = t[1] == "-"
        v = self._term()
        if negate:
            v = -v
        while True:
            t = self._peek()
            if t == ("op", "+"):
                self.pos += 1
                v = v + self._term()
            elif t == ("op", "-"):
                self.pos += 1
                v = v - self._term()
            else:
                return v

    def _term(self):
        v = self._factor()
        while True:
            t = self._peek()
            if t == ("op", "*"):
                self.pos += 1
                v = v * self._factor()
            elif t is not None and (t[0] in ("int", "dec", "name") or t == ("op", "(")):
                v = v * self._factor()
            else:
                return v

    def _factor(self):
        t = self._next()
        if t[0] == "int":
            nxt = self._peek()
            if nxt == ("op", "/") and self._peek(1) is not None and self._peek(1)[0] == "int":
                self.pos += 1
                den = self._next()[1]
                if den == 0:
                    raise ZeroDivisionError("rational literal with zero denominator")
                return self.field.from_fraction(Fraction(t[1], den))
            return self.field.from_int(t[1])
        if t[0] == "dec":
            return self.field.from_fraction(t[1])
        if t[0] == "name":
            base = self.field.imag_unit() if t[1] == "i" else self.field.sym(t[1])
            if self._peek() == ("op", "^"):
                self.pos += 1
                return base ** self._signed_int()
            return base
        if t == ("op", "("):
            v = self._sum()
            if self._peek() == ("op", "/"):
                raise ScalarSyntaxError(
                    "a quotient may not stand inside parentheses; "
                    "write one top-level numerator/denominator")
            self._expect_op(")")
            if self._peek() == ("op", "^"):
                raise ScalarSyntaxError("a parenthesised sum takes no exponent")
            return v
        raise ScalarSyntaxError("unexpected token %r" % (t,))

    def _signed_int(self):
        sign = 1
        t = self._next()
        if t in (("op", "-"), ("op", "+")):
            sign = -1 if t[1] == "-" else 1
            t = self._next()
        if t[0] != "int":
            raise ScalarSyntaxError("expected integer exponent")
        return sign * t[1]


def parse_scalar(text: str, tag: FieldTag | Field) -> Scalar:
    """Parse scalar text under the given field tag; a float value must be finite."""
    field = tag if isinstance(tag, Field) else Field(tag)
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarSyntaxError("empty scalar text")
    value = _Parser(tokens, field).parse()
    if not field.exact and not cmath.isfinite(value):
        raise ScalarSyntaxError("value is not finite on the float backend")
    return value


# ---------------------------------------------------------------------------
# formatting


def _format_fraction(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _format_poly(p: _Poly, syms: tuple) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for mono in sorted(p.terms, reverse=True):
        re, im = p.terms[mono]
        if re:
            pieces.append((mono, re, False))
        if im:
            pieces.append((mono, im, True))
    chunks = []
    for k, (mono, coef, is_im) in enumerate(pieces):
        negative = coef < 0
        mag = -coef if negative else coef
        factors = []
        if is_im:
            factors.append("i")
        for name, e in zip(syms, mono):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append("%s^%d" % (name, e))
        if not factors or mag != 1:
            factors.insert(0, _format_fraction(mag))
        body = "*".join(factors)
        if k == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def _format_complex(z: complex) -> str:
    def num(x: float) -> str:
        # positional digits of the shortest repr, which the grammar reads
        # back to the same float (it has no exponent notation)
        if x == int(x):
            return str(int(x))
        return format(Decimal(repr(x)), "f")

    re, im = z.real, z.imag
    if im == 0:
        return num(re)
    if re == 0:
        return ("-i" if im == -1 else "i") if abs(im) == 1 else num(im) + "*i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == 1 else num(mag) + "*i"
    return "%s %s %s" % (num(re), sign, imtxt)


def format_scalar(s: Scalar) -> str:
    """Canonical text for a scalar; re-parsing yields an equal value.

    Monomial denominators are folded into Laurent terms (``q - q^-1``);
    only a genuinely polynomial denominator produces the quotient form
    ``(...)/(...)``.
    """
    if isinstance(s, RatFun):
        if s.is_zero:
            return "0"
        if len(s.den.terms) == 1:
            ((dm, dc),) = s.den.terms.items()
            folded = _Poly(
                s.num.nv,
                {
                    tuple(e - de for e, de in zip(m, dm)): _cdiv(c, dc)
                    for m, c in s.num.terms.items()
                },
            )
            return _format_poly(folded, s.syms)
        body = _format_poly(s.num, s.syms)
        return "(%s)/(%s)" % (body, _format_poly(s.den, s.syms))
    return _format_complex(complex(s))
