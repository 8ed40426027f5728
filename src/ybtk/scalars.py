"""Scalar domains for the matrix kernels: exact rational functions and complex floats.

Two interchangeable backends sit behind one :class:`FieldTag`:

* ``exact``: rational functions in a fixed tuple of indeterminates over
  the rationals, optionally with the imaginary unit adjoined to the
  coefficients (Gaussian rationals, so ``i*i == -1`` holds in ordinary
  arithmetic).  A value is a quotient ``num/den`` of multivariate
  polynomials.  Equality of ``a/b`` and ``c/d`` is decided by the
  cross-multiplication identity ``a*d == c*b``, so no canonical form and
  in particular no multivariate gcd is ever required.
* ``float``: complex double precision; the tag carries the relative
  tolerance used by all comparisons.

After every exact operation the common monomial factor and the common
rational content of numerator and denominator are divided out.  This
keeps Laurent-style values (monomial denominators) small without full
gcd reduction.

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
from typing import Mapping, Union

from .errors import ScalarSyntaxError, UnknownSymbolError

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

_F0 = Fraction(0)
_F1 = Fraction(1)

# A polynomial coefficient is a Gaussian rational stored as (re, im).
Coeff = tuple[Fraction, Fraction]


def _cmul(a: Coeff, b: Coeff) -> Coeff:
    ar, ai = a
    br, bi = b
    if not ai:
        if not bi:
            return (ar * br, _F0)
        return (ar * br, ar * bi)
    if not bi:
        return (ar * br, ai * br)
    return (ar * br - ai * bi, ar * bi + ai * br)


def _cinv(a: Coeff) -> Coeff:
    ar, ai = a
    if not ai:
        return (_F1 / ar, _F0)
    d = ar * ar + ai * ai
    return (ar / d, -ai / d)


def _gcd_fraction(a: Fraction, b: Fraction) -> Fraction:
    # gcd on positive rationals: gcd(p/q, r/s) = gcd(p*s, r*q) / (q*s)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


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
        return _Poly(nv, {mono: (_F1, _F0)})

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
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                c = _cmul(c1, c2)
                cur = t.get(m)
                if cur is None:
                    if c[0] or c[1]:
                        t[m] = c
                else:
                    re, im = cur[0] + c[0], cur[1] + c[1]
                    if re or im:
                        t[m] = (re, im)
                    else:
                        del t[m]
        return _Poly(self.nv, t)

    def scale(self, c: Coeff) -> "_Poly":
        if not c[0] and not c[1]:
            return _Poly(self.nv, {})
        return _Poly(self.nv, {m: _cmul(v, c) for m, v in self.terms.items()})

    def min_exps(self) -> tuple:
        it = iter(self.terms)
        low = list(next(it))
        for m in it:
            for j, e in enumerate(m):
                if e < low[j]:
                    low[j] = e
        return tuple(low)

    def shifted_down(self, by: tuple) -> "_Poly":
        if not any(by):
            return self
        return _Poly(
            self.nv,
            {tuple(e - b for e, b in zip(m, by)): c for m, c in self.terms.items()},
        )

    def content(self) -> Fraction:
        num_g = 0
        den_l = 1
        for re, im in self.terms.values():
            for f in (re, im):
                if f:
                    num_g = math.gcd(num_g, abs(f.numerator))
                    den_l = den_l * f.denominator // math.gcd(den_l, f.denominator)
        return Fraction(num_g, den_l)

    def __eq__(self, other):
        return isinstance(other, _Poly) and self.terms == other.terms

    __hash__ = None


class RatFun:
    """An exact rational function num/den over a fixed symbol tuple.

    Values are immutable; all operators return new values.  ``==`` uses
    cross-multiplication, so differently reduced representations of the
    same function compare equal.
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
        nv = len(syms)
        c = (Fraction(value), _F0)
        return RatFun(syms, _Poly.const(nv, c), _Poly.const(nv, (_F1, _F0)), reduce=False)

    @staticmethod
    def from_gauss(syms: tuple, re, im) -> "RatFun":
        nv = len(syms)
        return RatFun(
            syms,
            _Poly.const(nv, (Fraction(re), Fraction(im))),
            _Poly.const(nv, (_F1, _F0)),
            reduce=False,
        )

    @staticmethod
    def gen(syms: tuple, name: str) -> "RatFun":
        nv = len(syms)
        k = syms.index(name)
        return RatFun(syms, _Poly.gen(nv, k), _Poly.const(nv, (_F1, _F0)), reduce=False)

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
        if self.is_zero or o.is_zero:
            return RatFun.from_fraction(self.syms, 0)
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num.mul(o.den) == o.num.mul(self.den)

    __hash__ = None

    # -- conversion ---------------------------------------------------

    def as_gauss(self) -> tuple[Fraction, Fraction] | None:
        """Return (re, im) if the value is constant, else None."""
        if self.is_zero:
            return (_F0, _F0)
        nv = len(self.syms)
        one = (0,) * nv
        if set(self.num.terms) == {one} and set(self.den.terms) == {one}:
            return _cmul(self.num.terms[one], _cinv(self.den.terms[one]))
        return None

    def __repr__(self):
        return "RatFun(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


def _reduce(num: _Poly, den: _Poly) -> tuple[_Poly, _Poly]:
    """Divide out common monomial and rational content; fix the sign of den.

    Additionally collapses the frequent case where the numerator is a
    monomial multiple of the denominator (detected from the leading
    terms, verified exactly), which keeps matrix-elimination output from
    dragging redundant polynomial factors around without needing gcd.
    """
    if num.is_zero():
        return num, _Poly.const(den.nv, (_F1, _F0))
    low_n = num.min_exps()
    low_d = den.min_exps()
    shift = tuple(min(a, b) for a, b in zip(low_n, low_d))
    num = num.shifted_down(shift)
    den = den.shifted_down(shift)
    g = _gcd_fraction(num.content(), den.content())
    if g != 1:
        inv = (_F1 / g, _F0)
        num = num.scale(inv)
        den = den.scale(inv)
    if len(num.terms) == len(den.terms) and len(den.terms) > 1:
        collapsed = _monomial_quotient(num, den)
        if collapsed is not None:
            num, den = collapsed
    lead = den.terms[max(den.terms)]
    if lead[0] < 0 or (not lead[0] and lead[1] < 0):
        num = num.neg()
        den = den.neg()
    return num, den


def _monomial_quotient(num: _Poly, den: _Poly):
    """If num == c * x^e * den, return the reduced (c*x^{e+}, x^{e-}) pair."""
    nv = num.nv
    lead_n = max(num.terms)
    lead_d = max(den.terms)
    c = _cmul(num.terms[lead_n], _cinv(den.terms[lead_d]))
    exps = tuple(a - b for a, b in zip(lead_n, lead_d))
    up = tuple(max(e, 0) for e in exps)
    down = tuple(max(-e, 0) for e in exps)
    lhs = num if not any(down) else num.mul(_Poly(nv, {down: (_F1, _F0)}))
    rhs = den.mul(_Poly(nv, {up: c}))
    if lhs == rhs:
        return _Poly(nv, {up: c}), _Poly(nv, {down: (_F1, _F0)})
    return None


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
            if not self.tolerance > 0:
                raise ValueError("tolerance must be positive")


def exact_tag(*indeterminates: str, imaginary: bool = False) -> FieldTag:
    return FieldTag("exact", tuple(indeterminates), imaginary)


def float_tag(tolerance: float = 1e-9) -> FieldTag:
    return FieldTag("float", (), True, tolerance)


class Field:
    """Operational facade over a FieldTag: parsing, comparison, constants."""

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
        return self.from_fraction(Fraction(k))

    def from_fraction(self, fr) -> Scalar:
        fr = Fraction(fr)
        if self.exact:
            return RatFun.from_fraction(self.tag.indeterminates, fr)
        return complex(fr)

    def imag_unit(self) -> Scalar:
        if self.exact:
            if not self.tag.imaginary:
                raise UnknownSymbolError("the imaginary unit is not enabled for this field")
            return RatFun.from_gauss(self.tag.indeterminates, 0, 1)
        return 1j

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)

    def format(self, x: Scalar) -> str:
        return format_scalar(x)

    def is_zero(self, x: Scalar) -> bool:
        if self.exact:
            return x.is_zero
        return abs(x) <= self.tag.tolerance

    def eq(self, a: Scalar, b: Scalar) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tag.tolerance * max(1.0, abs(a), abs(b))

    def invert(self, x: Scalar) -> Scalar:
        return scalar_invert(x)

    def monomial_sqrt(self, x: Scalar):
        return monomial_sqrt(x)


# ---------------------------------------------------------------------------
# free-function operations


def scalar_invert(s: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    if isinstance(s, RatFun):
        return s.invert()
    if s == 0:
        raise ZeroDivisionError("inverting the zero scalar")
    return 1 / s


def monomial_sqrt(s: Scalar):
    """Square root of a monomial scalar, or None.

    Exact backend: succeeds only on ``c * prod(sym^k)`` with all
    exponents even and ``c`` a square of a positive rational; the
    returned root has a positive rational coefficient.  Float backend:
    the principal complex square root (None only for zero).
    """
    if not isinstance(s, RatFun):
        if s == 0:
            return None
        return cmath.sqrt(s)
    if s.is_zero:
        return None
    if len(s.num.terms) != 1 or len(s.den.terms) != 1:
        # the value may still be a monomial in a redundant representation
        collapsed = _monomial_quotient(s.num, s.den)
        if collapsed is None:
            return None
        s = RatFun(s.syms, collapsed[0], collapsed[1], reduce=False)
    (mn, cn), = s.num.terms.items()
    (md, cd), = s.den.terms.items()
    if cn[1] or cd[1]:
        return None
    c = cn[0] / cd[0]
    if c <= 0:
        return None
    if any(e % 2 for e in mn) or any(e % 2 for e in md):
        return None
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    nv = len(s.syms)
    num = _Poly(nv, {tuple(e // 2 for e in mn): (Fraction(rn, rd), _F0)})
    den = _Poly(nv, {tuple(e // 2 for e in md): (_F1, _F0)})
    return RatFun(s.syms, num, den)


def substitute(s: RatFun, bindings: Mapping[str, Scalar], target: Field) -> Scalar:
    """Map an exact scalar into ``target``, sending symbols through ``bindings``.

    Symbols missing from ``bindings`` must be indeterminates of the
    target field and stay symbolic.  Raises ZeroDivisionError when the
    denominator vanishes at the binding point.
    """
    values = {}
    for name in s.syms:
        if name in bindings:
            values[name] = bindings[name]
        else:
            values[name] = target.sym(name)

    def poly_value(p: _Poly) -> Scalar:
        acc = target.zero
        for mono, (re, im) in p.terms.items():
            c = target.from_fraction(re)
            if im:
                c = c + target.imag_unit() * target.from_fraction(im)
            for name, e in zip(s.syms, mono):
                if e:
                    c = c * values[name] ** e
            acc = acc + c
        return acc

    num = poly_value(s.num)
    den = poly_value(s.den)
    if target.is_zero(den):
        raise ZeroDivisionError("denominator vanishes at the binding point")
    return num * scalar_invert(den)


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
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
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
            if d == 0:
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
    """Parse scalar text under the given field tag."""
    field = tag if isinstance(tag, Field) else Field(tag)
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarSyntaxError("empty scalar text")
    return _Parser(tokens, field).parse()


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
            inv = _cinv(dc)
            folded = _Poly(
                s.num.nv,
                {
                    tuple(e - de for e, de in zip(m, dm)): _cmul(c, inv)
                    for m, c in s.num.terms.items()
                },
            )
            return _format_poly(folded, s.syms)
        body = _format_poly(s.num, s.syms)
        return "(%s)/(%s)" % (body, _format_poly(s.den, s.syms))
    return _format_complex(complex(s))
