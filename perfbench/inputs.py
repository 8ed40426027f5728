"""Seeded input generators and an independent scalar-text evaluator.

Everything here is benchmark code: ybtk only ever sees what these
functions produce.

* ``sl_n_entries`` writes the standard U_q(sl_n) R-matrix in the
  matrix-file flattening, exactly (as scalar text in ``q``) or at a
  float point.  Its enhancement factor is alpha = q^-n.
* ``markov_word`` builds a braid word Markov-equivalent to a small seed
  braid (at most 3 strands): the seed is stabilised up to the requested
  strand count and conjugated by a random word.  With an enhanced pair
  (alpha = beta = 1) the invariant of the result equals the invariant
  of the seed braid, which is cheap to compute exactly and serves as the
  reference value.
* ``evaluate_text`` evaluates ybtk's printed scalars (``1/2*q + q^-1``,
  ``(q^4 - 1)/(2*q^3 - 2*q)``, ``1.3 + 0.2*i``) at a point with Python's
  own ``Fraction`` / ``complex`` arithmetic, so output checks do not go
  through ybtk's scalar code.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ybtk import BraidWord

# ---------------------------------------------------------------------------
# U_q(sl_n)


def sl_n_entries(n: int, q=None) -> list[str]:
    """Row-major n^2 x n^2 entries of the standard U_q(sl_n) R-matrix.

    ``R^{ab}_{cd}`` is q on a = b = c = d, 1 on a = c != b = d, and
    q - q^-1 on (a, b, c, d) = (i, j, j, i) with i < j.  With ``q=None``
    the entries are exact text in the indeterminate ``q``; with a complex
    ``q`` they are float text at that point.
    """
    if q is None:
        diag, off = "q", "q - q^-1"
    else:
        diag, off = format_complex(q), format_complex(q - 1 / q)
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a, b) == (c, d):
                        out.append(diag if a == b else "1")
                    elif (a, b) == (d, c) and a < b:
                        out.append(off)
                    else:
                        out.append("0")
    return out


def format_float(x: float) -> str:
    """Decimal text the scalar grammar accepts (no exponent notation)."""
    text = "%.17f" % abs(x)
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


def format_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    re_part = ("-" if z.real < 0 else "") + format_float(z.real)
    return "%s %s %s*i" % (re_part, sign, format_float(z.imag))


# ---------------------------------------------------------------------------
# braid words


def random_word(rng, strands: int, length: int) -> BraidWord:
    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)


def markov_word(rng, strands: int, length: int) -> tuple[BraidWord, BraidWord]:
    """(seed braid, Markov-equivalent word with ``strands`` and ``length``).

    The seed braid has 2 or 3 strands and 1 to 6 letters; stabilisations
    add one letter per strand and the conjugating word ``eta`` adds
    2*len(eta).  Raises ValueError when no split reaches ``length``.
    """
    splits = [
        (m0, e)
        for m0 in (2, 3)
        if m0 <= strands
        for e in range(length)
        if 1 <= length - (strands - m0) - 2 * e <= 6
    ]
    if not splits:
        raise ValueError("no Markov split for %d strands, %d letters" % (strands, length))
    m0, e = rng.choice(splits)
    seed = random_word(rng, m0, length - (strands - m0) - 2 * e)
    word = seed
    while word.strands < strands:
        word = word.stabilized(rng.choice((1, -1)))
    return seed, word.conjugated_by(random_word(rng, strands, e))


# ---------------------------------------------------------------------------
# scalar text evaluation

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _tokens(text: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError("cannot read scalar text %r at %d" % (text, pos))
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
        pos = m.end()
    return out


def evaluate_text(text: str, point: dict):
    """Value of a printed scalar at ``point`` (symbol -> Fraction or complex).

    Integer and fraction literals stay exact, so with Fraction values at
    the point an exact scalar evaluates exactly.  ``i`` is the imaginary
    unit and turns the result complex.
    """
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take():
        nonlocal pos
        tok = peek()
        if tok[0] is None:
            raise ValueError("scalar text %r ends early" % text)
        pos += 1
        return tok

    def expr():
        value = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            value = value + term() if op == "+" else value - term()
        return value

    def term():
        value = unary()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary():
        if peek() == ("op", "-"):
            take()
            return -unary()
        if peek() == ("op", "+"):
            take()
            return unary()
        return power()

    def power():
        base = atom()
        if peek() == ("op", "^"):
            take()
            sign = 1
            if peek() in (("op", "-"), ("op", "+")):
                sign = -1 if take()[1] == "-" else 1
            kind, digits = take()
            if kind != "num" or not digits.isdigit():
                raise ValueError("bad exponent in %r" % text)
            return base ** (sign * int(digits))
        return base

    def atom():
        kind, tok = take()
        if kind == "num":
            if tok.isdigit():
                return Fraction(int(tok))
            return float(tok)
        if kind == "name":
            if tok == "i":
                return 1j
            if tok not in point:
                raise ValueError("symbol %r has no value at the point" % tok)
            return point[tok]
        if tok == "(":
            value = expr()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parentheses in %r" % text)
            return value
        raise ValueError("unexpected %r in %r" % (tok, text))

    value = expr()
    if pos != len(toks):
        raise ValueError("trailing text in %r" % text)
    return value


def close(a, b, rel: float = 1e-9) -> bool:
    """Equality for evaluated scalars: exact for Fractions, relative otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
