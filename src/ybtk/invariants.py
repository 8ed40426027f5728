"""Braid-word and tangle-word evaluation for enhanced solutions.

A braid word on ``m`` strands is a sequence of signed generator letters;
its representation sends the i-th generator to the two-slot operator
``S^{±1}`` acting on slots (i, i+1) of ``(C^n)^(x m)``, and the link
invariant of a word ``w`` with exponent sum ``e`` is::

    T(w) = alpha^{-e} * beta^{-m} * Tr(rho(w) o mu^(x m)).

Braid text format: ``strands=<m> s1 s2' ...`` with a trailing ``'``
marking an inverse letter.

Tangle words are lists of layers, bottom first, each layer a row of
elementary pieces juxtaposed left to right:

======  ==================  =========================================
piece   typing              value under an enhanced pair (S, mu)
======  ==================  =========================================
u       (+) -> (+)          identity on V
d       (-) -> (-)          identity on V*
x+, x-  (+,+) -> (+,+)      S, S^{-1}
cup     ()  -> (+,-)        sum of e_i (x) f_i
cap     (-,+) -> ()         the pairing f_i (x) e_j -> delta_ij
cup-    ()  -> (-,+)        sum of (mu^{-1})^k_i  f_i (x) e_k
cap-    (+,-) -> ()         e_i (x) f_j -> mu^j_i
======  ==================  =========================================

A sign sequence of length k is realised as the n^k-dimensional space
with factors ordered left to right; layers compose bottom to top, so
the matrix of a word is (top layer) @ ... @ (bottom layer).  Text
format: one layer per line, pieces comma-separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScalarSyntaxError, StrandLimitError, TangleTypeError
from .rmatrix import braid_forms, second_inverse
from .scalars import Field, Scalar, scalar_invert
from .tensors import Mat, Tensor4, slot_trace

__all__ = [
    "BraidWord",
    "writhe",
    "braid_rep",
    "InvariantInput",
    "turaev",
    "FundamentalBraidings",
    "braidings",
    "TangleWord",
    "tangle_eval",
    "closure_word",
    "DEFAULT_MAX_STRANDS",
    "MAX_TANGLE_ENTRIES",
]

DEFAULT_MAX_STRANDS = 12
# the largest braid state the default strand cap allows, at any n
MAX_TANGLE_ENTRIES = 4 ** DEFAULT_MAX_STRANDS


@dataclass(frozen=True)
class BraidWord:
    """A braid group element as a word: strand count and signed letters."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(tuple(l) for l in self.letters))
        for idx, eps in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(
                    "letter index %d out of range for %d strands" % (idx, self.strands)
                )
            if eps not in (1, -1):
                raise ValueError("letter exponent must be +1 or -1")

    @staticmethod
    def parse(text: str) -> "BraidWord":
        tokens = text.split()
        if not tokens or not tokens[0].startswith("strands="):
            raise ScalarSyntaxError("braid word must start with strands=<m>")
        count = tokens[0][len("strands="):]
        if not (count.isascii() and count.isdigit()):
            raise ScalarSyntaxError("bad strand count %r" % tokens[0])
        strands = int(count)
        letters = []
        for tok in tokens[1:]:
            body = tok
            eps = 1
            if body.endswith("'"):
                eps = -1
                body = body[:-1]
            index = body[1:]
            if not body.startswith("s") or not (index.isascii() and index.isdigit()):
                raise ScalarSyntaxError("bad braid letter %r" % tok)
            letters.append((int(index), eps))
        try:
            return BraidWord(strands, tuple(letters))
        except ValueError as exc:
            raise ScalarSyntaxError(str(exc)) from None

    def format(self) -> str:
        parts = ["strands=%d" % self.strands]
        parts += ["s%d%s" % (i, "" if e > 0 else "'") for i, e in self.letters]
        return " ".join(parts)

    def writhe(self) -> int:
        return sum(e for _, e in self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -e) for i, e in reversed(self.letters)))

    def conjugated_by(self, eta: "BraidWord") -> "BraidWord":
        if eta.strands != self.strands:
            raise ValueError("conjugating braid must have the same strand count")
        return BraidWord(self.strands, eta.letters + self.letters + eta.inverse().letters)

    def stabilized(self, eps: int = 1) -> "BraidWord":
        return BraidWord(self.strands + 1, self.letters + ((self.strands, eps),))


def writhe(word: BraidWord) -> int:
    """Exponent sum of the word."""
    return word.writhe()


def braid_rep(s: Tensor4, word: BraidWord, max_strands: int = DEFAULT_MAX_STRANDS) -> Mat:
    """The product of slot lifts of S^{±1} over the letters, in order."""
    steps = _transposed_letters(s, word, max_strands)
    return Mat.identity(s.field, s.n ** word.strands).apply_slots(s.n, steps).transpose()


def _transposed_letters(s: Tensor4, word: BraidWord, max_strands: int) -> list:
    """Kernel steps whose product on the identity is rho(word)^T.

    Building the transpose multiplies the letters in word order, as
    rho = ((L1 L2) L3) ... would; the exact backend keeps no gcd, so the
    association decides how far rational functions swell.
    """
    n, m = s.n, word.strands
    # n^(2m) > 4^max_strands, in logarithms so that no huge power is formed;
    # n = 1 counts like n = 2, so that the m steps are bounded too
    if m * max(1.0, math.log2(n)) > max_strands:
        raise StrandLimitError(
            "braid on %d strands at n = %d exceeds the cap of %d strands"
            " (an n^m x n^m state over 4^%d entries)" % (m, n, max_strands, max_strands)
        )
    blocks = {1: s.mat.transpose()}
    if any(e < 0 for _, e in word.letters):
        blocks[-1] = s.inverse().mat.transpose()
    return [(blocks[eps], i - 1) for i, eps in word.letters]


@dataclass
class InvariantInput:
    """An enhanced pair or quadruple packaged for evaluation.

    Pairs use alpha = beta = 1; S must be n^2 x n^2 and mu n x n, both
    invertible.
    """

    s: Tensor4
    mu: Mat
    alpha: Scalar
    beta: Scalar

    @property
    def n(self) -> int:
        return self.s.n

    @property
    def field(self) -> Field:
        return self.s.field

    @staticmethod
    def from_pair(pair) -> "InvariantInput":
        f = pair.s.field
        return InvariantInput(pair.s, pair.mu, f.one, f.one)

    @staticmethod
    def from_quadruple(quad) -> "InvariantInput":
        return InvariantInput(quad.s, quad.mu, quad.alpha, quad.beta)


def turaev(inp: InvariantInput, word: BraidWord,
           max_strands: int = DEFAULT_MAX_STRANDS) -> Scalar:
    """The normalised Markov trace of the braid word."""
    # Tr(rho mu^(x m)) = Tr((mu^(x m) rho)^T): mu^T on every slot of the
    # identity, then the transposed letters; mu first keeps the exact
    # state as sparse as mu^(x m), and the float trace folds a diagonal
    # mu^T into its starting columns; the letters check the strand cap first
    letters = _transposed_letters(inp.s, word, max_strands)
    mu_t = inp.mu.transpose()
    steps = [(mu_t, j) for j in range(word.strands)] + letters
    raw = slot_trace(inp.field, inp.n, word.strands, steps)
    e = word.writhe()
    norm = scalar_invert(inp.alpha) ** e if e >= 0 else inp.alpha ** (-e)
    norm = norm * scalar_invert(inp.beta) ** word.strands
    return norm * raw


# ---------------------------------------------------------------------------
# the four fundamental braidings


@dataclass
class FundamentalBraidings:
    """Braidings of the fundamental object V and its dual, as matrices.

    c_vv : V  (x) V  -> V  (x) V     from R
    c_dd : V* (x) V* -> V* (x) V*    from R
    c_vd : V  (x) V* -> V* (x) V     from the second inverse
    c_dv : V* (x) V  -> V  (x) V*    from R^{-1}
    """

    c_vv: Tensor4
    c_dd: Tensor4
    c_vd: Tensor4
    c_dv: Tensor4


def braidings(r: Tensor4) -> FundamentalBraidings:
    """The four fundamental braidings built from R, R~ and R^{-1}.

    Mixed spaces are flattened with the dual basis ordered like the
    primal one, factors left to right.
    """
    rt = second_inverse(r)
    r_inv = r.inverse()
    return FundamentalBraidings(
        r.permute_axes((3, 2, 0, 1)),  # c_vv^{xy}_{cd} = R^{cd}_{yx}
        braid_forms(r)[0],  # c_dd^{xy}_{cd} = R^{yx}_{cd}, the braid form PR
        rt.permute_axes((1, 2, 0, 3)),  # c_vd^{xy}_{cd} = R~^{cx}_{yd}
        r_inv.permute_axes((3, 0, 2, 1)),  # c_dv^{xy}_{cd} = (R^-1)^{yd}_{cx}
    )


# ---------------------------------------------------------------------------
# tangle words

PIECES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "u": (("+",), ("+",)),
    "d": (("-",), ("-",)),
    "x+": (("+", "+"), ("+", "+")),
    "x-": (("+", "+"), ("+", "+")),
    "cup": ((), ("+", "-")),
    "cup-": ((), ("-", "+")),
    "cap": (("-", "+"), ()),
    "cap-": (("+", "-"), ()),
}


# per piece: the domain and codomain signs as strings, so that a layer's
# type is one join; and (domain width, slot change) of each piece that acts
_DOMAIN = {piece: "".join(dom) for piece, (dom, _) in PIECES.items()}
_CODOMAIN = {piece: "".join(cod) for piece, (_, cod) in PIECES.items()}
_ACTING = {piece: (len(dom), len(cod) - len(dom))
           for piece, (dom, cod) in PIECES.items() if piece not in ("u", "d")}
_CROSSING = {1: "x+", -1: "x-"}


@dataclass(frozen=True)
class TangleWord:
    """Layers of elementary pieces, bottom layer first."""

    layers: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(map(tuple, self.layers)))
        if not self.layers:
            raise ScalarSyntaxError("a tangle word needs at least one layer")
        if not set().union(*self.layers) <= PIECES.keys():
            piece = next(p for layer in self.layers for p in layer if p not in PIECES)
            raise ScalarSyntaxError("unknown tangle piece %r" % piece)

    @staticmethod
    def parse(text: str) -> "TangleWord":
        layers = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            layers.append(tuple(p.strip() for p in line.split(",") if p.strip()))
        if not layers:
            raise ScalarSyntaxError("empty tangle word")
        return TangleWord(tuple(layers))

    def format(self) -> str:
        return "\n".join(",".join(layer) for layer in self.layers)

    def layer_types(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        """(domain, codomain) sign sequences per layer; checks composability."""
        return [(tuple(dom), tuple(cod)) for _, dom, cod in _typed_layers(self.layers)]

    @property
    def domain(self) -> tuple[str, ...]:
        return self.layer_types()[0][0]

    @property
    def codomain(self) -> tuple[str, ...]:
        return self.layer_types()[-1][1]


def _typed_layers(layers):
    """``(layer, domain, codomain)`` per layer, signs as strings.

    Raises TangleTypeError at the first layer whose domain is not the
    codomain of the layer below it.
    """
    found = None
    for k, layer in enumerate(layers):
        dom = "".join(map(_DOMAIN.__getitem__, layer))
        if found is not None and dom != found:
            raise TangleTypeError(k, tuple(dom), tuple(found))
        found = "".join(map(_CODOMAIN.__getitem__, layer))
        yield layer, dom, found


def _piece_matrix(piece: str, inp: InvariantInput) -> Mat:
    n = inp.n
    if piece in ("x+", "x-"):
        return inp.s.mat if piece == "x+" else inp.s.inverse().mat
    if piece in ("cup", "cap"):
        m = Mat.identity(inp.field, n)
    else:  # (mu^-1)^T for cup-, mu^T for cap-
        m = (inp.mu.inverse() if piece == "cup-" else inp.mu).transpose()
    # a cup is an n x n matrix read as one column, a cap as one row
    return m.reshape(n * n, 1) if piece.startswith("cup") else m.reshape(1, n * n)


def tangle_eval(word: TangleWord, inp: InvariantInput) -> Mat:
    """Evaluate a tangle word to the matrix between its boundary spaces.

    The result maps the n^len(domain)-dimensional space to the
    n^len(codomain)-dimensional one; a closed word gives a 1 x 1 matrix.
    One pass over the layers checks their types and places each acting
    piece; ``u`` and ``d`` make no step.  Raises StrandLimitError, before
    allocating any state, when a state would hold more than
    MAX_TANGLE_ENTRIES entries.
    """
    width = None
    acting = []  # (piece, first slot) in step order
    for layer, dom, _ in _typed_layers(word.layers):
        if width is None:
            width = peak = len(dom)
        # right to left, so each piece's domain offset is still its slot
        offset = slots = len(dom)
        for piece in reversed(layer):
            shape = _ACTING.get(piece)
            if shape is None:  # u or d
                offset -= 1
                continue
            arity, growth = shape
            offset -= arity
            slots += growth
            if slots > peak:
                peak = slots
            acting.append((piece, offset))
    matrices = {piece: _piece_matrix(piece, inp) for piece in dict.fromkeys(p for p, _ in acting)}
    n = inp.n
    if n ** (peak + width) > MAX_TANGLE_ENTRIES:
        raise StrandLimitError(
            "tangle state of n^%d entries exceeds the cap of %d entries"
            % (peak + width, MAX_TANGLE_ENTRIES)
        )
    steps = [(matrices[piece], first) for piece, first in acting]
    return Mat.identity(inp.field, n ** width).apply_slots(n, steps)


def closure_word(word: BraidWord) -> TangleWord:
    """The trace closure of a braid as a tangle word.

    Nested cups below, the braid in the middle (acting on the m
    fundamental strands), mu-corrected caps above; evaluating it on an
    enhanced pair gives Tr(rho(word) o mu^(x m)).
    """
    m = word.strands
    ups, downs = ("u",) * m, ("d",) * m
    cups = [ups[:j] + ("cup",) + downs[:j] for j in range(m)]
    letters = [ups[:i - 1] + (_CROSSING[eps],) + ups[:m - i - 1] + downs for i, eps in word.letters]
    caps = [ups[:j] + ("cap-",) + downs[:j] for j in reversed(range(m))]
    return TangleWord(tuple(cups + letters + caps))
