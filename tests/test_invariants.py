"""Braid representation, Markov trace invariant, braidings, tangle layer."""

import cmath
import random

import pytest

from ybtk.catalog import fixture
from ybtk.errors import ScalarSyntaxError, StrandLimitError, TangleTypeError
from ybtk.invariants import (
    BraidWord,
    InvariantInput,
    TangleWord,
    braid_rep,
    braidings,
    closure_word,
    tangle_eval,
    turaev,
    writhe,
)
from ybtk.rmatrix import braid_forms, compute_uv, enhance
from ybtk.scalars import Field, exact_tag, float_tag, scalar_invert
from ybtk.tensors import Mat, Tensor4, permutation

from helpers import is_identity, sl_n_r

QQ = Field(exact_tag())
C = Field(float_tag())

# mixed crossings expanded through cups and caps
Y_MINUS = TangleWord((("cup-", "u", "d"), ("d", "x-", "d"), ("d", "u", "cap-")))
Y_PLUS = TangleWord((("cup-", "u", "d"), ("d", "x+", "d"), ("d", "u", "cap-")))
T_PLUS = TangleWord((("d", "u", "cup"), ("d", "x+", "d"), ("cap", "u", "d")))
T_MINUS = TangleWord((("d", "u", "cup"), ("d", "x-", "d"), ("cap", "u", "d")))
Z_PLUS_VIA_CUPS = TangleWord(
    (
        ("d", "d", "cup"),
        ("d", "d", "u", "cup", "d"),
        ("d", "d", "x+", "d", "d"),
        ("d", "cap", "u", "d", "d"),
        ("cap", "d", "d"),
    )
)
Z_PLUS_VIA_DUAL_CUPS = TangleWord(
    (
        ("cup-", "d", "d"),
        ("d", "cup-", "u", "d", "d"),
        ("d", "d", "x+", "d", "d"),
        ("d", "d", "u", "cap-", "d"),
        ("d", "d", "cap-"),
    )
)


def family7_normalized_pair():
    result = enhance(fixture(7).r)
    return InvariantInput.from_pair(result.pairs[0])


def family7_bare_pairs():
    fx = fixture(7)
    f = fx.field
    pr, rp = braid_forms(fx.r)
    u, v = compute_uv(fx.r)
    return fx, InvariantInput(pr, u, f.one, f.one), InvariantInput(rp, v, f.one, f.one)


def trivial_quadruple(n=2):
    # the square of the flip is the identity; (P^2, I, 1, n) normalises
    # every braid trace to 1
    return InvariantInput(
        Tensor4.identity(QQ, n), Mat.identity(QQ, n), QQ.one, QQ.from_int(n)
    )


# ---------------------------------------------------------------------------
# braid words


def test_braid_word_parse_format_roundtrip():
    w = BraidWord.parse("strands=3 s1 s2' s1")
    assert w.strands == 3
    assert w.letters == ((1, 1), (2, -1), (1, 1))
    assert w.format() == "strands=3 s1 s2' s1"
    assert BraidWord.parse(w.format()) == w


def test_braid_word_errors():
    for bad in ["", "s1 s2", "strands=x s1", "strands=2 t1", "strands=2 s9"]:
        with pytest.raises(ScalarSyntaxError):
            BraidWord.parse(bad)
    with pytest.raises(ValueError):
        BraidWord(2, ((1, 3),))


def test_writhe():
    assert writhe(BraidWord.parse("strands=2 s1 s1 s1")) == 3
    assert writhe(BraidWord(4)) == 0
    assert writhe(BraidWord.parse("strands=3 s1 s2'")) == 0


def test_inverse_and_conjugation_shapes():
    w = BraidWord.parse("strands=3 s1 s2'")
    assert w.inverse().letters == ((2, 1), (1, -1))
    conj = w.conjugated_by(BraidWord.parse("strands=3 s2"))
    assert conj.letters[0] == (2, 1) and conj.letters[-1] == (2, -1)
    assert w.stabilized(-1).strands == 4
    assert w.stabilized(-1).letters[-1] == (3, -1)


def test_words_share_their_letter_pairs():
    text = "strands=70 s1 s2' s1 s69"
    a, b = BraidWord.parse(text), BraidWord(70, [[1, 1], (2, -1), (1, 1), (69, 1)])
    assert a == b and hash(a) == hash(b) and BraidWord.parse(a.format()) == a
    assert a.format() == text and a.letters == ((1, 1), (2, -1), (1, 1), (69, 1))
    assert all(x is y for x, y in zip(a.letters, b.letters[:3])) and a.letters[0] is a.letters[2]
    assert a != BraidWord(70, a.letters[:3]) and a != BraidWord(71, a.letters)
    assert a.inverse().letters == ((69, -1), (1, -1), (2, 1), (1, -1))
    conj = a.conjugated_by(BraidWord.parse("strands=70 s3'"))
    assert conj.letters == ((3, -1),) + a.letters + ((3, 1),)
    assert a.stabilized(-1) == BraidWord(71, a.letters + ((70, -1),))
    assert not hasattr(a, "__dict__")


# ---------------------------------------------------------------------------
# braid representation


def test_braid_rep_identity_braid():
    inp = family7_normalized_pair()
    rho = braid_rep(inp.s, BraidWord(3))
    assert is_identity(rho) and rho.rows == 8


def test_braid_rep_single_letter_is_s():
    inp = family7_normalized_pair()
    rho = braid_rep(inp.s, BraidWord.parse("strands=2 s1"))
    assert rho.eq(inp.s.mat)


def test_braid_rep_second_slot_brute_force():
    # sigma_2 in B_3 must be the slot-(2,3) lift: delta_{ad} S[(b,c);(e,f)]
    inp = family7_normalized_pair()
    s = inp.s
    n = 2
    rho = braid_rep(s, BraidWord.parse("strands=3 s2"))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for e in range(n):
                        for f_ in range(n):
                            expected = (
                                s.mat.at(b * n + c, e * n + f_)
                                if a == d
                                else s.field.zero
                            )
                            got = rho.at((a * n + b) * n + c, (d * n + e) * n + f_)
                            assert got == expected


def test_braid_rep_respects_braid_relations():
    inp = family7_normalized_pair()
    s = inp.s
    lhs = braid_rep(s, BraidWord.parse("strands=3 s1 s2 s1"))
    rhs = braid_rep(s, BraidWord.parse("strands=3 s2 s1 s2"))
    assert lhs.eq(rhs)
    far_lhs = braid_rep(s, BraidWord.parse("strands=4 s1 s3"))
    far_rhs = braid_rep(s, BraidWord.parse("strands=4 s3 s1"))
    assert far_lhs.eq(far_rhs)


def test_braid_rep_negative_letters_invert():
    inp = family7_normalized_pair()
    rho = braid_rep(inp.s, BraidWord.parse("strands=2 s1 s1'"))
    assert is_identity(rho)


def test_braid_rep_strand_cap():
    inp = family7_normalized_pair()
    with pytest.raises(StrandLimitError):
        braid_rep(inp.s, BraidWord(13))
    # the cap is adjustable
    rho = braid_rep(inp.s, BraidWord(3), max_strands=3)
    assert rho.rows == 8


def test_strand_cap_counts_dimension_at_n3():
    # the default cap is 4^12 entries: 3^(2*7) fits, 3^(2*8) does not
    inp = InvariantInput(Tensor4.identity(C, 3), Mat.identity(C, 3), C.one, C.one)
    with pytest.raises(StrandLimitError):
        braid_rep(inp.s, BraidWord(8))
    with pytest.raises(StrandLimitError):
        turaev(inp, BraidWord(8))
    assert turaev(inp, BraidWord(7, ((1, 1), (6, -1)))) == 3 ** 7


# ---------------------------------------------------------------------------
# the invariant


def test_trivial_quadruple_gives_one_everywhere():
    inp = trivial_quadruple()
    for text in [
        "strands=1",
        "strands=2 s1 s1 s1",
        "strands=3 s1 s2 s1'",
        "strands=4 s1 s3 s2' s2'",
    ]:
        assert turaev(inp, BraidWord.parse(text)) == QQ.one


def test_family7_empty_braid_value():
    inp = family7_normalized_pair()
    f = inp.field
    assert turaev(inp, BraidWord(1)) == f.parse("q + q^-1")


def test_family7_conjugation_invariance_sample():
    inp = family7_normalized_pair()
    xi = BraidWord.parse("strands=3 s1 s2 s1 s2'")
    eta = BraidWord.parse("strands=3 s2 s1'")
    assert turaev(inp, xi.conjugated_by(eta)) == turaev(inp, xi)


def test_family7_stabilization_invariance_sample():
    inp = family7_normalized_pair()
    xi = BraidWord.parse("strands=2 s1 s1")
    for eps in (1, -1):
        assert turaev(inp, xi.stabilized(eps)) == turaev(inp, xi)


def test_quadruple_normalization_markov_moves():
    # unscaled quadruple input: alpha absorbs the writhe dependence
    fx = fixture(7)
    result = enhance(fx.r)
    inp = InvariantInput.from_quadruple(result.quadruples[0])
    xi = BraidWord.parse("strands=2 s1 s1 s1")
    assert turaev(inp, xi.stabilized(1)) == turaev(inp, xi)
    assert turaev(inp, xi.stabilized(-1)) == turaev(inp, xi)


# ---------------------------------------------------------------------------
# fundamental braidings


def test_braidings_of_identity_are_flips():
    b = braidings(Tensor4.identity(QQ, 2))
    p = permutation(QQ, 2)
    for c in (b.c_vv, b.c_dd, b.c_vd, b.c_dv):
        assert c.eq(p)


def test_braidings_cvd_entries_match_second_inverse():
    fx = fixture(7)
    b = braidings(fx.r)
    rt = fx.expected_tilde
    n = 2
    for x in range(n):
        for y in range(n):
            for c in range(n):
                for d in range(n):
                    assert b.c_vd.entry(x, y, c, d) == rt.entry(c, x, y, d)


def test_braidings_cvv_is_transposed_braid_form():
    fx = fixture(7)
    _, rp = braid_forms(fx.r)
    assert braidings(fx.r).c_vv.mat.eq(rp.mat.transpose())


def test_braidings_cvv_satisfies_braid_relation():
    fx = fixture(7)
    c = braidings(fx.r).c_vv
    c12, c23 = c.lift12(), c.lift23()
    assert (c12 @ c23 @ c12).eq(c23 @ c12 @ c23)


# ---------------------------------------------------------------------------
# tangle words


def test_tangle_parse_format_roundtrip():
    text = "cup-,u,d\nd,x-,d\nd,u,cap-"
    w = TangleWord.parse(text)
    assert w == Y_MINUS
    assert w.format() == text
    assert w.domain == ("+", "-") and w.codomain == ("-", "+")


def test_tangle_type_mismatch_reports_layer():
    # at layer 1 and at the last layer, from layer_types and from tangle_eval
    inp = family7_normalized_pair()
    first = TangleWord((("cup",), ("x+", "u")))
    closure = closure_word(BraidWord.parse("strands=2 s1 s1'"))
    last = TangleWord(closure.layers[:-1] + (("cap",),))
    cases = [(first, 1, ("+", "+", "+"), ("+", "-")),
             (last, len(last.layers) - 1, ("-", "+"), ("+", "-"))]
    for word, index, expected, found in cases:
        for run in (word.layer_types, lambda: tangle_eval(word, inp)):
            with pytest.raises(TangleTypeError) as err:
                run()
            assert err.value.layer_index == index
            assert err.value.expected == expected
            assert err.value.found == found


def test_tangle_unknown_piece():
    with pytest.raises(ScalarSyntaxError):
        TangleWord((("yo",),))
    with pytest.raises(ScalarSyntaxError):
        TangleWord.parse("   \n  ")


def test_zigzag_identities():
    # plain duality on the left, mu-corrected duality on the right; the
    # words contain no crossings so they pin the cup/cap conventions
    zig1 = TangleWord((("cup", "u"), ("u", "cap")))
    zig2 = TangleWord((("d", "cup"), ("cap", "d")))
    zig3 = TangleWord((("cup-", "d"), ("d", "cap-")))
    zig4 = TangleWord((("u", "cup-"), ("cap-", "u")))
    inputs = [family7_normalized_pair()]
    fx, bare_pr, bare_rp = family7_bare_pairs()
    inputs += [bare_pr, bare_rp]
    for inp in inputs:
        for word in (zig1, zig2, zig3, zig4):
            assert is_identity(tangle_eval(word, inp))


def test_mixed_crossing_words_invert_each_other():
    for inp in family7_bare_pairs()[1:]:
        ym = tangle_eval(Y_MINUS, inp)
        tp = tangle_eval(T_PLUS, inp)
        yp = tangle_eval(Y_PLUS, inp)
        tm = tangle_eval(T_MINUS, inp)
        assert is_identity(ym @ tp)
        assert is_identity(yp @ tm)
        assert is_identity(tp @ ym)


def test_composite_second_move_word_is_identity():
    # the six-layer word for (Y- stacked on T+) evaluated in one pass;
    # the relation is the extended second Reidemeister move
    from ybtk.catalog import fixture
    from ybtk.rmatrix import enhance

    composite = TangleWord(T_PLUS.layers + Y_MINUS.layers)
    assert composite.domain == ("-", "+") and composite.codomain == ("-", "+")
    for fid in (2, 4):
        for pair in enhance(fixture(fid).r).pairs:
            inp = InvariantInput.from_pair(pair)
            assert is_identity(tangle_eval(composite, inp))


@pytest.mark.parametrize("fid", [2, 4, 7])
def test_expanded_crossings_match_braiding_matrices(fid):
    """The cup/cap expansions of the mixed crossings reproduce the
    braiding matrices built from the second inverse (the dual-then-
    fundamental realisation) and from R^{-1}, up to reordering both
    mixed factors, which is the flip conjugation."""
    fx = fixture(fid)
    f = fx.field
    pr, rp = braid_forms(fx.r)
    u, v = compute_uv(fx.r)
    inp_pr = InvariantInput(pr, u, f.one, f.one)
    inp_rp = InvariantInput(rp, v, f.one, f.one)
    b = braidings(fx.r)
    p = permutation(f, 2).mat

    assert tangle_eval(Y_MINUS, inp_rp).eq(p @ b.c_vd.mat @ p)
    assert tangle_eval(T_MINUS, inp_rp).eq(p @ b.c_dv.mat @ p)
    assert tangle_eval(Y_MINUS, inp_pr).eq(p @ b.c_vd.mat.transpose() @ p)
    assert tangle_eval(T_MINUS, inp_pr).eq(p @ b.c_dv.mat.transpose() @ p)
    assert tangle_eval(Z_PLUS_VIA_CUPS, inp_pr).eq(
        p @ b.c_dd.mat.transpose() @ p
    )


@pytest.mark.parametrize("fid", [2, 4, 7])
def test_dual_crossing_expansions_agree(fid):
    fx = fixture(fid)
    f = fx.field
    pr, rp = braid_forms(fx.r)
    u, v = compute_uv(fx.r)
    for s, mu in ((pr, u), (rp, v)):
        inp = InvariantInput(s, mu, f.one, f.one)
        assert tangle_eval(Z_PLUS_VIA_CUPS, inp).eq(
            tangle_eval(Z_PLUS_VIA_DUAL_CUPS, inp)
        )


# ---------------------------------------------------------------------------
# closures: braid trace and tangle evaluation agree


def test_closure_word_shapes():
    w = closure_word(BraidWord.parse("strands=2 s1 s1 s1"))
    assert w.domain == () and w.codomain == ()


def test_closure_matches_trace_formula_family7():
    inp = family7_normalized_pair()
    for text in ["strands=1", "strands=2 s1 s1 s1", "strands=2 s1'", "strands=3 s1 s2"]:
        word = BraidWord.parse(text)
        via_trace = turaev(inp, word)
        via_tangle = tangle_eval(closure_word(word), inp).at(0, 0)
        assert via_trace == via_tangle


def test_closure_matches_trace_random_float():
    rng = random.Random(40)
    fx = fixture(7)
    point = {"q": complex(1.25, 0.35), "p": complex(0.8, 0.3)}
    r = Tensor4(2, fx.r.mat.evaluate(point, C))
    result = enhance(r)
    inp = InvariantInput.from_pair(result.pairs[0])
    for _ in range(10):
        m = rng.choice([2, 3])
        letters = tuple(
            (rng.randint(1, m - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 5))
        )
        word = BraidWord(m, letters)
        via_trace = turaev(inp, word)
        via_tangle = tangle_eval(closure_word(word), inp).at(0, 0)
        assert abs(via_trace - via_tangle) <= 1e-9 * max(1.0, abs(via_trace))


# ---------------------------------------------------------------------------
# one pass over the layers; S^-1 and mu^-1 formed once per matrix

FLOAT_Q = complex(1.3, 0.2)


def float_family7_pair(q=FLOAT_Q):
    """The exact family-7 pair at p = 1, evaluated at a float q, in fresh matrices."""
    exact = InvariantInput.from_pair(enhance(fixture(7, bindings={"p": "1"}).r).pairs[0])
    point = {"q": q}
    return InvariantInput(Tensor4(2, exact.s.mat.evaluate(point, C)), exact.mu.evaluate(point, C),
                          C.one, C.one)


def sl3_pair():
    r = sl_n_r(Field(exact_tag("q")), 3)
    return InvariantInput.from_pair(enhance(r).pairs[0])


def words_with_inverse_letters(rng, count, strands, letters):
    """Random braid words, each with at least one S^-1 letter."""
    out = []
    while len(out) < count:
        m = rng.choice(strands)
        word = BraidWord(m, tuple((rng.randint(1, m - 1), rng.choice([1, -1]))
                                  for _ in range(rng.randint(*letters))))
        if any(e < 0 for _, e in word.letters):
            out.append(word)
    return out


@pytest.mark.parametrize("name", ["float7", "exact7", "exact-sl3"])
def test_closure_matches_turaev_with_inverse_letters(name):
    rng = random.Random(41)
    if name == "float7":
        inp, words = float_family7_pair(), words_with_inverse_letters(rng, 12, [2, 3, 4, 5], (1, 12))
    elif name == "exact7":
        inp, words = family7_normalized_pair(), words_with_inverse_letters(rng, 8, [2, 3, 4], (1, 6))
    else:
        inp, words = sl3_pair(), words_with_inverse_letters(rng, 4, [2, 3], (1, 3))
    for word in words:
        via_trace = turaev(inp, word)
        via_tangle = tangle_eval(closure_word(word), inp).at(0, 0)
        if inp.field.exact:
            assert via_tangle == via_trace, word.format()
        else:
            assert abs(via_tangle - via_trace) <= 1e-9 * max(1.0, abs(via_trace)), word.format()


def test_tangle_cap_counts_the_peak_inside_a_layer(monkeypatch):
    """Pieces act right to left, so cups right of caps raise the state
    above both layer boundaries; the cap counts that peak, and raises
    before any state exists."""
    inp = InvariantInput(Tensor4.identity(C, 2), Mat.identity(C, 2), C.one, C.one)
    built = []

    class Unbuilt:
        def apply_slots(self, n, steps):
            built.append(steps)

    identity = Mat.identity
    # the n x n identity that the cup is read from is built; no state is
    monkeypatch.setattr(Mat, "identity",
                        lambda field, dim: identity(field, dim) if dim == 2 else built.append(dim) or Unbuilt())

    def word(cups):
        # 12 slots, then caps on the left and cups on the right: the
        # boundaries hold 12 and 2 * cups slots, the peak 12 + 2 * cups
        return TangleWord((("cup",) * 6, ("cap-",) * 6 + ("cup",) * cups))

    tangle_eval(word(6), inp)  # a peak of 24 slots: n^24 = 4^12 entries fits
    assert len(built) == 2
    built.clear()
    with pytest.raises(StrandLimitError):
        tangle_eval(word(7), inp)
    with pytest.raises(StrandLimitError):
        tangle_eval(closure_word(BraidWord(13)), inp)
    assert built == []


def test_inputs_called_in_alternation_give_their_own_values():
    rng = random.Random(42)
    words = words_with_inverse_letters(rng, 6, [3, 4], (2, 8))
    points = [FLOAT_Q, complex(0.7, -0.4)]

    def values(inp, word):
        return tangle_eval(closure_word(word), inp).at(0, 0), turaev(inp, word)

    # one point after the other, each on its own input
    want = []
    for q in points:
        inp = float_family7_pair(q)
        want.append([values(inp, w) for w in words])
    assert want[0] != want[1]
    inputs = [float_family7_pair(q) for q in points]
    for k, word in enumerate(words):
        for inp, expected in zip(inputs, want):
            assert values(inp, word) == expected[k]


def test_ten_evaluations_invert_s_once(monkeypatch):
    import numpy as np

    braid = BraidWord.parse("strands=3 s1 s2' s1 s2'")
    # the closure inverts S; Y_MINUS also inverts mu, for its cup-
    words = [closure_word(braid), Y_MINUS]
    float_inp = float_family7_pair()
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    values = [tangle_eval(w, float_inp).tolist() for _ in range(10) for w in words]
    assert all(v == values[k % 2] for k, v in enumerate(values))
    assert sorted(shapes) == [(2, 2), (4, 4)]

    exact = family7_normalized_pair()
    exact_inp = InvariantInput(Tensor4(2, Mat.from_rows(exact.field, exact.s.mat.tolist())),
                               Mat.from_rows(exact.field, exact.mu.tolist()), exact.alpha, exact.beta)
    inverted = []
    gauss_jordan = Mat._gauss_jordan
    monkeypatch.setattr(Mat, "_gauss_jordan",
                        lambda self: inverted.append(self) or gauss_jordan(self))
    for _ in range(10):
        assert tangle_eval(words[0], exact_inp).at(0, 0) == turaev(exact_inp, braid)
        assert tangle_eval(words[1], exact_inp).eq(tangle_eval(words[1], exact))
    assert sum(m is exact_inp.s.mat for m in inverted) == 1
    assert sum(m is exact_inp.mu for m in inverted) == 1


# ---------------------------------------------------------------------------
# the skein relation of U_q(sl_n)

SKEIN_Q = 1.2 * cmath.exp(0.7j)


def skein_words(rng, n, exact):
    """(m, xi1, i, xi2): a letter s_i with random words on either side."""
    cases = []
    for m in ([2, 3, 4] if n == 2 else [2, 3]) if exact else [2, 3, 4]:
        for _ in range(2 if exact else 3):
            xi1, xi2 = ([(rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(rng.randint(0, 3))]
                        for _ in range(2))
            cases.append((m, xi1, rng.randint(1, m - 1), xi2))
    return cases


@pytest.mark.parametrize("n,exact", [(2, True), (3, True), (4, True), (2, False), (3, False), (4, False)],
                         ids=["sl2", "sl3", "sl4", "sl2_float", "sl3_float", "sl4_float"])
def test_skein_relation_of_sl_n(n, exact):
    """T(x s_i y) - alpha^2 T(x s_i^-1 y) = alpha (q - q^-1) T(x y) for the PR
    pair S = alpha PR, since (PR - q)(PR + q^-1) = 0: on turaev and on the
    closure tangle, wherever the letter sits."""
    qf = Field(exact_tag("q"))
    r = sl_n_r(qf, n)
    if exact:
        q = qf.parse("q")
    else:
        q = SKEIN_Q
        r = Tensor4(n, r.mat.evaluate({"q": q}, C))
    result = enhance(r)
    inp, alpha = InvariantInput.from_pair(result.pairs[0]), result.alpha
    if exact:
        assert alpha == scalar_invert(q) ** n
    coef = alpha * (q - scalar_invert(q))
    for m, xi1, i, xi2 in skein_words(random.Random(50 + n), n, exact):
        for value in (turaev, lambda inp, word: tangle_eval(closure_word(word), inp).at(0, 0)):
            plus, minus, none = (value(inp, BraidWord(m, tuple(xi1 + mid + xi2)))
                                 for mid in ([(i, 1)], [(i, -1)], []))
            terms = (plus, alpha * alpha * minus, coef * none)
            if exact:
                assert terms[0] - terms[1] == terms[2], (m, xi1, i, xi2)
            else:
                assert abs(terms[0] - terms[1] - terms[2]) <= 1e-9 * max(map(abs, terms)), (m, xi1, i, xi2)
