"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here (exact backend checks are zero
tolerance, float backend checks use 1e-9 relative).
"""

import random
import time
from fractions import Fraction

import pytest

from ybtk.catalog import fixture
from ybtk.errors import NotBiinvertibleError
from ybtk.invariants import (
    BraidWord,
    InvariantInput,
    TangleWord,
    braid_rep,
    braidings,
    closure_word,
    tangle_eval,
    turaev,
)
from ybtk.rmatrix import (
    braid_forms,
    check_qyb,
    compute_uv,
    contraction_identity,
    enhance,
    enhancement_test,
    second_inverse,
    slot_identities,
    trace_identities,
    twist_shadow,
    verify_pair,
    verify_quadruple,
)
from ybtk.scalars import Field, exact_tag, float_tag, substitute
from ybtk.tensors import Mat, Tensor4, permutation

from helpers import kron_enh5_holds, rand_invertible

BIINVERTIBLE = [(1, None), (2, None), (3, None), (4, None), (6, "a"), (6, "b"),
                (7, None), (8, None), (9, None)]

C = Field(float_tag())


def _report(num, name):
    print("ACCEPTANCE %d (%s): PASS" % (num, name))


def _family8_at(sign):
    fx = fixture(8)
    target = Field(exact_tag("q"))
    value = target.sym("q") if sign > 0 else -target.sym("q")
    return Tensor4(2, fx.r.mat.evaluate({"p": value}, target))


def _family7_normalized_pair(p_binding="1"):
    fx = fixture(7, bindings={"p": p_binding})
    return InvariantInput.from_pair(enhance(fx.r).pairs[0])


def _catalog_pairs():
    """All verified enhanced pairs the catalog yields (constrained points
    included), as (pair, label)."""
    out = []
    points = [
        (1, None, {"q": "1"}), (1, None, {"q": "-1"}), (2, None, None),
        (3, None, {"p": "-1"}), (4, None, None), (6, "a", None),
        (6, "b", None), (7, None, None), (9, None, None),
    ]
    for fid, variant, bindings in points:
        fx = fixture(fid, bindings=bindings, variant=variant)
        result = enhance(fx.r)
        out.extend((pair, "family %s" % fid) for pair in result.pairs)
    for sign in (1, -1):
        result = enhance(_family8_at(sign))
        out.extend((pair, "family 8 (p=%sq)" % ("" if sign > 0 else "-"))
                   for pair in result.pairs)
    return out


def test_criterion_1_catalog_exactness():
    """Computed second inverse, U and V match the stored catalog matrices
    entry for entry, symbolically, zero tolerance."""
    start = time.perf_counter()
    for fid, variant in BIINVERTIBLE:
        fx = fixture(fid, variant=variant)
        rt = second_inverse(fx.r)
        ok, _, witness = rt.mat.compare(fx.expected_tilde.mat)
        assert ok, "family %s second inverse differs at %s" % (fid, witness)
        u, v = compute_uv(fx.r)
        assert u.compare(fx.expected_u)[0], "family %s U" % fid
        assert v.compare(fx.expected_v)[0], "family %s V" % fid
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "catalog exactness took %.2fs" % elapsed
    _report(1, "catalog exactness, 8 families incl. both sub-cases of 6")


def test_criterion_2_non_biinvertibility():
    start = time.perf_counter()
    for fid in (5, 10):
        with pytest.raises(NotBiinvertibleError):
            second_inverse(fixture(fid).r)
        assert not enhancement_test(fixture(fid).r).biinvertible
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "family 5 and the flip are reported not biinvertible")


def test_criterion_3_enhancement_verdicts():
    start = time.perf_counter()

    # family 7: alpha = q^-2 and the pair (q^-2 PR, q^2 U)
    fx7 = fixture(7)
    f7 = fx7.field
    result = enhance(fx7.r)
    assert result.alpha == f7.parse("q^-2")
    pr7, _ = braid_forms(fx7.r)
    assert result.pairs[0].s.eq(pr7.scale(f7.parse("q^-2")))
    assert result.pairs[0].mu.eq(fx7.expected_u.scale(f7.parse("q^2")))

    # family 9: alpha = 1/2 and (PR/2, 2U)
    fx9 = fixture(9)
    f9 = fx9.field
    result9 = enhance(fx9.r)
    assert result9.alpha == f9.from_fraction(Fraction(1, 2))
    pr9, _ = braid_forms(fx9.r)
    assert result9.pairs[0].s.eq(pr9.scale(f9.from_fraction(Fraction(1, 2))))
    assert result9.pairs[0].mu.eq(fx9.expected_u.scale(f9.from_int(2)))

    # families 2, 4, 6 (both sub-cases) enhance with alpha = 1
    for fid, variant in [(2, None), (4, None), (6, "a"), (6, "b")]:
        fx = fixture(fid, variant=variant)
        assert enhance(fx.r).alpha == fx.field.one, "family %s" % fid

    # family 8: alpha = 1 on the locus the equation itself requires
    # (p^2 = q^2, surfaced by the Yang-Baxter witness for free p, q)
    assert not check_qyb(fixture(8).r).ok
    for sign in (1, -1):
        r8 = _family8_at(sign)
        assert check_qyb(r8).ok
        assert enhance(r8).alpha == r8.field.one

    # families 1 and 3: exactly under q = ±1 and p = -1
    assert enhancement_test(fixture(1).r).alpha_sq is None
    for value in ("1", "-1"):
        fx1 = fixture(1, bindings={"q": value})
        assert enhance(fx1.r).alpha == fx1.field.one
    assert enhancement_test(fixture(3).r).alpha_sq is None
    fx3 = fixture(3, bindings={"p": "-1"})
    assert enhance(fx3.r).alpha == fx3.field.one

    # every emitted pair and quadruple passes its verifier symbolically
    for pair, label in _catalog_pairs():
        assert verify_pair(pair.s, pair.mu).ok, label
    for fid, variant in [(2, None), (4, None), (6, "a"), (6, "b"), (7, None), (9, None)]:
        fx = fixture(fid, variant=variant)
        for quad in enhance(fx.r).quadruples:
            assert verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta).ok

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "enhancement verdicts took %.2fs" % elapsed
    _report(3, "enhancement verdicts and verified pairs/quadruples")


def test_criterion_4_axiom_cross_equivalence():
    for pair, label in _catalog_pairs():
        # ENH5 from its own Kronecker chain, not read off ENH4's products
        assert verify_pair(pair.s, pair.mu)["ENH4"].ok == kron_enh5_holds(pair.s, pair.mu), label
    rng = random.Random(20260810)
    for _ in range(20):
        s = Tensor4(2, rand_invertible(rng, C, 4))
        mu = rand_invertible(rng, C, 2)
        assert verify_pair(s, mu)["ENH4"].ok == kron_enh5_holds(s, mu)
    _report(4, "transpose-duality axioms agree on catalog pairs and 20 random inputs")


def test_criterion_5_flip_square_quadruples():
    QQ = Field(exact_tag())
    p = permutation(QQ, 2)
    p2 = p @ p
    eye = Mat.identity(QQ, 2)
    good = verify_quadruple(p2, eye, QQ.one, QQ.from_int(2))
    assert good.ok
    bad = verify_quadruple(p2, eye, QQ.from_fraction(Fraction(1, 2)), QQ.from_int(2))
    assert not bad.ok and not bad.results["ENH2"].ok
    print("  (P^2, I, 1/2, 2) trace-normalisation failure: %s"
          % bad.results["ENH2"].detail)
    _report(5, "(P^2, I, 1, 2) passes; (P^2, I, 1/2, 2) fails the trace axiom")


def test_criterion_6_markov_properties():
    start = time.perf_counter()
    inp = _family7_normalized_pair()
    f = inp.field
    point = complex(1.3, 0.2)
    r_float = Tensor4(2, fixture(7, bindings={"p": "1"}).r.mat.evaluate({"q": point}, C))
    inp_float = InvariantInput.from_pair(enhance(r_float).pairs[0])

    rng = random.Random(31524)
    for _ in range(50):
        m = rng.choice([2, 3, 4])
        xi = BraidWord(m, tuple(
            (rng.randint(1, m - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(3, 6))
        ))
        eta = BraidWord(m, tuple(
            (rng.randint(1, m - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(1, 3))
        ))
        value = turaev(inp, xi)
        assert turaev(inp, xi.conjugated_by(eta)) == value
        assert turaev(inp, xi.stabilized(1)) == value
        assert turaev(inp, xi.stabilized(-1)) == value
        # float backend agreement at q = 1.3 + 0.2i, relative 1e-9
        exact_at_point = substitute(value, {"q": point}, C)
        float_value = turaev(inp_float, xi)
        assert abs(exact_at_point - float_value) <= 1e-9 * max(1.0, abs(exact_at_point))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "Markov properties took %.2fs" % elapsed
    _report(6, "conjugation/stabilization exact on 50 braids; float agrees (%.2fs)"
            % elapsed)


def test_criterion_7_invariant_values():
    QQ = Field(exact_tag())
    trivial = InvariantInput(
        Tensor4.identity(QQ, 2), Mat.identity(QQ, 2), QQ.one, QQ.from_int(2)
    )
    for text in ["strands=1", "strands=2 s1", "strands=2 s1 s1 s1",
                 "strands=3 s1 s2 s1'", "strands=4 s2 s3' s1"]:
        assert turaev(trivial, BraidWord.parse(text)) == QQ.one

    inp = _family7_normalized_pair()
    f = inp.field
    empty = BraidWord(1)
    value = turaev(inp, empty)
    assert value == f.parse("q + q^-1")
    # confirmed through the independent tangle-closure path
    assert tangle_eval(closure_word(empty), inp).at(0, 0) == value

    trefoil = BraidWord.parse("strands=2 s1 s1 s1")
    via_trace = turaev(inp, trefoil)
    via_closure = tangle_eval(closure_word(trefoil), inp).at(0, 0)
    assert via_trace == via_closure

    # two-path agreement on random braids
    rng = random.Random(99)
    for _ in range(20):
        m = rng.choice([2, 3])
        word = BraidWord(m, tuple(
            (rng.randint(1, m - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 5))
        ))
        assert tangle_eval(closure_word(word), inp).at(0, 0) == turaev(inp, word)
    _report(7, "trivial quadruple gives 1; trace and closure paths agree")


def test_criterion_8_structural_identities():
    for fid, variant in BIINVERTIBLE:
        fx = fixture(fid, variant=variant)
        for name, res in slot_identities(fx.r).items():
            assert res.ok, "family %s: %s" % (fid, name)
        assert contraction_identity(fx.r).ok, "family %s" % fid
        for name, res in trace_identities(fx.r).items():
            assert res.ok, "family %s: %s" % (fid, name)
        u, v = compute_uv(fx.r)
        assert twist_shadow(fx.r).eq(v @ u), "family %s twist shadow" % fid
    _report(8, "slot, contraction, trace and twist identities hold exactly")


def test_criterion_9_tangle_layer():
    zigzags = [
        TangleWord((("cup", "u"), ("u", "cap"))),
        TangleWord((("d", "cup"), ("cap", "d"))),
        TangleWord((("cup-", "d"), ("d", "cap-"))),
        TangleWord((("u", "cup-"), ("cap-", "u"))),
    ]
    y_minus = TangleWord((("cup-", "u", "d"), ("d", "x-", "d"), ("d", "u", "cap-")))
    y_plus = TangleWord((("cup-", "u", "d"), ("d", "x+", "d"), ("d", "u", "cap-")))
    t_plus = TangleWord((("d", "u", "cup"), ("d", "x+", "d"), ("cap", "u", "d")))
    t_minus = TangleWord((("d", "u", "cup"), ("d", "x-", "d"), ("cap", "u", "d")))

    for fid in (2, 4, 7):
        fx = fixture(fid)
        f = fx.field
        pr, rp = braid_forms(fx.r)
        u, v = compute_uv(fx.r)
        b = braidings(fx.r)
        p = permutation(f, 2).mat
        for s, mu, is_pr in ((pr, u, True), (rp, v, False)):
            inp = InvariantInput(s, mu, f.one, f.one)
            for word in zigzags:
                assert tangle_eval(word, inp).is_identity()
            ym = tangle_eval(y_minus, inp)
            tm = tangle_eval(t_minus, inp)
            # predicted matrices: the mixed braidings built from the
            # second inverse and from R^{-1} (transposed realisation on
            # the PR side), conjugated by the factor flip
            if is_pr:
                assert ym.eq(p @ b.c_vd.mat.transpose() @ p), "family %s" % fid
                assert tm.eq(p @ b.c_dv.mat.transpose() @ p), "family %s" % fid
            else:
                assert ym.eq(p @ b.c_vd.mat @ p), "family %s" % fid
                assert tm.eq(p @ b.c_dv.mat @ p), "family %s" % fid
            assert (ym @ tangle_eval(t_plus, inp)).is_identity()
            assert (tangle_eval(y_plus, inp) @ tm).is_identity()
    _report(9, "zig-zags and mixed-crossing expansions match the predictions")


def test_criterion_10_performance():
    fx = fixture(7, bindings={"p": "1"})
    r = Tensor4(2, fx.r.mat.evaluate({"q": complex(1.3, 0.2)}, C))
    inp = InvariantInput.from_pair(enhance(r).pairs[0])
    rng = random.Random(10)
    word = BraidWord(10, tuple(
        (rng.randint(1, 9), rng.choice([1, -1])) for _ in range(20)
    ))
    start = time.perf_counter()
    rho = braid_rep(inp.s, word)
    mu_m = inp.mu
    for _ in range(9):
        mu_m = mu_m.kron(inp.mu)
    raw = rho.trace_product(mu_m)
    elapsed = time.perf_counter() - start
    assert rho.rows == 1024
    assert abs(raw - turaev(inp, word)) <= 1e-9 * max(1.0, abs(raw))
    assert elapsed < 1.0, "1024-dim braid evaluation took %.3fs" % elapsed
    _report(10, "m=10 braid representation and trace in %.3fs" % elapsed)
