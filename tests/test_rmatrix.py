"""Decision procedures: QYB, braid forms, second inverse, enhancement, axioms."""

import random
from fractions import Fraction

import pytest

from ybtk import rmatrix, tensors
from ybtk.catalog import families, fixture
from ybtk.errors import (
    NoMonomialRootError,
    NotBiinvertibleError,
    NotEnhanceableError,
    NotInvertibleError,
    SingularMatrixError,
)
from ybtk.rmatrix import (
    braid_forms,
    check_qyb,
    compute_uv,
    contraction_identity,
    enhance,
    enhancement_test,
    full_check,
    second_inverse,
    slot_identities,
    trace_identities,
    twist_shadow,
    verify_pair,
    verify_quadruple,
)
from ybtk.scalars import Field, exact_tag, float_tag
from ybtk.tensors import Mat, Tensor4, embed, permutation

from helpers import (
    entrywise_contraction,
    is_identity,
    kron_enh5_holds,
    rand_invertible,
    rand_tensor4,
    sl_n_r,
)

QQ = Field(exact_tag())
C = Field(float_tag())

BIINVERTIBLE = [(1, None), (2, None), (3, None), (4, None), (6, "a"), (6, "b"),
                (7, None), (8, None), (9, None)]

# bindings under which each catalog family yields verified enhanced pairs
ENHANCED_POINTS = [
    (1, None, {"q": "1"}),
    (1, None, {"q": "-1"}),
    (2, None, None),
    (3, None, {"p": "-1"}),
    (4, None, None),
    (6, "a", None),
    (6, "b", None),
    (7, None, None),
    (8, None, {"p": "q"}),
    (9, None, None),
]


def biinvertible_fixtures():
    return [fixture(fid, variant=v) for fid, v in BIINVERTIBLE]


def enhanced_points():
    """(family id, R) at each of ENHANCED_POINTS."""
    out = []
    for fid, variant, bindings in ENHANCED_POINTS:
        if fid == 8:
            # the corner couples p and q through the braid relation itself
            fx = fixture(8)
            target = Field(exact_tag("q"))
            bound = fx.r.mat.evaluate({"p": target.sym("q")}, target)
            r = Tensor4(2, bound)
        else:
            fx = fixture(fid, bindings=bindings, variant=variant)
            r = fx.r
        out.append((fid, r))
    return out


def enhanced_pairs():
    return [(pair, fid) for fid, r in enhanced_points() for pair in enhance(r).pairs]


# ---------------------------------------------------------------------------
# QYB


def test_qyb_identity():
    assert check_qyb(Tensor4.identity(QQ, 2)).ok


def test_qyb_family7_symbolic():
    assert check_qyb(fixture(7).r).ok


def test_qyb_perturbed_family7_reports_witness():
    fx = fixture(7)
    f = fx.field
    bumped = Tensor4(
        2,
        Mat.build(
            f, 4, 4,
            lambda i, j: fx.r.mat.at(i, j) + (f.one if (i, j) == (0, 0) else f.zero),
        ),
    )
    res = check_qyb(bumped)
    assert not res.ok
    assert res.witness is not None and len(res.witness) == 6


# ---------------------------------------------------------------------------
# braid forms


@pytest.mark.parametrize("n", [2, 3])
def test_braid_form_entry_laws(n):
    rng = random.Random(21 + n)
    t = rand_tensor4(rng, QQ, n)
    pr, rp = braid_forms(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    assert pr.entry(a, b, c, d) == t.entry(b, a, c, d)
                    assert rp.entry(a, b, c, d) == t.entry(a, b, d, c)


def test_braid_form_of_identity_is_flip():
    eye = Tensor4.identity(QQ, 2)
    p = permutation(QQ, 2)
    pr, rp = braid_forms(eye)
    assert pr.eq(p) and rp.eq(p)


def test_pr_satisfies_braid_relation_family7():
    pr, rp = braid_forms(fixture(7).r)
    for s in (pr, rp):
        s12, s23 = s.lift12(), s.lift23()
        assert (s12 @ s23 @ s12).eq(s23 @ s12 @ s23)


# ---------------------------------------------------------------------------
# second inverse and contractions


def test_second_inverse_diagonal_family():
    fx = fixture(1)
    assert second_inverse(fx.r).eq(fx.expected_tilde)


def test_second_inverse_family7_has_quotient_entry():
    fx = fixture(7)
    rt = second_inverse(fx.r)
    assert rt.mat.at(1, 2) == fx.field.parse("(q^-1 - q)/q^2")
    assert rt.eq(fx.expected_tilde)


def test_second_inverse_not_biinvertible():
    with pytest.raises(NotBiinvertibleError):
        second_inverse(fixture(5).r)
    with pytest.raises(NotBiinvertibleError):
        second_inverse(fixture(10).r)


def test_second_inverse_singular_input():
    z = Tensor4(2, Mat.zeros(QQ, 4, 4))
    with pytest.raises(NotInvertibleError):
        second_inverse(z)


def test_compute_uv_identity():
    eye = Tensor4.identity(QQ, 2)
    u, v = compute_uv(eye)
    assert is_identity(u) and is_identity(v)


@pytest.mark.parametrize("fid,variant", BIINVERTIBLE)
def test_compute_uv_matches_catalog(fid, variant):
    fx = fixture(fid, variant=variant)
    u, v = compute_uv(fx.r)
    assert u.eq(fx.expected_u)
    assert v.eq(fx.expected_v)


# ---------------------------------------------------------------------------
# enhancement criterion


def test_enhancement_family7():
    fx = fixture(7)
    out = enhancement_test(fx.r)
    assert out.biinvertible
    assert out.alpha_sq == fx.field.parse("q^-4")
    assert out.alpha == fx.field.parse("q^-2")
    assert out.uv_equals_vu


def test_enhancement_family9():
    fx = fixture(9)
    out = enhancement_test(fx.r)
    assert out.alpha_sq == fx.field.from_fraction(Fraction(1, 4))
    assert out.alpha == fx.field.from_fraction(Fraction(1, 2))


def test_enhancement_family1_needs_unit_q():
    out = enhancement_test(fixture(1).r)
    assert out.biinvertible and out.alpha_sq is None
    for binding in ("1", "-1"):
        fx = fixture(1, bindings={"q": binding})
        out = enhancement_test(fx.r)
        assert out.alpha == fx.field.one
    out = enhancement_test(fixture(1, bindings={"q": "5"}).r)
    assert out.alpha_sq is None


def _float_mat(rows):
    return Mat.from_rows(C, [[complex(x) for x in row] for row in rows])


def test_float_scalar_test_reads_vu_in_its_own_magnitude():
    # VU = 1e-10 I is below the absolute 1e-9 but far above its round-off
    v, u = _float_mat([[1e-5, 0], [0, 1e-5]]), _float_mat([[1e-5, 0], [0, 1e-5]])
    assert rmatrix._scalar_multiple_of_identity(v @ u, v, u) == pytest.approx(1e-10)
    # a 1e-3 relative off-diagonal entry on a VU of magnitude 1e-10, which
    # an absolute or a max(1, |A|, |B|)-scaled test would let through
    v = _float_mat([[1e-5, 1e-8], [0, 1e-5]])
    assert rmatrix._scalar_multiple_of_identity(v @ u, v, u) is None
    # terms that cancel to round-off leave no nonzero scalar
    v, u = _float_mat([[1, 1], [1, 1]]), _float_mat([[1, -1], [-1, 1]])
    vu = v @ u
    assert rmatrix._scalar_multiple_of_identity(vu + _float_mat([[1e-17, 0], [0, 1e-17]]), v, u) is None


def _differential_inputs():
    """Every catalog fixture and variant, the loci of families 1, 3 and 8,
    and U_q(sl_n) for n = 3..5, each as an exact R."""
    out = [("family%d%s" % (f.id, v or ""), fixture(f.id, variant=v).r)
           for f in families() for v in (f.variants or (None,))]
    out += [("family1_q=%s" % q, fixture(1, bindings={"q": q}).r) for q in ("1", "-1")]
    out.append(("family3_p=-1", fixture(3, bindings={"p": "-1"}).r))
    q = Field(exact_tag("q"))
    for label, p in (("family8_p=q", q.sym("q")), ("family8_p=-q", -q.sym("q"))):
        out.append((label, Tensor4(2, fixture(8).r.mat.evaluate({"p": p}, q))))
    out += [("sl%d" % n, sl_n_r(q, n)) for n in (3, 4, 5)]
    return out


def _differential_point(rng, k):
    """A Gaussian rational (re, im): real part 0.3 to 3 and imaginary part
    -1 to 1, or, at every fourth point, a rational point of |q| = 1."""
    if k % 4 == 3:
        t = Fraction(rng.randint(-70, 70), 100)
        return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return Fraction(rng.randint(30, 300), 100), Fraction(rng.randint(-100, 100), 100)


@pytest.mark.parametrize("label,r", [pytest.param(*x, id=x[0]) for x in _differential_inputs()])
def test_float_check_agrees_with_exact_at_complex_points(label, r):
    # the exact check at the Gaussian rational point is the oracle for the
    # float check at the nearest doubles: every verdict, and alpha^2 to 1e-9
    gauss = Field(exact_tag(imaginary=True))
    rng = random.Random(label)
    for k in range(20):
        point = {name: _differential_point(rng, k) for name in r.field.tag.indeterminates}
        exact = full_check(Tensor4(r.n, r.mat.evaluate(
            {name: gauss.from_gauss(*v) for name, v in point.items()}, gauss)))
        approx = full_check(Tensor4(r.n, r.mat.evaluate(
            {name: complex(*map(float, v)) for name, v in point.items()}, C)))
        verdicts = [{name: res.ok for name, res in report.results.items()} for report, _ in (exact, approx)]
        assert verdicts[0] == verdicts[1], (label, point)
        want = exact[1].alpha_sq
        if want is not None:
            want = complex(*map(float, want.as_gauss()))
            assert abs(approx[1].alpha_sq - want) <= 1e-9 * max(1.0, abs(want)), (label, point)


def test_enhancement_not_biinvertible_is_a_value():
    out = enhancement_test(fixture(5).r)
    assert not out.biinvertible and out.alpha_sq is None


# ---------------------------------------------------------------------------
# enhance


def test_enhance_identity_matrix():
    eye = Tensor4.identity(QQ, 2)
    result = enhance(eye)
    p = permutation(QQ, 2)
    assert result.alpha == QQ.one
    assert result.pairs[0].s.eq(p) and is_identity(result.pairs[0].mu)
    quad = result.quadruples[0]
    assert quad.s.eq(p) and is_identity(quad.mu)
    assert quad.alpha == QQ.one and quad.beta == QQ.one


def test_enhance_family7_values():
    fx = fixture(7)
    f = fx.field
    result = enhance(fx.r)
    pr, rp = braid_forms(fx.r)
    pair = result.pairs[0]
    assert pair.provenance == "PR"
    assert pair.s.eq(pr.scale(f.parse("q^-2")))
    assert pair.mu.eq(fx.expected_u.scale(f.parse("q^2")))
    quad = result.quadruples[0]
    assert quad.s.eq(pr)
    assert quad.mu.eq(fx.expected_u)
    assert quad.alpha == f.parse("q^2")
    assert quad.beta == f.parse("q^-2")
    assert result.quadruples[1].s.eq(rp)
    assert result.quadruples[1].mu.eq(fx.expected_v)


def test_enhance_family2_pairs_are_unscaled():
    fx = fixture(2)
    result = enhance(fx.r)
    pr, rp = braid_forms(fx.r)
    assert result.pairs[0].s.eq(pr) and is_identity(result.pairs[0].mu)
    assert result.pairs[1].s.eq(rp) and is_identity(result.pairs[1].mu)


def test_enhance_refuses_non_biinvertible():
    with pytest.raises(NotBiinvertibleError):
        enhance(fixture(5).r)


def test_enhance_refuses_non_scalar_vu():
    with pytest.raises(NotEnhanceableError):
        enhance(fixture(1).r)


def test_enhance_no_monomial_root():
    # scaling a solution by (1 + q) keeps the equation (degree-3
    # homogeneous) but turns alpha^2 into the non-monomial (1+q)^-2
    fx = fixture(2)
    scaled = fx.r.scale(fx.field.parse("1 + q"))
    assert check_qyb(scaled).ok
    with pytest.raises(NoMonomialRootError):
        enhance(scaled)


def enhanceable_inputs():
    return enhanced_points() + [("sl3", sl_n_r(Field(exact_tag("q")), 3))]


def test_enhance_results_pass_the_public_verifiers():
    for label, r in enhanceable_inputs():
        result = enhance(r)
        for pair in result.pairs:
            assert verify_pair(pair.s, pair.mu).ok, label
        for quad in result.quadruples:
            assert verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta).ok, label


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_exact_enhance_runs_the_braid_relation_once(monkeypatch):
    # RP = P (PR) P, so the relation of PR answers for RP as well
    calls = counting(monkeypatch, rmatrix, "_yb3")
    for label, r in enhanceable_inputs():
        calls.clear()
        enhance(r)
        assert len(calls) == 1, label


def test_decisions_multiply_by_no_permutation_matrix(monkeypatch):
    def no_flip(*_):
        raise AssertionError("a permutation matrix was built")

    monkeypatch.setattr(tensors, "permutation", no_flip)
    steps = []
    apply_slots = Mat.apply_slots
    monkeypatch.setattr(Mat, "apply_slots", lambda self, n, s: steps.append(len(s)) or apply_slots(self, n, s))
    r = sl_n_r(Field(exact_tag("q")), 3)
    assert check_qyb(r).ok
    # B23 B12 B23 and B12 B23 B12: three steps a side, no flip step
    assert steps == [3, 3]
    result = enhance(r)
    assert verify_pair(result.pairs[0].s, result.pairs[0].mu).ok


def test_float_enhance_checks_each_quadruple_braid_relation(monkeypatch):
    fx = fixture(7)
    r = Tensor4(2, fx.r.mat.evaluate({"q": complex(1.3, 0.2), "p": complex(0.7, -0.1)}, C))
    calls = counting(monkeypatch, rmatrix, "_yb3")
    result = enhance(r)
    assert len(calls) == 4
    for quad in result.quadruples:
        assert verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta).ok


def test_enhance_forms_two_full_size_inverses(monkeypatch):
    # R's, formed by the biinvertibility check and shared by all four
    # checks, and the second transpose's: two eliminations
    calls = counting(monkeypatch, Mat, "_gauss_jordan")
    r = sl_n_r(Field(exact_tag("q")), 3)
    enhance(r)
    assert sum(1 for (m,) in calls if m.rows == 9) == 2


def test_decisions_build_the_yb_sides_once_and_no_kronecker_product(monkeypatch):
    # check_qyb's sides are yb_sides'; every axiom product behind check,
    # enhance and verify is a kernel chain, mu a step on its own slot, so
    # no embedding and no Tensor4 @ Tensor4 product is formed
    sides = counting(monkeypatch, rmatrix, "yb_sides")
    krons = counting(monkeypatch, Mat, "kron")
    embeds = counting(monkeypatch, tensors, "embed")
    tensor4_products = counting(monkeypatch, Tensor4, "__matmul__")
    r = sl_n_r(Field(exact_tag("q")), 3)
    assert check_qyb(r).ok
    assert len(sides) == 1
    assert full_check(r)[0].ok
    result = enhance(r)
    for pair in result.pairs:
        assert verify_pair(pair.s, pair.mu).ok
    for quad in result.quadruples:
        assert verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta).ok
    assert len(sides) == 2 and krons == []
    assert embeds == [] and tensor4_products == [] and not hasattr(rmatrix, "embed")


def test_shared_inverses_of_the_braid_forms():
    r = sl_n_r(Field(exact_tag("q")), 3)
    pr, rp = braid_forms(r)
    r_inv = r.inverse()
    assert r_inv.permute_axes((0, 1, 3, 2)).eq(pr.inverse())
    assert r_inv.permute_axes((1, 0, 2, 3)).eq(rp.inverse())


def test_enhance_refusal_texts():
    not_scalar = "V*U is not a nonzero scalar multiple of the identity"
    for fid in (1, 3):
        with pytest.raises(NotEnhanceableError) as exc:
            enhance(fixture(fid).r)
        assert str(exc.value) == not_scalar
    with pytest.raises(NotEnhanceableError) as exc:
        enhance(fixture(8).r)
    assert str(exc.value) == (
        "constructed pair (PR) fails verification: YB3: FAIL (witness (0, 3)) braid relation"
        " at (0, 3): p^2*q != q^3; ENH1: pass; ENH3: pass; ENH4: pass; ENH5: pass"
    )


def test_enhance_exact_imaginary_root_through_a_shared_unit():
    # family 7 conjugated by D (x) D with D = diag(1, i): V U = alpha^2 I
    # arrives with a Gaussian unit in both num and den
    fx = fixture(7)
    f = Field(exact_tag(*fx.field.tag.indeterminates, imaginary=True))
    r0 = Mat.from_rows(f, [[f.parse(x) for x in row] for row in fx.r.mat.format_rows()])
    d = embed(Mat.from_rows(f, [[f.one, f.zero], [f.zero, f.parse("i")]]), "both").mat
    r = Tensor4(2, d @ r0 @ d.inverse())
    alpha_sq = enhancement_test(r).alpha_sq
    assert any(c[1] for c in alpha_sq.den.terms.values())
    result = enhance(r)
    assert result.alpha == f.parse("q^-2")
    for pair in result.pairs:
        assert verify_pair(pair.s, pair.mu).ok
    for quad in result.quadruples:
        assert verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta).ok


# ---------------------------------------------------------------------------
# quadruple verifier


def test_quadruple_family7():
    fx = fixture(7)
    f = fx.field
    pr, _ = braid_forms(fx.r)
    report = verify_quadruple(pr, fx.expected_u, f.parse("q^2"), f.parse("q^-2"))
    assert report.ok
    assert set(report.results) == {"YB3", "ENH1", "ENH2", "ENH3"}
    assert report["ENH2"].ok and report["ENH3"].ok


def test_quadruple_flip_square():
    # (P^2, I, 1, n) is a valid quadruple although P is not biinvertible
    for n in (2, 3):
        p = permutation(QQ, n)
        p2 = p @ p
        eye = Mat.identity(QQ, n)
        assert verify_quadruple(p2, eye, QQ.one, QQ.from_int(n)).ok


def test_quadruple_flip_square_wrong_alpha_fails_trace_axiom():
    p = permutation(QQ, 2)
    p2 = p @ p
    eye = Mat.identity(QQ, 2)
    report = verify_quadruple(p2, eye, QQ.from_fraction(Fraction(1, 2)), QQ.from_int(2))
    assert not report.ok
    assert not report.results["ENH2"].ok
    assert report.results["YB3"].ok and report.results["ENH1"].ok
    assert report.results["ENH2"].witness is not None


def test_quadruple_accepts_both_square_roots():
    # when VU = alpha^2 I both sign choices of alpha give valid quadruples
    fx = fixture(7)
    f = fx.field
    pr, _ = braid_forms(fx.r)
    alpha = f.parse("q^-2")
    for root in (alpha, -alpha):
        inv = root.invert()
        assert verify_quadruple(pr, fx.expected_u, inv, root).ok


def test_quadruple_rejects_zero_alpha():
    p = permutation(QQ, 2)
    with pytest.raises(ValueError):
        verify_quadruple(p @ p, Mat.identity(QQ, 2), QQ.zero, QQ.one)


def test_float_quadruple_with_a_tiny_alpha_gets_a_report():
    # a float alpha is zero only at 0.0, not below the tolerance
    p = permutation(C, 2)
    report = verify_quadruple(p @ p, Mat.identity(C, 2), complex(1e-10), C.one)
    assert report.results["YB3"].ok and report.results["ENH1"].ok
    assert not report.results["ENH2"].ok and not report.ok
    with pytest.raises(ValueError, match="alpha and beta must be nonzero"):
        verify_quadruple(p @ p, Mat.identity(C, 2), C.zero, C.one)


def test_quadruple_singular_s_raises():
    with pytest.raises(SingularMatrixError):
        verify_quadruple(
            Tensor4(2, Mat.zeros(QQ, 4, 4)), Mat.identity(QQ, 2), QQ.one, QQ.one
        )


def test_quadruple_singular_mu_skips_slot_normalisation():
    # mu = 0 kills both sides of the trace axiom, so the quadruple on the
    # flip square degenerates but the verifier must not divide by mu
    p = permutation(QQ, 2)
    report = verify_quadruple(p @ p, Mat.zeros(QQ, 2, 2), QQ.one, QQ.one)
    assert "ENH3" not in report.results
    assert report.results["ENH2"].ok  # 0 == 0


# ---------------------------------------------------------------------------
# pair verifier


def test_pair_family9_scaled():
    fx = fixture(9)
    f = fx.field
    pr, _ = braid_forms(fx.r)
    s = pr.scale(f.from_fraction(Fraction(1, 2)))
    mu = fx.expected_u.scale(f.from_int(2))
    report = verify_pair(s, mu)
    assert report.ok
    assert set(report.results) == {"YB3", "ENH1", "ENH3", "ENH4", "ENH5"}
    assert kron_enh5_holds(s, mu)


def test_pair_family4():
    fx = fixture(4)
    pr, rp = braid_forms(fx.r)
    assert verify_pair(pr, fx.expected_u).ok
    assert verify_pair(rp, fx.expected_v).ok


def test_pair_scaled_mu_breaks_trace_axiom():
    fx = fixture(2)
    pr, _ = braid_forms(fx.r)
    report = verify_pair(pr, fx.expected_u.scale(fx.field.from_int(2)))
    assert not report.results["ENH3"].ok
    assert report.results["YB3"].ok


def test_pair_singular_inputs_raise():
    fx = fixture(2)
    pr, _ = braid_forms(fx.r)
    with pytest.raises(SingularMatrixError):
        verify_pair(pr, Mat.zeros(fx.field, 2, 2))


# ---------------------------------------------------------------------------
# structural identities across the catalog


@pytest.mark.parametrize("fid,variant", BIINVERTIBLE)
def test_slot_identities_catalog(fid, variant):
    for name, res in slot_identities(fixture(fid, variant=variant).r).items():
        assert res.ok, name


@pytest.mark.parametrize("fid,variant", BIINVERTIBLE)
def test_contraction_identity_catalog(fid, variant):
    assert contraction_identity(fixture(fid, variant=variant).r).ok


def test_contraction_identity_random_float():
    rng = random.Random(30)
    found = 0
    while found < 20:
        t = rand_tensor4(rng, C, 2)
        try:
            res = contraction_identity(t)
        except (NotBiinvertibleError, NotInvertibleError):
            continue
        found += 1
        assert res.ok and res.residual <= 1e-9


def test_contraction_identity_sl3_exact_and_perturbed(monkeypatch):
    field = Field(exact_tag("q"))
    r = sl_n_r(field, 3)
    assert contraction_identity(r).ok
    rt = rmatrix.second_inverse(r)
    bump = Mat.build(field, 9, 9, lambda i, j: field.one if (i, j) == (5, 7) else field.zero)
    bad_rt = Tensor4(3, rt.mat + bump)
    monkeypatch.setattr(rmatrix, "second_inverse", lambda _: bad_rt)
    eye = Mat.identity(field, 9)
    want = rmatrix._both(
        rmatrix._compare(entrywise_contraction(bad_rt, r), eye, "R~ then R"),
        rmatrix._compare(entrywise_contraction(r, bad_rt), eye, "R then R~"),
    )
    got = contraction_identity(r)
    assert not got.ok
    assert (got.witness, got.detail) == (want.witness, want.detail)


@pytest.mark.parametrize("fid,variant", BIINVERTIBLE)
def test_trace_identities_catalog(fid, variant):
    fx = fixture(fid, variant=variant)
    for name, res in trace_identities(fx.r).items():
        assert res.ok, name


@pytest.mark.parametrize("fid,variant", BIINVERTIBLE)
def test_twist_shadow_is_vu(fid, variant):
    fx = fixture(fid, variant=variant)
    u, v = compute_uv(fx.r)
    assert twist_shadow(fx.r).eq(v @ u)


def test_necessity_catalog_pairs():
    # wherever the pair axioms hold for (PR-shaped S, mu), VU is scalar
    for pair, fid in enhanced_pairs():
        assert verify_pair(pair.s, pair.mu).ok, "family %s" % fid


def test_necessity_contrapositive_on_unscaled_families():
    # when VU is not scalar, (PR, U) must fail the pair axioms
    for fid in (1, 3):
        fx = fixture(fid)
        assert enhancement_test(fx.r).alpha_sq is None
        pr, _ = braid_forms(fx.r)
        u, _ = compute_uv(fx.r)
        report = verify_pair(pr, u)
        assert not report.ok
        assert not report.results["ENH3"].ok


def test_family7_trace_identity_brute_force():
    # independent oracle: contract (PR (I (x) U))^{ad}_{cd} by explicit sums
    fx = fixture(7)
    f = fx.field
    pr, _ = braid_forms(fx.r)
    u, _ = compute_uv(fx.r)
    n = 2
    for a in range(n):
        for c in range(n):
            acc = f.zero
            for d in range(n):
                for x in range(n):
                    for y in range(n):
                        iu = u.at(y, d) if x == c else f.zero
                        acc = acc + pr.entry(a, d, x, y) * iu
            assert acc == (f.one if a == c else f.zero)


def test_full_check_report_keys():
    from ybtk.rmatrix import full_check

    report, outcome = full_check(fixture(7).r)
    assert set(report.results) == {"YB", "BIINV", "VU_SCALAR"}
    assert report.ok and outcome.alpha is not None
    report5, _ = full_check(fixture(5).r)
    assert not report5.results["BIINV"].ok and not report5.ok
    report1, _ = full_check(fixture(1).r)
    assert report1.results["BIINV"].ok and not report1.results["VU_SCALAR"].ok


def test_full_check_keeps_only_the_failing_scalar_text(monkeypatch):
    from ybtk.rmatrix import full_check

    report1, _ = full_check(fixture(1).r)
    assert report1["VU_SCALAR"].detail == "V U is not a nonzero scalar multiple of the identity"
    assert "VU_SCALAR: FAIL V U is not a nonzero scalar multiple of the identity" in report1.lines()

    # a passing check formats no scalar: the CLI prints alpha from the outcome
    def no_format(*_):
        raise AssertionError("full_check formatted a scalar")

    monkeypatch.setattr(Field, "format", no_format)
    report7, outcome7 = full_check(fixture(7).r)
    assert report7.ok and report7["VU_SCALAR"].detail == ""
    assert outcome7.alpha is not None


def test_uniqueness_family2_diagonal_grid():
    fx = fixture(2)
    f = fx.field
    pr, _ = braid_forms(fx.r)
    values = ["1", "-1", "2", "-2", "1/2", "q"]
    passing = []
    for a in values:
        for b in values:
            mu = Mat.from_rows(f, [[f.parse(a), f.zero], [f.zero, f.parse(b)]])
            if verify_pair(pr, mu).ok:
                passing.append((a, b))
    assert passing == [("1", "1")]


def test_structural_identities_split_at_n3():
    # contraction, the positive-sign trace identities and the twist
    # shadow follow from biinvertibility alone; the slot and
    # inverse-sign trace identities also need the equation itself
    rng = random.Random(88)

    def random_biinvertible(n):
        while True:
            t = rand_tensor4(rng, C, n)
            try:
                compute_uv(t)
            except Exception:
                continue
            return t

    generic = random_biinvertible(3)
    assert not check_qyb(generic).ok
    assert contraction_identity(generic).ok
    traces = trace_identities(generic)
    assert traces["Tr2(PR U2) = I"].ok
    assert traces["Tr2(RP V2) = I"].ok
    u, v = compute_uv(generic)
    assert twist_shadow(generic).eq(v @ u)

    # any invertible diagonal two-slot operator solves the equation
    diag = Tensor4(
        3,
        Mat.build(
            C, 9, 9,
            lambda i, j: complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            if i == j else C.zero,
        ),
    )
    assert check_qyb(diag).ok
    for name, res in slot_identities(diag).items():
        assert res.ok, name
    for name, res in trace_identities(diag).items():
        assert res.ok, name
    u, v = compute_uv(diag)
    assert twist_shadow(diag).eq(v @ u)


def test_enh4_enh5_agree_on_random_float_inputs():
    rng = random.Random(31)
    for _ in range(20):
        s = Tensor4(2, rand_invertible(rng, C, 4))
        mu = rand_invertible(rng, C, 2)
        report = verify_pair(s, mu)
        assert report["ENH4"].ok == report["ENH5"].ok == kron_enh5_holds(s, mu)


def test_enh4_enh5_agree_on_catalog_pairs():
    for pair, fid in enhanced_pairs():
        report = verify_pair(pair.s, pair.mu)
        assert report.results["ENH4"].ok and report.results["ENH5"].ok
        assert kron_enh5_holds(pair.s, pair.mu), "family %s" % fid


# ---------------------------------------------------------------------------
# float backend end to end


def test_enhancement_float_family7():
    fx = fixture(7)
    point = {"q": complex(1.3, 0.2), "p": complex(0.7, -0.1)}
    r = Tensor4(2, fx.r.mat.evaluate(point, C))
    assert check_qyb(r).ok
    out = enhancement_test(r)
    expected_alpha = 1 / point["q"] ** 2
    assert out.alpha is not None
    assert abs(out.alpha - expected_alpha) < 1e-9 * abs(expected_alpha)
    result = enhance(r)
    for pair in result.pairs:
        assert verify_pair(pair.s, pair.mu).ok
