"""The exact fast paths against the dense references in helpers.py.

The sparse ``Mat.compare`` (behind the Yang-Baxter comparisons of
``check_qyb`` and of the braid relation), the shortcuts of
``RatFun.__eq__`` and the sparse Gauss-Jordan of ``Mat.inverse`` must
give what the dense code gives: the same verdicts, witnesses, details
and printed entries.  So must the decision shortcuts: ``check_qyb`` on
the braid form, the flip as an index map, ENH5 read off ENH4's
products, and the one-pass reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybtk import rmatrix
from ybtk.catalog import families, fixture
from ybtk.errors import SingularMatrixError, ToolkitError
from ybtk.rmatrix import braid_forms, check_qyb, enhance, verify_pair, verify_quadruple
from ybtk.scalars import Field, RatFun, _Poly, _reduce, exact_tag, float_tag
from ybtk.tensors import Mat, Tensor4

from helpers import (
    cross_multiply_eq,
    dense_inverse,
    entrywise_compare,
    flip_braid_forms,
    flip_check_qyb,
    flip_enh4_factors,
    flip_enh5_factors,
    flip_yb_sides,
    general_reduce,
    kron_enh4_enh5_products,
    kron_mumu_traces,
    perturbed,
    sl_n_r,
    use_dense_references,
)

Q = Field(exact_tag("q"))
C = Field(float_tag())

CASES = {
    "family7": lambda: fixture(7).r,
    "family9": lambda: fixture(9).r,
    "sl3": lambda: sl_n_r(Q, 3),
}


# ---------------------------------------------------------------------------
# the Yang-Baxter comparisons


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_qyb_matches_dense_sides(name, monkeypatch):
    rs = [CASES[name](), perturbed(CASES[name]())]
    fast = [check_qyb(r) for r in rs]
    assert fast[0].ok and not fast[1].ok
    for r, got in zip(rs, fast):
        left, right = flip_yb_sides(r)
        ok, _, witness = left.compare(right)
        assert got.ok == ok
        if not ok:
            n = r.n
            (row, col) = witness
            assert got.witness == (row // n ** 2, row // n % n, row % n,
                                   col // n ** 2, col // n % n, col % n)
    use_dense_references(monkeypatch)
    assert [check_qyb(r) for r in rs] == fast


@pytest.mark.parametrize("name", sorted(CASES))
def test_verifiers_match_dense_compare(name, monkeypatch):
    result = enhance(CASES[name]())
    pair, quad = result.pairs[0], result.quadruples[1]

    def reports():
        out = []
        for s in (pair.s, perturbed(pair.s)):
            out.append(verify_pair(s, pair.mu))
        for s in (quad.s, perturbed(quad.s)):
            out.append(verify_quadruple(s, quad.mu, quad.alpha, quad.beta))
        return [(r.results, r.lines()) for r in out]

    fast = reports()
    assert fast[0][0]["YB3"].ok and not fast[1][0]["YB3"].ok
    assert fast[2][0]["YB3"].ok and not fast[3][0]["YB3"].ok
    assert "braid relation at" in fast[1][0]["YB3"].detail
    use_dense_references(monkeypatch)
    assert reports() == fast


ENTRIES = ("1", "-1", "2", "1/2", "q", "q^-1", "q - q^-1")


@st.composite
def sparse_steps(draw, n, m):
    """1 to 4 steps, each an identity or zero operator with a few entries set."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(1, min(2, m)))
        k = n ** a
        base = Mat.identity(Q, k) if draw(st.booleans()) else Mat.zeros(Q, k, k)
        rows = base.tolist()
        for cell, text in draw(st.lists(st.tuples(st.integers(0, k * k - 1), st.sampled_from(ENTRIES)),
                                        max_size=k + 2)):
            rows[cell // k][cell % k] = Q.parse(text)
        steps.append((Mat.from_rows(Q, rows), draw(st.integers(0, m - a))))
    return steps


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compare_agrees_with_entrywise_compare(data):
    n = data.draw(st.sampled_from([2, 3]))
    m = 3 if n == 2 else 2
    left = data.draw(sparse_steps(n, m))
    how = data.draw(st.sampled_from(["same", "rescaled", "changed", "fresh"]))
    if how == "fresh":
        right = data.draw(sparse_steps(n, m))
    else:
        right = list(left)
        i = data.draw(st.integers(0, len(right) - 1))
        op, first = right[i]
        if how == "rescaled" and len(right) > 1:
            # the same product in a different representation
            j = (i + 1) % len(right)
            right[i] = (op.scale(Q.parse("q + 1")), first)
            right[j] = (right[j][0].scale(Q.parse("q + 1").invert()), right[j][1])
        elif how == "changed":
            rows = op.tolist()
            cell = data.draw(st.integers(0, op.rows * op.cols - 1))
            rows[cell // op.cols][cell % op.cols] += Q.parse(data.draw(st.sampled_from(ENTRIES)))
            right[i] = (Mat.from_rows(Q, rows), first)
    eye = Mat.identity(Q, n ** m)
    lhs, rhs = eye.apply_slots(n, left), eye.apply_slots(n, right)
    assert lhs.compare(rhs) == entrywise_compare(lhs, rhs)


# ---------------------------------------------------------------------------
# RatFun.__eq__


def _no_cross_multiplication(monkeypatch):
    def fail(*_):
        raise AssertionError("== cross-multiplied")

    monkeypatch.setattr(_Poly, "mul", fail)


def test_eq_zero_against_nonzero_and_same_object(monkeypatch):
    q = Q.sym("q")
    x = q + Q.from_int(1)
    # a zero over a nonconstant denominator is still zero
    zero_over_q = RatFun(q.syms, _Poly.zero(1), q.num, reduce=False)
    _no_cross_multiplication(monkeypatch)
    assert not Q.zero == x and not x == Q.zero
    assert Q.zero == zero_over_q and zero_over_q == Q.zero
    assert x == x and Q.zero == Q.zero


def test_eq_equal_values_in_different_representations():
    q = Q.sym("q")
    one = Q.from_int(1)
    a = (q * q - one) * (q - one).invert()  # (q^2 - 1)/(q - 1), no gcd is taken
    b = q + one
    assert a.den.terms != b.den.terms
    assert a == b and b == a
    assert not a == q and not q == a
    values = [Q.zero, a, b, q, one, -one, q.invert(), Q.parse("2*q - q")]
    for x in values:
        for y in values:
            assert (x == y) == cross_multiply_eq(x, y)


# ---------------------------------------------------------------------------
# sparse Gauss-Jordan


def _inverse_inputs():
    for fam in families():
        for variant in fam.variants or (None,):
            r = fixture(fam.id, variant=variant).r
            name = "family%d%s" % (fam.id, variant or "")
            yield pytest.param(r.mat, id=name)
            yield pytest.param(r.t2().mat, id=name + "-t2")
    for n in (3, 4):
        yield pytest.param(sl_n_r(Q, n).mat, id="sl%d" % n)
    zero, one, q = Q.zero, Q.from_int(1), Q.sym("q")
    # a zero first pivot: rows 0 and 1 swap
    yield pytest.param(Mat.from_rows(Q, [[zero, q, one], [one, zero, q], [q, one, zero]]), id="swap")
    # the third column is zero below the pivots
    yield pytest.param(Mat.from_rows(Q, [[one, q, zero], [q, one, zero], [one, one, zero]]), id="singular")


@pytest.mark.parametrize("m", list(_inverse_inputs()))
def test_sparse_gauss_jordan_matches_dense(m):
    try:
        want = dense_inverse(m)
    except SingularMatrixError as exc:
        # the same zero pivot column on every call
        for _ in range(2):
            with pytest.raises(SingularMatrixError) as info:
                m.inverse()
            assert str(info.value) == str(exc)
        return
    got = m.inverse()
    assert got.eq(want)
    assert got.format_rows() == want.format_rows()


# ---------------------------------------------------------------------------
# decision shortcuts: check_qyb on the braid form, the flip as an index map


def _catalog_and_sl(ns=(3,)):
    """Every catalog fixture, unbound (families 1, 3 and 8 fail the equation), and exact U_q(sl_n)."""
    for fam in families():
        for variant in fam.variants or (None,):
            yield "family%d%s" % (fam.id, variant or ""), fixture(fam.id, variant=variant).r
    for n in ns:
        yield "sl%d" % n, sl_n_r(Q, n)


def test_check_qyb_on_the_braid_form_matches_the_flip_sides():
    outcomes = set()
    for name, r in _catalog_and_sl():
        for label, t in ((name, r), (name + "-changed", perturbed(r))):
            got = check_qyb(t)
            assert got == flip_check_qyb(t), label
            outcomes.add(got.ok)
    assert outcomes == {True, False}


@st.composite
def _changed_matrices(draw):
    """A catalog solution or a random sparse exact matrix, with one entry changed."""
    n = draw(st.sampled_from([2, 3]))
    if n == 2 and draw(st.booleans()):
        r = fixture(draw(st.sampled_from([2, 4, 7, 9]))).r
        field, rows = r.field, r.mat.tolist()
    elif draw(st.booleans()):
        field, rows = Q, sl_n_r(Q, n).mat.tolist()
    else:
        field = Q
        cells = st.tuples(st.integers(0, n ** 4 - 1), st.sampled_from(ENTRIES))
        rows = Mat.zeros(Q, n * n, n * n).tolist()
        for cell, text in draw(st.lists(cells, max_size=2 * n * n)):
            rows[cell // (n * n)][cell % (n * n)] = Q.parse(text)
    i, j = divmod(draw(st.integers(0, n ** 4 - 1)), n * n)
    texts = ENTRIES if "q" in field.tag.indeterminates else ("1", "-1", "2", "1/2")
    rows[i][j] = rows[i][j] + field.parse(draw(st.sampled_from(texts)))
    return Tensor4(n, Mat.from_rows(field, rows))


@settings(max_examples=60, deadline=None)
@given(_changed_matrices())
def test_check_qyb_matches_the_flip_sides_on_changed_matrices(r):
    assert check_qyb(r) == flip_check_qyb(r)


def _float_copy(r):
    point = {name: complex(1.3 - 0.4 * k, 0.2 + 0.1 * k)
             for k, name in enumerate(r.field.tag.indeterminates)}
    return Tensor4(r.n, r.mat.evaluate(point, C))


def _same_operands(got, want, label):
    for a, b in zip(got, want):
        assert a.mat.tolist() == b.mat.tolist(), label
        assert a.mat.format_rows() == b.mat.format_rows(), label


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_index_map_operands_equal_the_permutation_products(backend):
    for name, r in _catalog_and_sl((3, 4)):
        if backend == "float":
            r = _float_copy(r)
        pr, rp = braid_forms(r)
        _same_operands((pr, rp), flip_braid_forms(r), name)
        for first, other in ((pr, r), (r, rp)):
            pf, tp = rmatrix._enh4_factors(first, other)
            _same_operands((pf, tp), flip_enh4_factors(first, other), name)
            # the ENH5 factors on (other, first) are these, transposed and swapped
            transposed = [Tensor4(r.n, x.mat.transpose()) for x in (tp, pf)]
            _same_operands(transposed, flip_enh5_factors(other, first), name)


def _enhanced_and_changed(cases, kind="pairs"):
    """Each enhanced pair (or quadruple) of the ``(name, R)`` cases, and the
    object with S changed."""
    for name, r in cases:
        try:
            enhanced = getattr(enhance(r), kind)
        except ToolkitError:
            continue
        for x in enhanced:
            label = "%s %s" % (name, x.provenance)
            yield label, x.s, x.mu
            yield label + "-changed", perturbed(x.s), x.mu


def test_transposed_enh4_products_equal_the_enh5_chain():
    failing = 0
    for label, s, mu in _enhanced_and_changed(_catalog_and_sl()):
        enh4, enh5 = rmatrix._enh4_enh5_products(s, mu, s.inverse())
        _, want = kron_enh4_enh5_products(s, mu, s.inverse())
        for got, ref in zip(enh5, want):
            assert all(x == y for a, b in zip(got.tolist(), ref.tolist()) for x, y in zip(a, b)), label
        failing += any(not x.is_identity() for x in enh4)
    assert failing  # the changed pairs fail ENH4, so not every product is I


@pytest.mark.parametrize("q", [0.5, 2, 7.5])
def test_float_enh5_read_off_enh4_matches_the_enh5_chain(q):
    for label, s, mu in _enhanced_and_changed(("sl%d" % n, sl_n_r(Q, n)) for n in (3, 4, 5)):
        s = Tensor4(s.n, s.mat.evaluate({"q": q}, C))
        mu = mu.evaluate({"q": q}, C)
        eye = Mat.identity(C, s.n * s.n)
        _, enh5 = rmatrix._enh4_enh5_products(s, mu, s.inverse())
        _, want = kron_enh4_enh5_products(s, mu, s.inverse())
        for got, ref in zip(enh5, want):
            (ok, residual, _), (ref_ok, ref_residual, _) = got.compare(eye), ref.compare(eye)
            assert ok == ref_ok and abs(residual - ref_residual) <= 1e-12, label


# ENH2 read off ENH3's traces: Tr2(S^{±1} (mu (x) mu)) = T± mu


def test_enh2_read_off_the_second_traces_equals_the_kronecker_traces():
    moved = 0
    for label, s, mu in _enhanced_and_changed(_catalog_and_sl(), "quadruples"):
        got = [t @ mu for t in rmatrix._second_traces(s, mu, s.inverse())]
        want = kron_mumu_traces(s, mu)
        for a, b in zip(got, want):
            assert all(x == y for ra, rb in zip(a.tolist(), b.tolist()) for x, y in zip(ra, rb)), label
        if label.endswith("-changed"):
            moved += any(not a.eq(b) for a, b in zip(got, unchanged))
        unchanged = got
    assert moved  # changing S moves the traces, so the inputs are not all alike


@pytest.mark.parametrize("q", [0.5, 2, 7.5])
def test_float_enh2_read_off_the_second_traces_matches_the_kronecker_traces(q):
    cases = (("sl%d" % n, sl_n_r(Q, n)) for n in (3, 4, 5))
    for label, s, mu in _enhanced_and_changed(cases, "quadruples"):
        s = Tensor4(s.n, s.mat.evaluate({"q": q}, C))
        mu = mu.evaluate({"q": q}, C)
        got = [t @ mu for t in rmatrix._second_traces(s, mu, s.inverse())]
        for a, b in zip(got, kron_mumu_traces(s, mu)):
            a, b = np.array(a.tolist()), np.array(b.tolist())
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b))), label


# ---------------------------------------------------------------------------
# one-pass reduction


_coeffs = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any)


@st.composite
def _quotients(draw):
    """(num, den) as a product or sum hands them to ``_reduce``: den of 1 to 4 terms."""
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nv)
    den_terms = draw(st.dictionaries(exps, _coeffs, min_size=1, max_size=4))
    # a leading den coefficient that is real, negative, imaginary or negative imaginary
    dr, di = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 2), (0, -3)]))
    den_terms[max(den_terms)] = (dr * draw(st.integers(1, 3)), di)
    k = draw(st.integers(1, 6))
    # a common content k, sometimes shared by num only
    num_k = k if draw(st.booleans()) else 1
    den_k = draw(st.sampled_from([1, k]))
    den = _Poly(nv, {m: (re * den_k, im * den_k) for m, (re, im) in den_terms.items()})
    shape = draw(st.sampled_from(["any", "as many terms as den", "a monomial times den"]))
    if shape == "a monomial times den":
        num = den.mul(_Poly(nv, {draw(exps): draw(_coeffs)}))
    else:
        size = len(den_terms) if shape == "as many terms as den" else draw(st.integers(0, 4))
        num = _Poly(nv, draw(st.dictionaries(exps, _coeffs, min_size=size, max_size=size)))
    num = _Poly(nv, {m: (re * num_k, im * num_k) for m, (re, im) in num.terms.items()})
    return num, den


@settings(max_examples=400, deadline=None)
@given(_quotients())
def test_reduction_matches_the_general_steps_for_dens_of_1_to_4_terms(pair):
    num, den = pair
    got, want = _reduce(num, den), general_reduce(num, den)
    assert got[0].terms == want[0].terms
    assert got[1].terms == want[1].terms


def test_one_term_reduction_cases():
    cases = [
        (_Poly(1, {}), _Poly(1, {(2,): (-3, 0)})),                          # zero numerator
        (_Poly(1, {(3,): (2, 4), (5,): (6, 0)}), _Poly(1, {(2,): (-2, 0)})),  # shift 2, content 2, sign
        (_Poly(2, {(0, 1): (1, 0)}), _Poly(2, {(0, 0): (0, -1)})),          # negative imaginary lead
        (_Poly(2, {(1, 2): (3, 3)}), _Poly(2, {(2, 1): (0, 3)})),           # shift (1, 1), content 3
        (_Poly(3, {(0, 0, 0): (1, 1)}), _Poly(3, {(0, 0, 0): (1, 0)})),     # nothing to do
    ]
    for num, den in cases:
        got, want = _reduce(num, den), general_reduce(num, den)
        assert (got[0].terms, got[1].terms) == (want[0].terms, want[1].terms)
