"""The exact fast paths against the dense references in helpers.py.

The sparse ``Mat.compare`` (behind the Yang-Baxter comparisons of
``check_qyb`` and of the braid relation), the shortcuts of
``RatFun.__eq__`` and the sparse Gauss-Jordan of ``Mat.inverse`` must
give what the dense code gives: the same verdicts, witnesses, details
and printed entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybtk.catalog import families, fixture
from ybtk.errors import SingularMatrixError
from ybtk.rmatrix import check_qyb, enhance, verify_pair, verify_quadruple
from ybtk.scalars import Field, RatFun, _Poly, exact_tag
from ybtk.tensors import Mat, yb_sides

from helpers import (
    cross_multiply_eq,
    dense_inverse,
    entrywise_compare,
    perturbed,
    sl_n_r,
    use_dense_references,
)

Q = Field(exact_tag("q"))

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
        left, right = yb_sides(r)
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
        return [(r.results, r.agreements, r.lines()) for r in out]

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
        for method in (m.inverse, m.check_invertible):
            with pytest.raises(SingularMatrixError) as info:
                method()
            assert str(info.value) == str(exc)
        return
    m.check_invertible()
    got = m.inverse()
    assert got.eq(want)
    assert got.format_rows() == want.format_rows()
