"""Index calculus: permutation, transposes, partial trace, lifts, inversion."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ybtk import tensors
from ybtk.catalog import families, fixture
from ybtk.errors import SingularMatrixError
from ybtk.invariants import InvariantInput
from ybtk.rmatrix import enhance
from ybtk.scalars import Field, exact_tag, float_tag
from ybtk.tensors import Mat, Tensor4, embed, permutation, yb_sides

from helpers import (
    dense_inverse,
    dense_matmul,
    entrywise_evaluate,
    is_identity,
    kron_piece,
    rand_invertible,
    rand_mat,
    rand_tensor4,
    sl_n_r,
)

QQ = Field(exact_tag())
Q = Field(exact_tag("q"))
PQS = Field(exact_tag("p", "q", "s"))
C = Field(float_tag())


def tensor_from_rows(field, n, rows):
    def conv(x):
        if isinstance(x, str):
            return field.parse(x)
        if isinstance(x, int):
            return field.from_int(x)
        return x

    return Tensor4(n, Mat.from_rows(field, [[conv(x) for x in row] for row in rows]))


# the diagonal one-parameter-per-slot-pair matrix: diag(1, p, s, q)
def diag_family(field):
    z = field.zero
    return tensor_from_rows(
        field,
        2,
        [
            [field.one, z, z, z],
            [z, field.sym("p"), z, z],
            [z, z, field.sym("s"), z],
            [z, z, z, field.sym("q")],
        ],
    )


# ---------------------------------------------------------------------------
# permutation


def test_permutation_n2_matrix():
    p = permutation(QQ, 2)
    expected = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert p.mat.eq(Mat.from_rows(QQ, [[QQ.from_int(x) for x in row] for row in expected]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_permutation_squares_to_identity(n):
    p = permutation(QQ, n)
    assert is_identity((p @ p).mat)
    if n == 1:
        assert is_identity(p.mat)


def test_permutation_flips_tensors():
    rng = random.Random(1)
    n = 2
    p = permutation(QQ, n)
    t = rand_tensor4(rng, QQ, n)
    flipped = p @ t @ p
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    assert flipped.entry(a, b, c, d) == t.entry(b, a, d, c)


# ---------------------------------------------------------------------------
# transposes


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["t1", "t2"])
def test_transpose_involution(n, kind):
    rng = random.Random(10 * n)
    t = rand_tensor4(rng, QQ, n)
    assert getattr(getattr(t, kind)(), kind)().eq(t)


def test_transpose_index_laws():
    rng = random.Random(7)
    t = rand_tensor4(rng, QQ, 2)
    t1, t2 = t.t1(), t.t2()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert t1.entry(a, b, c, d) == t.entry(c, b, a, d)
                    assert t2.entry(a, b, c, d) == t.entry(a, d, c, b)


def test_t2_fixes_diagonal_family():
    r = diag_family(PQS)
    assert r.t2().eq(r)


def test_t2_moves_corner():
    # top-right corner 1: the second transpose puts it at row 12, column 21
    field = QQ
    rows = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    r = tensor_from_rows(field, 2, rows)
    # 0-based: R^{11}_{22} is entry(0,0,1,1); (R^{t2})^{12}_{21} is entry(0,1,1,0)
    assert r.t2().entry(0, 1, 1, 0) == r.entry(0, 0, 1, 1) == field.one


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_identity_and_flip():
    n = 3
    eye = Tensor4.identity(QQ, n)
    assert eye.partial_trace2().eq(Mat.identity(QQ, n).scale(QQ.from_int(n)))
    assert permutation(QQ, n).partial_trace2().eq(Mat.identity(QQ, n))


def test_partial_trace_of_embeddings():
    rng = random.Random(3)
    mu = rand_mat(rng, QQ, 2, 2)
    n = 2
    assert embed(mu, "slot1").partial_trace2().eq(mu.scale(QQ.from_int(n)))
    assert embed(mu, "slot2").partial_trace2().eq(
        Mat.identity(QQ, n).scale(mu.trace())
    )


def test_partial_trace_brute_force_agreement():
    rng = random.Random(4)
    t = rand_tensor4(rng, QQ, 3)
    tr = t.partial_trace2()
    for a in range(3):
        for c in range(3):
            acc = QQ.zero
            for d in range(3):
                acc = acc + t.entry(a, d, c, d)
            assert tr.at(a, c) == acc


@pytest.mark.parametrize("field", [Q, C], ids=["exact", "float"])
def test_reshape_reads_the_entries_row_major(field):
    m = Tensor4.from_entry_fn(field, 2, lambda a, b, c, d: field.from_int(8 * a + 4 * b + 2 * c + d)).mat
    flat = [x for row in m.tolist() for x in row]
    for rows, cols in ((16, 1), (1, 16), (8, 2), (2, 8)):
        got = m.reshape(rows, cols)
        assert (got.rows, got.cols) == (rows, cols)
        assert [x for row in got.tolist() for x in row] == flat
    with pytest.raises(ValueError):
        m.reshape(3, 5)


# ---------------------------------------------------------------------------
# embeddings


def test_embed_identity_both():
    eye = Mat.identity(QQ, 2)
    assert is_identity(embed(eye, "both").mat)


def test_embed_slot2_diag():
    mu = Mat.from_rows(Q, [[Q.one, Q.zero], [Q.zero, Q.parse("q^-1")]])
    e = embed(mu, "slot2")
    expected = [["1", "0", "0", "0"], ["0", "q^-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "q^-1"]]
    assert e.mat.eq(Mat.from_rows(Q, [[Q.parse(x) for x in row] for row in expected]))


def test_embed_products_and_commutation():
    rng = random.Random(5)
    mu = rand_mat(rng, QQ, 2, 2)
    nu = rand_mat(rng, QQ, 2, 2)
    both = embed(mu, "both")
    assert both.mat.eq((embed(mu, "slot1") @ embed(mu, "slot2")).mat)
    ab = embed(mu, "slot1") @ embed(nu, "slot2")
    ba = embed(nu, "slot2") @ embed(mu, "slot1")
    assert ab.eq(ba)


# ---------------------------------------------------------------------------
# inversion


def test_invert_identity():
    assert is_identity(Mat.identity(QQ, 4).inverse())


def test_invert_symbolic_diagonal():
    r = diag_family(PQS)
    inv = r.inverse()
    expected = tensor_from_rows(
        PQS,
        2,
        [
            ["1", "0", "0", "0"],
            ["0", "p^-1", "0", "0"],
            ["0", "0", "s^-1", "0"],
            ["0", "0", "0", "q^-1"],
        ],
    )
    assert inv.eq(expected)
    assert is_identity((r @ inv).mat)


def test_invert_exact_random_roundtrip():
    rng = random.Random(11)
    for _ in range(5):
        m = rand_invertible(rng, QQ, 3)
        inv = m.inverse()
        assert is_identity(m @ inv)
        assert is_identity(inv @ m)


def test_invert_float_random_roundtrip():
    rng = random.Random(12)
    for _ in range(5):
        m = rand_invertible(rng, C, 4)
        inv = m.inverse()
        assert is_identity(m @ inv)


def test_invert_singular_raises():
    # the t2-transpose of the non-biinvertible catalog matrix is singular
    rows = [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]]
    r = tensor_from_rows(QQ, 2, rows)
    with pytest.raises(SingularMatrixError):
        r.t2().inverse()
    # but the matrix itself is invertible
    assert is_identity((r @ r.inverse()).mat)


def test_invert_zero_pivot_row_swap():
    m = Mat.from_rows(QQ, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]])
    assert is_identity(m @ m.inverse())


def test_kept_inverse_matches_the_dense_reference_on_every_call():
    matrices = [fixture(7).r.mat, fixture(9).r.mat, sl_n_r(Q, 3).mat,
                rand_invertible(random.Random(13), QQ, 4)]
    for m in matrices:
        want = dense_inverse(m).format_rows()
        first = m.inverse()
        assert first.format_rows() == want
        second = m.inverse()
        assert second is first and second.format_rows() == want
    m = rand_invertible(random.Random(14), C, 4)
    first = m.inverse()
    assert m.inverse() is first and is_identity(m @ first)


def test_singular_matrix_raises_on_every_call():
    rows = [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]]
    for field in (QQ, C):
        singular = tensor_from_rows(field, 2, rows).t2().mat
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                singular.inverse()


# ---------------------------------------------------------------------------
# Yang-Baxter lifts


def brute_force_yb2_sides(r: Tensor4, a, b, c, u, v, w):
    """Entrywise sums of both sides of the component Yang-Baxter equation."""
    n = r.n
    f = r.field
    lhs = f.zero
    for k1 in range(n):
        for k2 in range(n):
            for k3 in range(n):
                lhs = lhs + r.entry(a, b, k1, k2) * r.entry(k1, c, u, k3) * r.entry(
                    k2, k3, v, w
                )
    rhs = f.zero
    for l1 in range(n):
        for l2 in range(n):
            for l3 in range(n):
                rhs = rhs + r.entry(b, c, l1, l2) * r.entry(a, l2, l3, w) * r.entry(
                    l3, l1, u, v
                )
    return lhs, rhs


def test_yb_sides_identity():
    eye = Tensor4.identity(QQ, 2)
    left, right = yb_sides(eye)
    assert is_identity(left) and is_identity(right)


def test_yb_sides_match_componentwise_sums():
    rng = random.Random(13)
    n = 2
    for t in [rand_tensor4(rng, QQ, n), rand_tensor4(rng, QQ, n, density=0.5)]:
        left, right = yb_sides(t)
        for a in range(n):
            for b in range(n):
                for cc in range(n):
                    for u in range(n):
                        for v in range(n):
                            for w in range(n):
                                lhs, rhs = brute_force_yb2_sides(t, a, b, cc, u, v, w)
                                row = (a * n + b) * n + cc
                                col = (u * n + v) * n + w
                                assert left.at(row, col) == lhs
                                assert right.at(row, col) == rhs


def test_yb_sides_match_componentwise_sums_catalog():
    from ybtk.catalog import fixture

    t = fixture(2).r
    n = 2
    left, right = yb_sides(t)
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                for u in range(n):
                    for v in range(n):
                        for w in range(n):
                            lhs, rhs = brute_force_yb2_sides(t, a, b, cc, u, v, w)
                            row = (a * n + b) * n + cc
                            col = (u * n + v) * n + w
                            assert left.at(row, col) == lhs
                            assert right.at(row, col) == rhs
                            assert lhs == rhs  # it solves the equation


def test_yb_sides_flip_solution():
    # the flip P solves the equation; P with a perturbed entry does not
    p = permutation(QQ, 2)
    left, right = yb_sides(p)
    assert left.eq(right)
    bumped = Tensor4(
        2,
        Mat.build(
            QQ,
            4,
            4,
            lambda i, j: p.mat.at(i, j) + (QQ.one if (i, j) == (0, 0) else QQ.zero),
        ),
    )
    left, right = yb_sides(bumped)
    assert not left.eq(right)


# ---------------------------------------------------------------------------
# exact sparse storage


def assert_sparse(m: Mat):
    """No zero entry and no empty row is stored."""
    assert all(row and not any(x.is_zero for x in row.values()) for row in m._a.values())


def test_exact_mat_stores_no_zero():
    z, one, q = Q.zero, Q.one, Q.sym("q")
    a = Mat.from_rows(Q, [[q, z, one], [z, z, z], [one, q, z]])
    assert_sparse(a)
    assert sorted(a._a) == [0, 2]
    assert a.at(1, 1) is z and a.at(0, 1) is z
    assert a.tolist()[1] == [z, z, z] and all(x is z for x in a.tolist()[1])
    assert Mat.from_rows(Q, a.tolist())._a == a._a
    for m in (a - a, a + (-a), a @ Mat.zeros(Q, 3, 3), a.scale(z), Mat.build(Q, 2, 2, lambda i, j: z)):
        assert m._a == {}
    # [[1, 1], [1, -1]] @ [[q, q], [q, -q]]: two entries cancel
    prod = Mat.from_rows(Q, [[one, one], [one, -one]]) @ Mat.from_rows(Q, [[q, q], [q, -q]])
    assert_sparse(prod)
    assert {(i, j) for i, row in prod._a.items() for j in row} == {(0, 0), (1, 1)}
    # the slot kernel drops a row whose entries cancel
    ones = Mat.from_rows(Q, [[one, one], [one, one]])
    assert Mat.from_rows(Q, [[one], [-one]]).apply_slots(2, [(ones, 0)])._a == {}
    # Gauss-Jordan: clearing column 1 cancels entry (0, 2), so the inverse
    # of this upper triangle has an empty corner
    upper = Mat.from_rows(Q, [[one, one, one], [z, one, one], [z, z, one]])
    aug = upper._gauss_jordan()
    assert all(not any(x.is_zero for x in row.values()) for row in aug)
    assert [sorted(j for j in row if j < 3) for row in aug] == [[0], [1], [2]]
    inv = upper.inverse()
    assert_sparse(inv)
    assert 2 not in inv._a[0]
    assert is_identity(upper @ inv)
    for m in (a.transpose(), a.kron(a), a.permute_axes(3, (1, 0)), a @ a, a + a):
        assert_sparse(m)


@pytest.mark.parametrize("field", [Q, C], ids=["exact", "float"])
def test_build_keeps_a_declared_empty_shape(field):
    for rows, cols in ((0, 3), (2, 0), (0, 0)):
        m = Mat.build(field, rows, cols, lambda i, j: field.one)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.tolist() == [[]] * rows
        assert (m.transpose().rows, m.transpose().cols) == (cols, rows)


def test_exact_sums_add_in_ascending_order():
    # RatFun keeps no gcd: (x0 + x1) + x2 and (x2 + x1) + x0 print differently
    x0, x1, x2 = (Q.parse(t) for t in ("1/(q+1)", "1/(q+1)", "1/(q+2)"))
    want = Q.format((x0 + x1) + x2)
    assert want != Q.format((x2 + x1) + x0)
    ones = Mat.from_rows(Q, [[Q.one] * 3])
    column = Mat.from_rows(Q, [[x0], [x1], [x2]])
    # the same column with its rows stored in descending order
    stored_backwards = Mat(Q, 3, 1, {2: {0: x2}, 1: {0: x1}, 0: {0: x0}})
    # Tr2(T)^0_1 = x0 + x1 + x2, whatever the rest of T's support (T^{02}_{02})
    entries = {(0, 0, 1, 0): x0, (0, 1, 1, 1): x1, (0, 2, 1, 2): x2, (0, 2, 0, 2): Q.one}
    traced = Tensor4.from_entry_fn(Q, 3, lambda *abcd: entries.get(abcd, Q.zero))
    sums = [
        (ones @ column).at(0, 0),
        (ones @ stored_backwards).at(0, 0),
        ones.trace_product(stored_backwards),
        Mat.from_rows(Q, [[x0, Q.zero, Q.zero], [Q.zero, x1, Q.zero], [Q.zero, Q.zero, x2]]).trace(),
        stored_backwards.apply_slots(3, [(ones, 0)]).at(0, 0),
        # the first step makes rows 0, 1, 2 from the operator's column
        Mat.identity(Q, 1).apply_slots(3, [(column, 0), (ones, 0)]).at(0, 0),
        traced.partial_trace2().at(0, 1),
    ]
    assert [Q.format(x) for x in sums] == [want] * len(sums)


def exact_products():
    """Named exact factor pairs: catalog R with R^{t2}, U_q(sl_3) and U_q(sl_4),
    a cup and a cap, random sparse factors, and products whose sums cancel."""
    for fam in families():
        r = fixture(fam.id).r
        yield "family%s" % fam.id, r.mat, r.t2().mat
        yield "family%s_t2" % fam.id, r.t2().mat, r.mat
    for n in (3, 4):
        r = sl_n_r(Q, n)
        yield "sl%d" % n, r.mat, r.t2().mat
    inp = InvariantInput.from_pair(enhance(fixture(7).r).pairs[0])
    cup, cap = kron_piece("cup-", inp.s, inp.mu), kron_piece("cap-", inp.s, inp.mu)
    yield "cup_cap", cup, cap
    yield "cap_cup", cap, cup
    yield "s_cup", inp.s.mat, cup
    yield "cap_s", cap, inp.s.mat
    # R R^{-1}: every off-diagonal sum cancels
    r = fixture(7).r.mat
    yield "cancel", r, r.inverse()
    rng = random.Random(16)
    yield "random", rand_mat(rng, Q, 5, 6, density=0.6), rand_mat(rng, Q, 6, 4, density=0.6)
    # [[1, -1], [q, 1]] @ [[q, 1], [q, 1]]: row 0 cancels to empty
    one, q = Q.one, Q.sym("q")
    yield "empty_row", Mat.from_rows(Q, [[one, -one], [q, one]]), Mat.from_rows(Q, [[q, one], [q, one]])
    # RatFun keeps no gcd, so these sums print by the order of additions
    column = Mat.from_rows(Q, [[Q.parse(t)] for t in ("1/(q+1)", "1/(q+1)", "1/(q+2)")])
    yield "sum_order", Mat.from_rows(Q, [[one, one, one], [q, one, q]]), column


def test_exact_matmul_matches_the_dense_loop():
    for name, a, b in exact_products():
        got, want = a @ b, dense_matmul(a, b)
        assert (got.rows, got.cols) == (a.rows, b.cols), name
        assert got._a == want._a, name
        assert got.format_rows() == want.format_rows(), name
        assert_sparse(got)
        if name == "cancel":
            assert is_identity(got)
        if name == "empty_row":
            assert got._a.keys() == {1}


# ---------------------------------------------------------------------------
# float backend plumbing


def test_float_matmul_and_compare():
    rng = random.Random(14)
    a = rand_mat(rng, C, 8, 8)
    b = rand_mat(rng, C, 8, 8)
    left = (a @ b).transpose()
    right = b.transpose() @ a.transpose()
    ok, residual, _ = left.compare(right)
    assert ok and residual <= 1e-12


def test_evaluate_into_float():
    r = diag_family(PQS)
    point = {
        "p": complex(2),
        "q": complex(0.5),
        "s": complex(3),
    }
    m = r.mat.evaluate(point, C)
    assert m.at(3, 3) == 0.5
    assert m.at(1, 1) == 2


def _evaluate_cases():
    """Every catalog matrix and exact sl_3, each at an exact, a partial, a
    complex and a float point, as (matrix, bindings, target)."""
    mats = []
    for fam in families():
        for variant in fam.variants or (None,):
            fx = fixture(fam.id, variant=variant)
            extra = (fx.expected_tilde.mat if fx.expected_tilde else None, fx.expected_u, fx.expected_v)
            mats += [(fx.parameters, m) for m in (fx.r.mat,) + extra if m is not None]
    mats.append((("q",), sl_n_r(Q, 3).mat))
    exact, gauss = Field(exact_tag()), Field(exact_tag(imaginary=True))
    rationals = (Fraction(3, 2), Fraction(5, 3), -2)
    gaussians = ((Fraction(1, 2), Fraction(3, 4)), (-1, 1), (2, 0))
    floats = (1.3 + 0.2j, -0.7, 2.5j)
    cases = []
    for params, m in mats:
        cases.append((m, dict(zip(params, map(exact.from_fraction, rationals))), exact))
        cases.append((m, {p: gauss.from_gauss(*x) for p, x in zip(params, gaussians)}, gauss))
        cases.append((m, dict(zip(params, floats)), C))
        if params:
            rest = Field(exact_tag(*params[1:]))
            cases.append((m, {params[0]: rest.from_fraction(Fraction(-1, 4))}, rest))
    return cases


def test_evaluate_matches_entrywise_reference():
    cases = _evaluate_cases()
    assert {target.exact for _, _, target in cases} == {True, False}
    for m, bindings, target in cases:
        got = m.evaluate(bindings, target)
        want = entrywise_evaluate(m, bindings, target)
        assert got.field is target and (got.rows, got.cols) == (want.rows, want.cols)
        assert got.tolist() == want.tolist()
        assert got.format_rows() == want.format_rows()


@pytest.mark.parametrize("q", [1, -1])
def test_evaluate_stores_no_entry_that_vanishes_at_the_point(q):
    # q - q^-1 vanishes at q = +-1: 3 of the 12 nonzeros of sl_3's R
    m = sl_n_r(Q, 3).mat
    target = Field(exact_tag())
    point = {"q": target.from_int(q)}
    got = m.evaluate(point, target)
    assert sum(map(len, got._a.values())) == 9
    assert all(not x.is_zero for row in got._a.values() for x in row.values())
    assert got.tolist() == entrywise_evaluate(m, point, target).tolist()
    # with p left symbolic, family 7's q - q^-1 entry vanishes the same way
    m = fixture(7).r.mat
    target = Field(exact_tag("p"))
    point = {"q": target.from_int(q)}
    got = m.evaluate(point, target)
    assert sum(map(len, got._a.values())) == 4
    assert all(not x.is_zero for row in got._a.values() for x in row.values())
    assert got.format_rows() == entrywise_evaluate(m, point, target).format_rows()


@pytest.mark.parametrize("target", [Field(exact_tag()), C])
def test_evaluate_substitutes_each_stored_entry_once(monkeypatch, target):
    calls = []
    substitute = tensors.substitute
    monkeypatch.setattr(tensors, "substitute", lambda *a: calls.append(1) or substitute(*a))
    sl5 = sl_n_r(Q, 5).mat
    sl5.evaluate({"q": target.from_int(2)}, target)
    # 5 q's on the diagonal, 20 ones and 10 (q - q^-1) among 625 entries
    assert len(calls) == 35



def test_single_block_float_state_skips_the_block_scheduler(monkeypatch):
    rng = random.Random(15)
    s = rand_tensor4(rng, C, 2)
    state = rand_mat(rng, C, 8, 8)
    steps = [(s.mat, 0), (s.mat, 1)]
    want = state.apply_slots(2, steps)
    monkeypatch.setattr(tensors, "_column_blocks", lambda *args: pytest.fail("blocks were scheduled"))
    got = state.apply_slots(2, steps)
    assert got.tolist() == want.tolist()
    assert got.eq(s.lift23() @ s.lift12() @ state)
    # no steps: a copy of the state, not a view of it
    same = state.apply_slots(2, [])
    assert same.tolist() == state.tolist() and not np.shares_memory(same._a, state._a)
    monkeypatch.undo()
    # a state over one block still runs through the scheduler, with the same values
    monkeypatch.setattr(tensors, "_BLOCK_ENTRIES", 16)
    blocked = state.apply_slots(2, steps)
    assert blocked.eq(want)
