"""The slot kernel and the axis gather against Kronecker-product references."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from ybtk.catalog import fixture
from ybtk.errors import SingularMatrixError, StrandLimitError
from ybtk.invariants import (
    BraidWord,
    InvariantInput,
    TangleWord,
    braid_rep,
    closure_word,
    tangle_eval,
    turaev,
)
from ybtk.rmatrix import braid_forms, enhance
from ybtk.scalars import Field, exact_tag, float_tag
from ybtk import tensors
from ybtk.tensors import Mat, Tensor4, embed, slot_trace, yb_sides

from helpers import (
    entrywise_lift13,
    flip_yb_sides,
    kron_braid_rep,
    kron_embed,
    kron_layer,
    kron_tangle_eval,
    kron_yb_sides,
    rand_fraction,
    rand_invertible,
    rand_mat,
    rand_tensor4,
    sl_n_r,
)

QQ = Field(exact_tag())
Q = Field(exact_tag("q"))
C = Field(float_tag())


def rand_word(rng, m, letters):
    return BraidWord(m, tuple(
        (rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(letters)
    ))


def rand_pair(rng, field, n):
    """A random invertible S on n^2 and mu on n; no axiom need hold.

    At n = 3, S is the identity plus a sparse random matrix, which keeps
    the exact entries of S^-1 and of long products small.
    """
    if n == 2:
        s = rand_invertible(rng, field, 4)
    else:
        while True:
            s = Mat.identity(field, 9) + rand_mat(rng, field, 9, 9, density=0.25)
            try:
                s.inverse()
                break
            except SingularMatrixError:
                pass
    return Tensor4(n, s), rand_invertible(rng, field, n)


TANGLES = [
    (("cup", "u"), ("u", "cap")),
    (("d", "cup"), ("cap", "d")),
    (("cup-", "d"), ("d", "cap-")),
    (("u", "cup-"), ("cap-", "u")),
    (("cup-", "u", "d"), ("d", "x-", "d"), ("d", "u", "cap-")),
    (("d", "u", "cup"), ("d", "x+", "d"), ("cap", "u", "d")),
    (("u", "cup", "u"), ("x+", "d", "u"), ("u", "u", "cap"), ("x-",)),
    (("cap", "cup"), ("cup-", "u", "d")),
]


@pytest.mark.parametrize("field", [QQ, C], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3])
def test_braid_rep_matches_kron_reference(field, n):
    rng = random.Random(100 + n)
    s, _ = rand_pair(rng, field, n)
    for _ in range(4):
        word = rand_word(rng, rng.choice([2, 3] if n == 3 else [2, 3, 4]), rng.randint(0, n + 1))
        assert braid_rep(s, word).eq(kron_braid_rep(s, word)), word.format()


@pytest.mark.parametrize("field", [QQ, C], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3])
def test_yb_sides_match_kron_reference(field, n):
    rng = random.Random(200 + n)
    for density in (1.0, 0.3):
        r = rand_tensor4(rng, field, n, density if n == 2 else density / 2)
        got, want = yb_sides(r), kron_yb_sides(r)
        assert got[0].eq(want[0]) and got[1].eq(want[1])


@pytest.mark.parametrize("field", [Q, C], ids=["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slot_local_products_match_their_references(field, n):
    # the Yang-Baxter sides against the flip-step chain, the lifts and the
    # embeddings against Kronecker products and an entrywise R13
    rng = random.Random(600 + n)
    r = rand_tensor4(rng, field, n, 1.0 if n < 3 else 0.3)
    mu = rand_mat(rng, field, n, n)
    eye = Mat.identity(field, n)
    pairs = [
        *zip(yb_sides(r), flip_yb_sides(r)),
        (r.lift12(), r.mat.kron(eye)),
        (r.lift23(), eye.kron(r.mat)),
        (r.lift13(), entrywise_lift13(r)),
    ]
    pairs += [(embed(mu, which).mat, kron_embed(mu, which).mat) for which in ("slot1", "slot2", "both")]
    for k, (got, want) in enumerate(pairs):
        assert (got.rows, got.cols) == (want.rows, want.cols), k
        if field.exact:
            assert got.tolist() == want.tolist(), k
            assert got.format_rows() == want.format_rows(), k
        else:
            assert (got - want).max_abs() <= 1e-15 * max(1.0, want.max_abs()), k


@pytest.mark.parametrize("field", [QQ, C], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3])
def test_tangle_layers_match_kron_reference(field, n):
    rng = random.Random(300 + n)
    s, mu = rand_pair(rng, field, n)
    inp = InvariantInput(s, mu, field.one, field.one)
    words = [TangleWord(w) for w in TANGLES]
    words.append(closure_word(rand_word(rng, 2, 3)))
    for word in words:
        assert tangle_eval(word, inp).eq(kron_tangle_eval(word, s, mu)), word.format()
        for layer in word.layers:
            single = TangleWord((layer,))
            assert tangle_eval(single, inp).eq(kron_layer(layer, s, mu)), layer


def test_exact_and_float_kernels_agree_at_a_rational_point():
    rng = random.Random(400)
    n = 3
    q = Q.sym("q")
    s = Tensor4(n, Mat.build(Q, n * n, n * n, lambda i, j: (
        (Q.one if i == j else Q.zero)
        + (q if (i + 2 * j) % 5 == 0 else Q.zero)
        + (Q.from_fraction(rand_fraction(rng)) if rng.random() < 0.3 else Q.zero))))
    point = {"q": complex(rng.randint(5, 15) / 7)}
    s_float = Tensor4(n, s.mat.evaluate(point, C))
    word = BraidWord(3, ((1, 1), (2, 1), (1, 1), (2, 1)))
    assert braid_rep(s, word).evaluate(point, C).eq(braid_rep(s_float, word))
    for exact_side, float_side in zip(yb_sides(s), yb_sides(s_float)):
        assert exact_side.evaluate(point, C).eq(float_side)


def test_closure_equals_turaev_at_n3():
    rng = random.Random(500)
    s, mu = rand_pair(rng, QQ, 3)
    inp = InvariantInput(s, mu, QQ.one, QQ.one)
    for _ in range(3):
        word = rand_word(rng, rng.choice([2, 3]), rng.randint(1, 3))
        assert tangle_eval(closure_word(word), inp).at(0, 0) == turaev(inp, word)


def test_tangle_cap_raises_before_allocating():
    # 13 nested cups: 26 strands, a 2^26-entry state, over the 4^12 cap
    layers = tuple(("u",) * j + ("cup",) + ("d",) * j for j in range(13))
    inp = InvariantInput(Tensor4.identity(C, 2), Mat.identity(C, 2), C.one, C.one)
    tracemalloc.start()
    try:
        with pytest.raises(StrandLimitError):
            tangle_eval(TangleWord(layers), inp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the slot trace: dense blocks inline, sector blocks on the pool, and exact


@pytest.fixture
def two_workers(monkeypatch):
    """A fresh pool of two threads, whatever the host's core count."""
    monkeypatch.setattr(tensors, "_WORKERS", 2)
    monkeypatch.setattr(tensors, "_POOL", None)
    yield
    if tensors._POOL is not None:
        tensors._POOL.shutdown()


def kron_power(mu: Mat, m: int) -> Mat:
    out = Mat.identity(mu.field, 1)
    for _ in range(m):
        out = out.kron(mu)
    return out


def sl2_float_input():
    r = sl_n_r(Q, 2)
    point = {"q": complex(1.3, 0.2)}
    mu = Mat.from_rows(C, [[complex(1.3, 0.2), 0], [0, 1 / complex(1.3, 0.2)]])
    return InvariantInput(Tensor4(2, r.mat.evaluate(point, C)), mu, C.one, C.one)


@pytest.mark.parametrize("n,m", [(2, 9), (3, 6)])
def test_float_turaev_over_several_blocks_matches_kron_reference(two_workers, n, m):
    assert n ** (2 * m) > tensors._BLOCK_ENTRIES
    rng = random.Random(600 + n)
    s, mu = rand_pair(rng, C, n)
    inp = InvariantInput(s, mu, C.one, C.one)
    word = rand_word(rng, m, 6 if n == 2 else 3)
    want = kron_braid_rep(s, word).trace_product(kron_power(mu, m))
    got = turaev(inp, word)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [2, 3])
def test_exact_slot_trace_matches_dense_trace(n):
    rng = random.Random(700 + n)
    s, mu = rand_pair(rng, QQ, n)
    m = 4 if n == 2 else 3
    word = rand_word(rng, m, 3 if n == 2 else 2)
    steps = [(mu, j) for j in range(m)] + [
        (s.mat if eps > 0 else s.inverse().mat, i - 1) for i, eps in word.letters]
    dense = Mat.identity(QQ, n ** m).apply_slots(n, steps).trace()
    assert slot_trace(QQ, n, m, steps) == dense


def dense_float_input():
    s, mu = rand_pair(random.Random(1200), C, 2)
    return InvariantInput(s, mu, C.one, C.one)


# sl2_float_input takes the weight-sector path, dense_float_input the dense one
def test_float_slot_trace_repeats_bitwise(two_workers):
    word = rand_word(random.Random(800), 9, 12)
    for inp in (sl2_float_input(), dense_float_input()):
        assert turaev(inp, word) == turaev(inp, word)


def test_one_worker_runs_inline_with_the_same_value(two_workers, monkeypatch):
    inputs = [sl2_float_input(), dense_float_input()]
    word = rand_word(random.Random(900), 9, 12)
    pooled = [turaev(inp, word) for inp in inputs]
    monkeypatch.setattr(tensors, "_WORKERS", 1)
    monkeypatch.setattr(tensors, "_executor", lambda: pytest.fail("the pool was used"))
    for inp, want in zip(inputs, pooled):
        assert abs(turaev(inp, word) - want) <= 1e-12 * max(1.0, abs(want))


def test_dense_float_blocks_run_inline_and_repeat_bitwise(two_workers, monkeypatch):
    monkeypatch.setattr(tensors, "_executor", lambda: pytest.fail("the pool was used"))
    monkeypatch.setattr(tensors, "_sector_trace", lambda *a: pytest.fail("the sector path ran"))
    blocks = []
    column_blocks = tensors._column_blocks
    monkeypatch.setattr(tensors, "_column_blocks",
                        lambda peak, cols, run: blocks.append(cols) or column_blocks(peak, cols, run))
    m = 9
    assert 2 ** (2 * m) > tensors._BLOCK_ENTRIES
    word = rand_word(random.Random(1700), m, 12)
    # family 7's sparse S through braid_rep, then a dense S through the trace
    s = float_family_pair(7).s
    got = braid_rep(s, word)
    assert got.compare(kron_braid_rep(s, word))[0]
    assert np.array_equal(braid_rep(s, word)._a, got._a)
    s = dense_float_input().s
    steps = [(s.mat if eps > 0 else s.inverse().mat, i - 1) for i, eps in reversed(word.letters)]
    got = slot_trace(C, 2, m, steps)
    assert_close(got, kron_braid_rep(s, word).trace())
    assert slot_trace(C, 2, m, steps) == got
    assert blocks == [2 ** m] * 4


def test_float_turaev_holds_no_dense_state(two_workers):
    # one 2^11 x 2^11 complex state alone is 64 MB, at m = 12 256 MB
    for inp, m in [(sl2_float_input(), 11), (sl2_float_input(), 12), (dense_float_input(), 11)]:
        word = rand_word(random.Random(1000), m, 25)
        turaev(inp, BraidWord(m, word.letters[:1]))  # start the pool outside the measurement
        tracemalloc.start()
        try:
            turaev(inp, word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, m


# ---------------------------------------------------------------------------
# weight sectors of the float trace


FAMILY_POINT = {"p": complex(1.1, -0.3), "q": complex(1.3, 0.2)}


def float_family_pair(fid):
    """The enhanced pair of a catalog family at a float point."""
    fx = fixture(fid)
    point = {k: FAMILY_POINT[k] for k in fx.parameters}
    return InvariantInput.from_pair(enhance(Tensor4(2, fx.r.mat.evaluate(point, C))).pairs[0])


def turaev_reference(inp, word):
    return kron_braid_rep(inp.s, word).trace_product(kron_power(inp.mu, word.strands))


def assert_close(got, want):
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def sectors_only(monkeypatch):
    """Make the dense column-block runner fail from here on."""
    monkeypatch.setattr(tensors, "_column_blocks", lambda *a: pytest.fail("the dense path ran"))


# family 2 links 00 and 11, which no weight on the digits keeps apart;
# family 9 keeps only a Z/2 parity
@pytest.mark.parametrize("fid,block", [(7, 1 << 15), (7, 1 << 10), (2, 1 << 15), (9, 1 << 15)],
                         ids=["family7", "family7_split_sectors", "family2", "family9_parity"])
def test_catalog_sector_trace_matches_kron_reference(two_workers, monkeypatch, fid, block):
    inp = float_family_pair(fid)
    word = rand_word(random.Random(1100), 9, 12)
    want = turaev_reference(inp, word)
    monkeypatch.setattr(tensors, "_SECTOR_BLOCK_ENTRIES", block)
    sectors_only(monkeypatch)
    assert_close(turaev(inp, word), want)


def test_sl3_sector_trace_matches_kron_reference(two_workers, monkeypatch):
    s, _ = braid_forms(Tensor4(3, sl_n_r(Q, 3).mat.evaluate({"q": complex(0.9, 0.4)}, C)))
    # the sectors are the digit contents (a, b, c), of m! / (a! b! c!) states each
    sizes = tensors._sectors(3, 6, [s.mat])[1]
    assert sorted(sizes.tolist()) == sorted(
        math.factorial(6) // (math.factorial(a) * math.factorial(b) * math.factorial(6 - a - b))
        for a in range(7) for b in range(7 - a))
    mu = Mat.from_rows(C, [[1.2, 0, 0], [0, -0.7j, 0], [0, 0, 0.5 + 0.5j]])
    word = rand_word(random.Random(1300), 6, 8)
    inp = InvariantInput(s, mu, C.one, C.one)
    want = turaev_reference(inp, word)
    sectors_only(monkeypatch)
    assert_close(turaev(inp, word), want)


def test_tiny_sectors_are_packed_into_few_blocks(two_workers, monkeypatch):
    # a diagonal braiding links no states: 2^9 sectors of one state each
    rng = random.Random(1200)
    d = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(4)]
    s = Tensor4(2, Mat.from_rows(C, [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]))
    inp = InvariantInput(s, Mat.from_rows(C, [[1.2, 0], [0, 0.8j]]), C.one, C.one)
    word = rand_word(rng, 9, 12)
    want = turaev_reference(inp, word)
    tasks = []
    map_blocks = tensors._map_blocks
    monkeypatch.setattr(tensors, "_map_blocks", lambda fn, t: tasks.append(len(t)) or map_blocks(fn, t))
    sectors_only(monkeypatch)
    assert_close(turaev(inp, word), want)
    assert len(tensors._sectors(2, 9, [s.mat])[1]) == 2 ** 9
    assert 1 < tasks[0] <= 4


@pytest.mark.parametrize("n,m,graded", [(2, 9, True), (2, 9, False), (3, 6, False)],
                         ids=["weight_mixing_mu", "ungraded_n2", "ungraded_n3"])
def test_one_sector_keeps_the_dense_path(two_workers, monkeypatch, n, m, graded):
    monkeypatch.setattr(tensors, "_sector_trace", lambda *a: pytest.fail("the sector path ran"))
    assert n ** (2 * m) > tensors._BLOCK_ENTRIES
    rng = random.Random(1400 + n)
    if graded:  # family 7 keeps a weight that this mu mixes
        s, mu = float_family_pair(7).s, Mat.from_rows(C, [[1, 0.3], [0.2j, 1]])
    else:  # nothing to split; the diagonal mu is folded into the starting columns
        s = rand_pair(rng, C, n)[0]
        mu = Mat.from_rows(C, [[complex(0.8 + 0.3 * i, 0.2 - 0.1 * i) if i == j else 0
                                for j in range(n)] for i in range(n)])
    inp = InvariantInput(s, mu, C.one, C.one)
    word = rand_word(rng, m, 6 if n == 2 else 3)
    assert_close(turaev(inp, word), turaev_reference(inp, word))


@pytest.mark.parametrize("m", [1, 5, 9])
def test_sectors_of_the_catalog(m):
    s = float_family_pair(7).s
    order, sizes = tensors._sectors(2, m, [s.mat.transpose(), s.inverse().mat.transpose()])
    assert sorted(sizes.tolist()) == sorted(math.comb(m, w) for w in range(m + 1))
    assert sorted(order.tolist()) == list(range(2 ** m))
    ones = [bin(state).count("1") for state in order.tolist()]
    bounds = [0, *sizes.cumsum().tolist()]
    for lo, hi in zip(bounds, bounds[1:]):
        assert len(set(ones[lo:hi])) == 1
    order, sizes = tensors._sectors(2, m, [float_family_pair(9).s.mat])
    assert sizes.tolist() == [2 ** (m - 1)] * 2
    rng = random.Random(1500 + m)
    if m > 1:
        for n, op in [(2, rand_pair(rng, C, 2)[0].mat), (3, rand_pair(rng, C, 3)[0].mat)]:
            assert tensors._sectors(n, m, [op])[1].tolist() == [n ** m]


# ---------------------------------------------------------------------------
# fusion of neighbouring steps before the float trace


def gauged_family7():
    """``(A (x) A) S (A (x) A)^-1`` and ``A mu A^-1`` for family 7's pair:
    one sector, so the trace takes the dense path."""
    inp = float_family_pair(7)
    a = Mat.from_rows(C, [[1, 0.5], [0.3j, 1.2]])
    aa = Mat.identity(C, 4).apply_slots(2, [(a, 1), (a, 0)])
    return InvariantInput(Tensor4(2, aa @ inp.s.mat @ aa.inverse()), a @ inp.mu @ a.inverse(),
                          inp.alpha, inp.beta)


def sl_float_input(n):
    s, _ = braid_forms(Tensor4(n, sl_n_r(Q, n).mat.evaluate({"q": complex(0.9, 0.4)}, C)))
    mu = Mat.from_rows(C, [[complex(1.1 + 0.2 * i, 0.1 * i) if i == j else 0 for j in range(n)]
                           for i in range(n)])
    return InvariantInput(s, mu, C.one, C.one)


FUSION_INPUTS = {
    "family7": (lambda: float_family_pair(7), 9),
    "family9": (lambda: float_family_pair(9), 9),
    "family2": (lambda: float_family_pair(2), 9),
    "gauged_family7": (gauged_family7, 9),
    "sl3": (lambda: sl_float_input(3), 5),
    "sl4": (lambda: sl_float_input(4), 4),
}


def fusion_words(m):
    """Random words, and one whose letters interleave commuting indices."""
    rng = random.Random(1800 + m)
    interleaved = [(i, e) for k in range(3) for i, e in ((1, 1), (3, -1), (2, 1), (m - 1, 1 - 2 * (k % 2)))]
    return [rand_word(rng, m, 12), rand_word(rng, m, 3 * m), BraidWord(m, tuple(interleaved))]


@pytest.mark.parametrize("name", sorted(FUSION_INPUTS))
def test_fused_trace_matches_unfused_trace(two_workers, monkeypatch, name):
    make, m = FUSION_INPUTS[name]
    inp = make()
    words = fusion_words(m)
    fused = [turaev(inp, word) for word in words]
    assert [turaev(inp, word) for word in words] == fused  # bitwise
    counts = []
    fuse = tensors._fuse
    monkeypatch.setattr(tensors, "_fuse", lambda n, steps, cost: counts.append(
        (len(steps), len(fuse(n, steps, cost)))) or fuse(n, steps, cost))
    turaev(inp, words[1])
    assert counts[0][1] < counts[0][0]  # some steps were fused
    monkeypatch.setattr(tensors, "_fuse", lambda n, steps, cost: steps)
    for word, got in zip(words, fused):
        want = turaev(inp, word)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), word


def _random_steps(rng, n, m, count):
    ops = [rand_pair(rng, C, n)[0].mat for _ in range(2)] + [rand_invertible(rng, C, n)]
    steps = []
    for _ in range(count):
        op = rng.choice(ops)
        k = 2 if op.rows == n * n else 1
        steps.append((op, rng.randrange(m - k + 1)))
    return steps


@pytest.mark.parametrize("n,m", [(2, 6), (3, 4)])
def test_fusion_keeps_the_product_and_never_raises_the_cost(n, m):
    rng = random.Random(1900 + n)
    # sparse two-slot steps, where the sector cost decides; a diagonal one
    # costs 1 however wide, so only the window caps its fusions
    sparse = [Mat.from_rows(C, [[complex(1 + i, 0.5) if i == j else 0 for j in range(n * n)]
                                for i in range(n * n)])]
    if n == 2:
        sparse.append(float_family_pair(7).s.mat)
    for trial in range(9):
        steps = _random_steps(rng, n, m, 10)
        if trial % 3:
            two_slot = sparse[trial % len(sparse)]
            steps = [(two_slot, first) if op.rows == n * n else (op, first) for op, first in steps]
        want = Mat.identity(C, n ** m).apply_slots(n, steps)
        for cost in (tensors._gather_cost, lambda op: op.cols):
            fused = tensors._fuse(n, steps, cost)
            assert sum(cost(op) for op, _ in fused) <= sum(cost(op) for op, _ in steps)
            assert max(op.cols for op, _ in fused) <= n ** tensors._FUSE_SLOTS
            assert Mat.identity(C, n ** m).apply_slots(n, fused).compare(want)[1] <= 1e-12


def test_a_step_moves_past_disjoint_steps_only():
    rng = random.Random(2000)
    a, b, c = (rand_pair(rng, C, 2)[0].mat for _ in range(3))
    cols = lambda op: op.cols  # noqa: E731
    # s1 s3 s1: the second s1 moves past s3, which commutes with it
    fused = tensors._fuse(2, [(a, 0), (b, 2), (a, 0)], cols)
    assert [(op.rows, first) for op, first in fused] == [(4, 0), (4, 2)]
    assert fused[0][0].compare(a @ a)[0] and fused[1][0] is b
    # s1 s2 s3 s1: s3 would widen s1 s2's window to 4 slots, so it starts
    # a group, and the last s1 moves past it into the first window
    fused = tensors._fuse(2, [(a, 0), (b, 1), (c, 2), (a, 0)], cols)
    assert [(op.rows, first) for op, first in fused] == [(8, 0), (4, 2)]
    # s1 s3 s2 s1: s2 joins s3, and the last s1 meets that window, so it stays last
    steps = [(a, 0), (c, 2), (b, 1), (a, 0)]
    fused = tensors._fuse(2, steps, cols)
    assert [(op.rows, first) for op, first in fused] == [(4, 0), (8, 1), (4, 0)]
    eye = Mat.identity(C, 16)
    assert eye.apply_slots(2, fused).compare(eye.apply_slots(2, steps))[1] <= 1e-12


def test_fusion_leaves_factor_changes_and_n1_alone():
    cup = Mat.identity(C, 2).reshape(4, 1)
    cap = Mat.identity(C, 2).reshape(1, 4)
    s = float_family_pair(7).s.mat
    steps = [(s, 0), (cup, 1), (s, 0), (cap, 1), (s, 0)]
    assert tensors._fuse(2, steps, lambda op: op.cols) is steps
    one = Mat.from_rows(C, [[2.0]])
    steps = [(one, 0), (one, 1), (one, 0)]
    assert tensors._fuse(1, steps, tensors._gather_cost) is steps
    assert slot_trace(C, 1, 3, steps) == 8
