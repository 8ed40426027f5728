"""The slot kernel and the axis gather against Kronecker-product references."""

import random
import tracemalloc

import pytest

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
from ybtk.scalars import Field, exact_tag, float_tag
from ybtk import tensors
from ybtk.tensors import Mat, Tensor4, slot_trace, yb_sides

from helpers import (
    kron_braid_rep,
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
# the slot trace: column blocks on the pool, inline, and exact


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


def test_float_slot_trace_repeats_bitwise(two_workers):
    inp = sl2_float_input()
    word = rand_word(random.Random(800), 9, 12)
    assert turaev(inp, word) == turaev(inp, word)


def test_one_worker_runs_inline_with_the_same_value(two_workers, monkeypatch):
    inp = sl2_float_input()
    word = rand_word(random.Random(900), 9, 12)
    pooled = turaev(inp, word)
    monkeypatch.setattr(tensors, "_WORKERS", 1)
    monkeypatch.setattr(tensors, "_executor", lambda: pytest.fail("the pool was used"))
    inline = turaev(inp, word)
    assert abs(inline - pooled) <= 1e-12 * max(1.0, abs(pooled))


def test_float_turaev_holds_no_dense_state(two_workers):
    # one 2^11 x 2^11 complex state alone is 64 MB
    inp = sl2_float_input()
    word = rand_word(random.Random(1000), 11, 25)
    turaev(inp, BraidWord(11, word.letters[:1]))  # start the pool outside the measurement
    tracemalloc.start()
    try:
        turaev(inp, word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
