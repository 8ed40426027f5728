"""Shared helpers for the test suite: random values and matrices."""

from fractions import Fraction

from ybtk.scalars import Field
from ybtk.tensors import Mat, Tensor4


def rand_fraction(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def rand_scalar(rng, field: Field):
    if field.exact:
        value = field.from_fraction(rand_fraction(rng))
        for name in field.tag.indeterminates:
            if rng.random() < 0.4:
                value = value + field.from_fraction(rand_fraction(rng)) * field.sym(
                    name
                ) ** rng.randint(-2, 2)
        return value
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def rand_mat(rng, field: Field, rows, cols, density=1.0):
    def fn(i, j):
        if rng.random() > density:
            return field.zero
        return rand_scalar(rng, field)

    return Mat.build(field, rows, cols, fn)


def rand_invertible(rng, field: Field, n, tries=50):
    for _ in range(tries):
        m = rand_mat(rng, field, n, n)
        try:
            m.inverse()
        except Exception:
            continue
        return m
    raise RuntimeError("no invertible matrix found")


def rand_tensor4(rng, field: Field, n, density=1.0):
    return Tensor4(n, rand_mat(rng, field, n * n, n * n, density))


# ---------------------------------------------------------------------------
# reference implementations: slot operators lifted to the whole space by
# Kronecker products and multiplied densely


def kron_braid_rep(s: Tensor4, word) -> Mat:
    """The braid representation as a product of I (x) S^{±1} (x) I lifts."""
    field, n, m = s.field, s.n, word.strands
    out = Mat.identity(field, n ** m)
    for i, eps in word.letters:
        block = s.mat if eps > 0 else s.inverse().mat
        left = Mat.identity(field, n ** (i - 1))
        right = Mat.identity(field, n ** (m - i - 1))
        out = out @ left.kron(block).kron(right)
    return out


def kron_piece(piece: str, s: Tensor4, mu: Mat) -> Mat:
    """The matrix of one tangle piece, written out from its definition."""
    f, n = s.field, s.n
    if piece in ("u", "d"):
        return Mat.identity(f, n)
    if piece in ("x+", "x-"):
        return s.mat if piece == "x+" else s.inverse().mat
    mu_inv = mu.inverse()
    vec = {
        "cup": lambda a, b: f.one if a == b else f.zero,
        "cap": lambda a, b: f.one if a == b else f.zero,
        "cup-": lambda a, b: mu_inv.at(b, a),
        "cap-": lambda a, b: mu.at(b, a),
    }[piece]
    if piece.startswith("cup"):
        return Mat.build(f, n * n, 1, lambda i, _: vec(i // n, i % n))
    return Mat.build(f, 1, n * n, lambda _, j: vec(j // n, j % n))


def kron_layer(layer, s: Tensor4, mu: Mat) -> Mat:
    """One tangle layer as the Kronecker product of its pieces."""
    out = Mat.identity(s.field, 1)
    for piece in layer:
        out = out.kron(kron_piece(piece, s, mu))
    return out


def kron_tangle_eval(word, s: Tensor4, mu: Mat) -> Mat:
    """A tangle word as the product of its whole-layer Kronecker products."""
    total = None
    for layer in word.layers:
        layer_mat = kron_layer(layer, s, mu)
        total = layer_mat if total is None else layer_mat @ total
    return total


def entrywise_lift13(r: Tensor4) -> Mat:
    """R13 on n^3, entry by entry: R^{ac}_{df} where b == e, else 0."""
    n = r.n

    def fn(i, j):
        a, b, c = i // (n * n), i // n % n, i % n
        d, e, f = j // (n * n), j // n % n, j % n
        return r.entry(a, c, d, f) if b == e else r.field.zero

    return Mat.build(r.field, n ** 3, n ** 3, fn)


def kron_yb_sides(r: Tensor4):
    """(R12 R13 R23, R23 R13 R12) from Kronecker lifts and an entrywise R13."""
    eye = Mat.identity(r.field, r.n)
    r12, r23 = r.mat.kron(eye), eye.kron(r.mat)
    r13 = entrywise_lift13(r)
    return r12 @ r13 @ r23, r23 @ r13 @ r12


def entrywise_contraction(first: Tensor4, second: Tensor4) -> Mat:
    """sum_ab first^{ib}_{aj} second^{ak}_{lb}, entry (ik, lj), one entry at a time."""
    n, f = first.n, first.field

    def fn(row, col):
        i, k = divmod(row, n)
        l, j = divmod(col, n)
        acc = f.zero
        for a in range(n):
            for b in range(n):
                acc = acc + first.entry(i, b, a, j) * second.entry(a, k, l, b)
        return acc

    return Mat.build(f, n * n, n * n, fn)


# ---------------------------------------------------------------------------
# U_q(sl_n)


def sl_n_entries(n: int) -> list[str]:
    """Row-major n^2 x n^2 exact entries of the standard U_q(sl_n) R-matrix.

    ``R^{ab}_{cd}`` is q on a = b = c = d, 1 on a = c != b = d, and
    q - q^-1 on (a, b, c, d) = (i, j, j, i) with i < j.
    """
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a, b) == (c, d):
                        out.append("q" if a == b else "1")
                    elif (a, b) == (d, c) and a < b:
                        out.append("q - q^-1")
                    else:
                        out.append("0")
    return out


def sl_n_r(field: Field, n: int) -> Tensor4:
    """The U_q(sl_n) R-matrix over a field with the indeterminate q."""
    values = [field.parse(x) for x in sl_n_entries(n)]
    dim = n * n
    return Tensor4(n, Mat.from_rows(field, [values[i * dim:(i + 1) * dim] for i in range(dim)]))
