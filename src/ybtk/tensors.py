"""Dense matrices and four-index (two-slot) operators over either backend.

Flattening convention, fixed project-wide: a two-slot operator ``T`` with
entries ``T^{ab}_{cd}`` (indices 0-based in code) is the ``n^2 x n^2``
matrix with row index ``a*n + b`` and column index ``c*n + d``, so that
``T`` maps ``e_c (x) e_d`` to ``sum_ab T^{ab}_{cd} e_a (x) e_b``.  For
three slots the row index is ``(a*n + b)*n + c``.  With this convention
the printed 4x4 matrices of the n=2 catalog are read in the basis order
(11, 12, 21, 22).

The two transposes act entrywise as ``(A^{t1})^{ab}_{cd} = A^{cb}_{ad}``
and ``(A^{t2})^{ab}_{cd} = A^{ad}_{cb}``; the second partial trace is
``Tr2(A)^a_c = sum_d A^{ad}_{cd}``.

Two primitives carry all slot arithmetic, on both backends:

* ``Mat.apply_slots(n, steps)`` is the slot-local kernel.  The rows of
  the matrix are a state in ``(C^n)^(x k)``, slot 0 the most significant
  factor.  A step ``(op, first)`` applies the ``n^b x n^a`` matrix
  ``op`` to the ``a`` factors starting at slot ``first`` and puts ``b``
  factors in their place, so cups (``a = 0``) and caps (``b = 0``) change
  the factor count.  Steps run in list order, each left-multiplying the
  state; a product ``L1 L2 ... Lk`` is the step list ``Lk, ..., L1``
  applied to the identity.
* ``Mat.permute_axes(n, perm)`` reads the row factors and then the
  column factors as tensor axes and permutes them like numpy's
  ``transpose``, through one integer index array.  The transposes, the
  flip, ``R13`` and the braidings are such permutations.

``slot_trace(field, n, m, steps)`` is the trace of the product a step
list builds on the identity of ``(C^n)^(x m)``, the Markov trace behind
``turaev``.  The float backend runs the steps on column blocks of the
identity and keeps only each block's diagonal entries, so no full state
is allocated; the exact backend sums the diagonal of its sparse state.

Float states are processed in column blocks of ``_BLOCK_ENTRIES``
entries.  One block, or a single usable core, runs inline through
``np.matmul``.  Several blocks run on a module-level thread pool with one
worker per usable core, each step a few numpy ufunc calls over the
operator's nonzero entries; results are combined in block order, so
repeated calls agree bitwise.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable

import numpy as np

from .errors import SingularMatrixError
from .scalars import Field, Scalar, substitute

__all__ = ["Mat", "Tensor4", "permutation", "embed", "yb_sides"]

# Column-block size of the float kernel, in entries (2 MB; 2^16 to 2^18
# ran alike): a call holds its input, its output and a few blocks per
# thread instead of three full states, and a trace holds no full state.
# Pooled steps use numpy ufuncs, not np.matmul: BLAS runs its own
# threads, and np.matmul on two Python threads ran no faster than on one.
_BLOCK_ENTRIES = 1 << 17
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None


class Mat:
    """A dense rows x cols matrix over a Field.

    Exact backend: entries are RatFun values in nested lists.  Float
    backend: a complex128 ndarray.  Instances are treated as immutable;
    all operations return new matrices.
    """

    __slots__ = ("field", "rows", "cols", "_a")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._a = data

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        if field.exact:
            z = field.zero
            return Mat(field, rows, cols, [[z] * cols for _ in range(rows)])
        return Mat(field, rows, cols, np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        if field.exact:
            z, o = field.zero, field.one
            return Mat(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])
        return Mat(field, n, n, np.eye(n, dtype=complex))

    @staticmethod
    def from_rows(field: Field, entries) -> "Mat":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix rows")
        if field.exact:
            return Mat(field, rows, cols, [list(r) for r in entries])
        return Mat(field, rows, cols, np.array(entries, dtype=complex))

    @staticmethod
    def build(field: Field, rows: int, cols: int, fn: Callable[[int, int], Scalar]) -> "Mat":
        if field.exact:
            return Mat(field, rows, cols, [[fn(i, j) for j in range(cols)] for i in range(rows)])
        a = np.empty((rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                a[i, j] = complex(fn(i, j))
        return Mat(field, rows, cols, a)

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        if self.field.exact:
            return self._a[i][j]
        return complex(self._a[i, j])

    def tolist(self) -> list:
        if self.field.exact:
            return [list(r) for r in self._a]
        return [[complex(x) for x in row] for row in self._a]

    @property
    def square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        if self.field.exact:
            a, b = self._a, other._a
            return Mat(
                self.field,
                self.rows,
                self.cols,
                [[a[i][j] + b[i][j] for j in range(self.cols)] for i in range(self.rows)],
            )
        return Mat(self.field, self.rows, self.cols, self._a + other._a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        if self.field.exact:
            a, b = self._a, other._a
            return Mat(
                self.field,
                self.rows,
                self.cols,
                [[a[i][j] - b[i][j] for j in range(self.cols)] for i in range(self.rows)],
            )
        return Mat(self.field, self.rows, self.cols, self._a - other._a)

    def __neg__(self) -> "Mat":
        return self.scale(self.field.from_int(-1))

    def scale(self, s: Scalar) -> "Mat":
        if self.field.exact:
            return Mat(
                self.field,
                self.rows,
                self.cols,
                [[x * s for x in row] for row in self._a],
            )
        return Mat(self.field, self.rows, self.cols, self._a * complex(s))

    def __mul__(self, s):
        return self.scale(self.field.from_int(s) if isinstance(s, int) else s)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        if not self.field.exact:
            return Mat(self.field, self.rows, other.cols, self._a @ other._a)
        a, b = self._a, other._a
        out = [[self.field.zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            ai = a[i]
            oi = out[i]
            for k in range(self.cols):
                x = ai[k]
                if x.is_zero:
                    continue
                bk = b[k]
                for j in range(other.cols):
                    y = bk[j]
                    if not y.is_zero:
                        oi[j] = oi[j] + x * y
        return Mat(self.field, self.rows, other.cols, out)

    def transpose(self) -> "Mat":
        if self.field.exact:
            return Mat(
                self.field,
                self.cols,
                self.rows,
                [[self._a[i][j] for i in range(self.rows)] for j in range(self.cols)],
            )
        return Mat(self.field, self.cols, self.rows, self._a.T.copy())

    def trace(self) -> Scalar:
        if not self.square:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def trace_product(self, other: "Mat") -> Scalar:
        """Tr(self @ other) without materialising the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("trace_product shape mismatch")
        if not self.field.exact:
            return complex(np.einsum("ij,ji->", self._a, other._a))
        acc = self.field.zero
        for i in range(self.rows):
            row = self._a[i]
            for j in range(self.cols):
                x = row[j]
                if x.is_zero:
                    continue
                y = other._a[j][i]
                if not y.is_zero:
                    acc = acc + x * y
        return acc

    def kron(self, other: "Mat") -> "Mat":
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        if not self.field.exact:
            return Mat(self.field, rows, cols, np.kron(self._a, other._a))
        out = [[self.field.zero] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                x = self._a[i][j]
                if x.is_zero:
                    continue
                for k in range(other.rows):
                    base_r = i * other.rows + k
                    row_o = other._a[k]
                    row = out[base_r]
                    for l in range(other.cols):
                        y = row_o[l]
                        if not y.is_zero:
                            row[j * other.cols + l] = x * y
        return Mat(self.field, rows, cols, out)

    # -- slot kernel and axis gather ---------------------------------------

    def apply_slots(self, n: int, steps) -> "Mat":
        """Left-apply slot-local ``(op, first)`` steps to the row factors.

        See the module docstring for the slot convention.  The exact
        backend keeps the state as dicts of nonzero entries, so each step
        costs the nonzeros of the state times those of the operator.
        """
        plan, rows, peak = _plan(n, self.rows, steps)
        if not self.field.exact:
            out = np.empty((rows, self.cols), dtype=complex)

            def fill(c0, c1, chain):
                out[:, c0:c1] = chain(self._a[:, c0:c1])

            _column_blocks(plan, peak, self.cols, fill)
            return Mat(self.field, rows, self.cols, out)
        state = {}
        for r, row in enumerate(self._a):
            nonzero = {c: x for c, x in enumerate(row) if not x.is_zero}
            if nonzero:
                state[r] = nonzero
        zero = self.field.zero
        out = [[zero] * self.cols for _ in range(rows)]
        for r, row in _exact_steps(state, plan).items():
            dense = out[r]
            for c, x in row.items():
                dense[c] = x
        return Mat(self.field, rows, self.cols, out)

    def permute_axes(self, n: int, perm) -> "Mat":
        """Permute the tensor axes (row factors, then column factors).

        Axis ``j`` of the result is axis ``perm[j]`` of ``self``, as in
        ``numpy.transpose``; the shape stays the same.
        """
        k = len(perm)
        if n ** k != self.rows * self.cols:
            raise ValueError("axis permutation does not match the matrix size")
        idx = np.arange(n ** k).reshape((n,) * k).transpose(perm).ravel()
        rows, cols = self.rows, self.cols
        if not self.field.exact:
            return Mat(self.field, rows, cols, self._a.reshape(-1)[idx].reshape(rows, cols))
        flat = [x for row in self._a for x in row]
        vals = [flat[j] for j in idx.tolist()]
        return Mat(self.field, rows, cols, [vals[i * cols:(i + 1) * cols] for i in range(rows)])

    # -- comparisons ----------------------------------------------------

    def max_abs(self) -> float:
        if self.field.exact:
            raise ValueError("max_abs is a float-backend operation")
        return float(np.max(np.abs(self._a))) if self._a.size else 0.0

    def compare(self, other: "Mat"):
        """Return (ok, residual, witness) under the field's notion of equality.

        Float backend: residual is max|difference| / max(1, |A|, |B|) and
        the witness is the argmax index on failure.  Exact backend:
        residual is None and the witness is the first differing index.
        """
        self._check_shape(other)
        if self.field.exact:
            for i in range(self.rows):
                for j in range(self.cols):
                    if not self._a[i][j] == other._a[i][j]:
                        return False, None, (i, j)
            return True, None, None
        scale = max(1.0, self.max_abs(), other.max_abs())
        diff = np.abs(self._a - other._a)
        residual = float(diff.max() / scale) if diff.size else 0.0
        if residual <= self.field.tolerance:
            return True, residual, None
        witness = np.unravel_index(int(diff.argmax()), diff.shape)
        return False, residual, (int(witness[0]), int(witness[1]))

    def eq(self, other: "Mat") -> bool:
        return self.compare(other)[0]

    def is_identity(self) -> bool:
        return self.square and self.eq(Mat.identity(self.field, self.rows))

    def _check_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    # -- inversion -------------------------------------------------------

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; SingularMatrixError when none exists.

        Exact backend: the first nonzero entry of each column is the
        pivot (abstract fields have no magnitudes).  Float backend:
        LAPACK with magnitude pivoting, then a residual check.
        """
        if not self.square:
            raise SingularMatrixError("only square matrices are invertible")
        n = self.rows
        if not self.field.exact:
            try:
                inv = np.linalg.inv(self._a)
            except np.linalg.LinAlgError:
                raise SingularMatrixError("singular matrix") from None
            residual = np.max(np.abs(self._a @ inv - np.eye(n)))
            if residual > self.field.tolerance ** 0.5:
                raise SingularMatrixError("numerically singular matrix")
            return Mat(self.field, n, n, inv)
        aug = [list(row) + [self.field.one if i == j else self.field.zero for j in range(n)]
               for i, row in enumerate(self._a)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if not aug[r][col].is_zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise SingularMatrixError("singular matrix (zero pivot column %d)" % col)
            if pivot_row != col:
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            inv_p = aug[col][col].invert()
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                f = aug[r][col]
                if f.is_zero:
                    continue
                prow = aug[col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
        return Mat(self.field, n, n, [row[n:] for row in aug])

    # -- conversion -------------------------------------------------------

    def evaluate(self, bindings, target: Field) -> "Mat":
        """Substitute symbols entrywise and land in ``target``."""
        if not self.field.exact:
            raise ValueError("evaluate() starts from the exact backend")
        return Mat.build(
            target,
            self.rows,
            self.cols,
            lambda i, j: substitute(self._a[i][j], bindings, target),
        )

    def format_rows(self) -> list[list[str]]:
        return [
            [self.field.format(self.at(i, j)) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def __repr__(self):
        return "Mat(%dx%d over %s)" % (self.rows, self.cols, self.field.tag.backend)


def _plan(n: int, rows: int, steps):
    """``(op, left, rest)`` per step, the final row count and the largest one."""
    plan = []
    peak = rows
    for op, first in steps:
        left = n ** first
        rest, bad = divmod(rows, left * op.cols)
        if bad or first < 0:
            raise ValueError("step does not fit the row factors")
        plan.append((op, left, rest))
        rows = left * op.rows * rest
        if rows > peak:
            peak = rows
    return plan, rows, peak


def _exact_steps(state: dict, plan) -> dict:
    """Run an exact plan on a state of ``{row: {col: nonzero}}`` dicts."""
    for op, _, rest in plan:
        k_in, k_out = op.cols, op.rows
        columns = [[(i, op._a[i][j]) for i in range(k_out) if not op._a[i][j].is_zero]
                   for j in range(k_in)]
        new: dict = {}
        for r, row in state.items():
            high, low = divmod(r, rest)
            block_idx, mid = divmod(high, k_in)
            for i, v in columns[mid]:
                t = (block_idx * k_out + i) * rest + low
                target = new.get(t)
                if target is None:
                    new[t] = {c: v * x for c, x in row.items()}
                    continue
                for c, x in row.items():
                    y = target.get(c)
                    if y is None:
                        target[c] = v * x
                    else:
                        y = y + v * x
                        if y.is_zero:
                            del target[c]
                        else:
                            target[c] = y
        state = new
    return state


def _matmul_steps(plan, block):
    """Run a float plan on a ``(rows, w)`` column block through ``np.matmul``."""
    w = block.shape[1]
    for op, left, _ in plan:
        block = np.matmul(op._a, block.reshape(left, op.cols, -1)).reshape(-1, w)
    return block


def _term_steps(plan, peak: int):
    """A float plan as BLAS-free ufunc calls on a column block.

    Each step sets ``out[:, i, :] = sum_j op[i, j] x[:, j, :]`` over the
    nonzero ``op[i, j]``, which are listed once here for every block.  The
    steps alternate between two buffers of ``peak`` rows that each thread
    allocates once per call.
    """
    terms = [(left, op.cols, [[(j, v) for j, v in enumerate(row) if v] for row in op._a.tolist()])
             for op, left, _ in plan]

    local = threading.local()

    def run(block):
        w = block.shape[1]
        bufs = getattr(local, "bufs", None)
        if bufs is None or len(bufs[0]) < peak * w:
            bufs = local.bufs = [np.empty(peak * w, dtype=complex) for _ in range(3)]
        for k, (left, k_in, op_rows) in enumerate(terms):
            x = block.reshape(left, k_in, -1)
            inner = x.shape[2]
            out = bufs[k % 2][:left * len(op_rows) * inner].reshape(left, len(op_rows), inner)
            tmp = bufs[2][:left * inner].reshape(left, inner)
            for i, row in enumerate(op_rows):
                o = out[:, i]
                if not row:
                    o.fill(0)
                    continue
                j, v = row[0]
                np.multiply(x[:, j], v, out=o)
                for j, v in row[1:]:
                    np.multiply(x[:, j], v, out=tmp)
                    np.add(o, tmp, out=o)
            block = out.reshape(-1, w)
        return block

    return run


def _executor():
    global _POOL
    if _POOL is None:
        # imported here: the import costs a few ms that one-block callers never need
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_WORKERS)
    return _POOL


def _column_blocks(plan, peak: int, cols: int, run) -> list:
    """``run(c0, c1, chain)`` on each column block, results in block order.

    ``chain`` applies the float plan to a ``(rows, c1 - c0)`` block.  With
    several blocks and several cores the blocks go to the pool with the
    term kernel; otherwise they run inline with ``np.matmul``.
    """
    width = max(1, _BLOCK_ENTRIES // peak)
    starts = range(0, cols, width)
    if len(starts) == 1 or _WORKERS == 1:
        chain = functools.partial(_matmul_steps, plan)
        return [run(c0, min(c0 + width, cols), chain) for c0 in starts]
    chain = _term_steps(plan, peak)
    return list(_executor().map(lambda c0: run(c0, min(c0 + width, cols), chain), starts))


def slot_trace(field: Field, n: int, m: int, steps) -> Scalar:
    """Tr of the product that ``steps`` build on the identity of (C^n)^(x m).

    Equals ``Mat.identity(field, n**m).apply_slots(n, steps).trace()``
    without the dense state: the float backend keeps the diagonal of each
    column block, the exact one sums the diagonal of its sparse state.
    """
    dim = n ** m
    plan, rows, peak = _plan(n, dim, steps)
    if rows != dim:
        raise ValueError("a traced product must keep the factor count")
    if field.exact:
        state = _exact_steps({r: {r: field.one} for r in range(dim)}, plan)
        acc = field.zero
        for r in sorted(state):
            x = state[r].get(r)
            if x is not None:
                acc = acc + x
        return acc

    def diagonal(c0, c1, chain):
        cols = np.arange(c1 - c0)
        block = np.zeros((dim, c1 - c0), dtype=complex)
        block[c0 + cols, cols] = 1
        return complex(chain(block)[c0 + cols, cols].sum())

    return sum(_column_blocks(plan, peak, dim, diagonal), 0j)


class Tensor4:
    """A two-slot operator: an n^2 x n^2 matrix addressed by four indices."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: Mat):
        if mat.rows != n * n or mat.cols != n * n:
            raise ValueError("Tensor4 needs an n^2 x n^2 matrix")
        self.n = n
        self.mat = mat

    @property
    def field(self) -> Field:
        return self.mat.field

    @staticmethod
    def from_entry_fn(field: Field, n: int, fn) -> "Tensor4":
        def flat(i, j):
            a, b = divmod(i, n)
            c, d = divmod(j, n)
            return fn(a, b, c, d)

        return Tensor4(n, Mat.build(field, n * n, n * n, flat))

    @staticmethod
    def identity(field: Field, n: int) -> "Tensor4":
        return Tensor4(n, Mat.identity(field, n * n))

    def entry(self, a: int, b: int, c: int, d: int) -> Scalar:
        return self.mat.at(a * self.n + b, c * self.n + d)

    # -- reindexings ------------------------------------------------------

    def permute_axes(self, perm) -> "Tensor4":
        """The operator with entries permuted as the axes ``(a, b, c, d)`` of ``T^{ab}_{cd}``."""
        return Tensor4(self.n, self.mat.permute_axes(self.n, perm))

    def t1(self) -> "Tensor4":
        return self.permute_axes((2, 1, 0, 3))

    def t2(self) -> "Tensor4":
        return self.permute_axes((0, 3, 2, 1))

    def transpose(self, kind: str) -> "Tensor4":
        if kind == "t1":
            return self.t1()
        if kind == "t2":
            return self.t2()
        raise ValueError("transpose kind must be 't1' or 't2'")

    def partial_trace2(self) -> Mat:
        n = self.n

        def tr(a, c):
            acc = self.field.zero
            for d in range(n):
                acc = acc + self.entry(a, d, c, d)
            return acc

        return Mat.build(self.field, n, n, tr)

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.n, self.mat @ other.mat)

    def __add__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.n, self.mat + other.mat)

    def __sub__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.n, self.mat - other.mat)

    def scale(self, s: Scalar) -> "Tensor4":
        return Tensor4(self.n, self.mat.scale(s))

    def inverse(self) -> "Tensor4":
        return Tensor4(self.n, self.mat.inverse())

    def eq(self, other: "Tensor4") -> bool:
        return self.mat.eq(other.mat)

    def evaluate(self, bindings, target: Field) -> "Tensor4":
        return Tensor4(self.n, self.mat.evaluate(bindings, target))

    def __repr__(self):
        return "Tensor4(n=%d over %s)" % (self.n, self.field.tag.backend)

    # -- three-slot lifts -----------------------------------------------------

    def lift12(self) -> Mat:
        return self.mat.kron(Mat.identity(self.field, self.n))

    def lift23(self) -> Mat:
        return Mat.identity(self.field, self.n).kron(self.mat)

    def lift13(self) -> Mat:
        # R13 = P23 R12 P23: swap the second and third factors on both sides
        return self.lift12().permute_axes(self.n, (0, 2, 1, 3, 5, 4))


def permutation(field: Field, n: int) -> Tensor4:
    """The flip operator: P^{ab}_{cd} = 1 iff a == d and b == c."""
    return Tensor4(n, Mat.identity(field, n * n).permute_axes(n, (0, 1, 3, 2)))


def embed(mu: Mat, which: str) -> Tensor4:
    """Kronecker embedding of an n x n matrix into a two-slot operator.

    ``slot1`` gives mu (x) I, ``slot2`` gives I (x) mu, ``both`` gives
    mu (x) mu, all in the fixed flattening.
    """
    if not mu.square:
        raise ValueError("embed needs a square matrix")
    n = mu.rows
    eye = Mat.identity(mu.field, n)
    if which == "slot1":
        return Tensor4(n, mu.kron(eye))
    if which == "slot2":
        return Tensor4(n, eye.kron(mu))
    if which == "both":
        return Tensor4(n, mu.kron(mu))
    raise ValueError("which must be 'slot1', 'slot2' or 'both'")


def yb_sides(r: Tensor4) -> tuple[Mat, Mat]:
    """Both triple products of the quantum Yang-Baxter equation on n^3.

    Returns (R12 R13 R23, R23 R13 R12) as n^3 x n^3 matrices in the
    fixed three-slot flattening.
    """
    n = r.n
    p = permutation(r.field, n).mat
    r12, r23 = [(r.mat, 0)], [(r.mat, 1)]
    r13 = [(p, 1), (r.mat, 0), (p, 1)]
    eye = Mat.identity(r.field, n ** 3)
    # a product's rightmost factor is its first step
    return eye.apply_slots(n, r23 + r13 + r12), eye.apply_slots(n, r12 + r13 + r23)
