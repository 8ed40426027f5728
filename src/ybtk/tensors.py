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
``turaev``.  The exact backend sums the diagonal of its sparse state.
The float backend allocates no full state.  Leading diagonal one-slot
steps (``mu^T`` on every slot, for a diagonal ``mu``) become the scale of
the starting identity columns.  The other steps then decide the path:

* Sectors.  Link two states when some step operator, on any slots, has
  a nonzero off-diagonal entry between them.  Each connected component
  of these links is a sector that every step maps into itself, so the
  product is block-diagonal by sector.  States are ordered sector by
  sector and each sector's ``L x L`` block is traced on its own; a step
  is a multiply by the operator's diagonal plus one row gather per
  off-diagonal term.  For U_q(sl_n) and catalog family 7 the sectors
  are the weight spaces: at n = 2, m = 12 they hold C(24, 12) = 2.7 M
  entries against 4^12 = 16.8 M.  A Z/2 parity, as in families 6 and 9,
  gives two halves.
* Dense.  With one sector, or a step that changes the factor count, the
  columns of the whole space run the steps and keep their diagonal.

``slot_compare(field, n, m, left, right)`` is the exact equality test of
the products two step lists build, behind ``check_qyb`` and the braid
relation of the verifiers.  It compares the two sparse states entry by
entry over the union of their supports, in row-major order, so it finds
the first differing entry that ``Mat.compare`` finds on the dense
products without forming them.

Float states are processed in column blocks of ``_BLOCK_ENTRIES``
entries (sector blocks: ``_SECTOR_BLOCK_ENTRIES``).  One block, or a
single usable core, runs inline (dense blocks through ``np.matmul``).
Several blocks run on a module-level thread pool with one worker per
usable core, a dense step being a few numpy ufunc calls over the
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
# Sector blocks (see slot_trace) gather rows from anywhere in their
# block, and ran about 8% faster at 2^15 or 2^16 entries than at 2^17 on
# 2 cores with 2 MB of L2 cache each; 2^15 also holds 6 MB less.
_SECTOR_BLOCK_ENTRIES = 1 << 15
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
        pivot (abstract fields have no magnitudes), and a row update
        touches only the nonzero columns of the pivot row.  Float backend:
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
        return Mat(self.field, n, n, [row[n:] for row in self._gauss_jordan(True)])

    def check_invertible(self) -> None:
        """Raise SingularMatrixError exactly when ``inverse`` would, without forming it."""
        if not self.field.exact:
            self.inverse()
            return
        if not self.square:
            raise SingularMatrixError("only square matrices are invertible")
        self._gauss_jordan(False)

    def _gauss_jordan(self, augment: bool) -> list[list]:
        """Exact elimination of the rows, with the identity appended when ``augment``.

        Without it only the rows below each pivot are cleared, which is
        enough to find a zero pivot column.
        """
        n = self.rows
        aug = [list(row) for row in self._a]
        if augment:
            for i, row in enumerate(aug):
                row.extend(self.field.one if i == j else self.field.zero for j in range(n))
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
            prow = aug[col]
            inv_p = prow[col].invert()
            # a zero entry of the pivot row stays zero and leaves its column unchanged
            support = [j for j, x in enumerate(prow) if not x.is_zero]
            for j in support:
                prow[j] = prow[j] * inv_p
            for r in range(n) if augment else range(col + 1, n):
                if r == col:
                    continue
                row = aug[r]
                f = row[col]
                if f.is_zero:
                    continue
                for j in support:
                    row[j] = row[j] - f * prow[j]
        return aug

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


def _map_blocks(fn, tasks) -> list:
    """``fn`` on each task, results in task order.

    Several tasks on several cores go to the pool; otherwise they run
    inline.
    """
    if len(tasks) > 1 and _WORKERS > 1:
        return list(_executor().map(fn, tasks))
    return [fn(t) for t in tasks]


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
    else:
        chain = _term_steps(plan, peak)
    return _map_blocks(lambda c0: run(c0, min(c0 + width, cols), chain), starts)


def _leading_diagonal(n: int, m: int, steps):
    """The diagonal that the leading diagonal one-slot steps make, and their count.

    Those steps, applied to the identity, give ``diag(start)``.
    """
    factors = [np.ones(n, dtype=complex) for _ in range(m)]
    count = 0
    for op, first in steps:
        a = op._a
        if a.shape != (n, n) or np.count_nonzero(a - np.diag(np.diagonal(a))):
            break
        factors[first] = factors[first] * np.diagonal(a)
        count += 1
    return functools.reduce(np.kron, factors, np.ones(1, dtype=complex)), count


def _sectors(n: int, m: int, ops):
    """The states of (C^n)^(x m) in sector-major order, and the sector sizes.

    Two states are linked when an operator in ``ops``, on any slots, has
    a nonzero off-diagonal entry between them; a sector is a connected
    component of these links, so every operator maps a sector into itself
    wherever it acts.  Components are labelled by their least state
    through min-label passes with pointer jumping.  States keep their
    order inside a sector.  Operators that change the factor count give
    one sector.
    """
    dim = n ** m
    states = np.arange(dim)
    if any(op.rows != op.cols for op in ops):
        return states, np.array([dim])
    supports: dict = {}
    for op in ops:
        link = supports.setdefault(op.cols, np.zeros((op.cols, op.cols), dtype=bool))
        link |= (op._a != 0) | (op._a.T != 0)
    maps = []
    for k, link in supports.items():
        np.fill_diagonal(link, False)
        cols = [np.flatnonzero(row) for row in link]
        for t in range(max(len(c) for c in cols)):
            src = np.array([c[t] if t < len(c) else i for i, c in enumerate(cols)])
            rest = 1
            while rest * k <= dim:
                loc = states // rest % k
                maps.append(states + (src[loc] - loc) * rest)
                rest *= n
    label = states
    while True:
        new = label.copy()
        for idx in maps:
            np.minimum(new, new[idx], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, sector = np.unique(label, return_inverse=True)
    return np.argsort(sector, kind="stable"), np.bincount(sector)


def _gather_maps(n: int, m: int, op, first: int, order, local_pos):
    """One sector-graded step as a diagonal multiply and row gathers.

    Returns, in sector-major order, each state's local digit ``loc`` (the
    row of ``op`` it sits on), the diagonal of ``op``, and per
    off-diagonal term ``t`` the sector-local source row ``idx[t]`` and
    the coefficients ``coef[t]`` indexed by local digit.  Row ``r`` of a
    step's output is ``diag[loc[r]] x[r] + sum_t coef[t][loc[r]] x[idx[t, r]]``;
    a row with fewer terms gathers itself with coefficient 0.
    """
    k = op.cols
    rest = n ** m // (n ** first * k)
    loc = order // rest % k
    diag = np.diagonal(op._a).copy()
    off = op._a - np.diag(diag)
    cols = [np.flatnonzero(row) for row in off]
    terms = max(len(c) for c in cols)
    idx = np.empty((terms, len(order)), dtype=np.int32)
    coef = np.empty((terms, k), dtype=complex)
    for t in range(terms):
        src = np.array([c[t] if t < len(c) else i for i, c in enumerate(cols)])
        coef[t] = off[np.arange(k), src]
        idx[t] = local_pos[order + (src[loc] - loc) * rest]
    return loc.astype(np.min_scalar_type(k - 1)), diag, idx, coef


def _sector_trace(n: int, m: int, steps, start, order, sizes) -> complex:
    """The float trace as a sum over sectors, each an ``L x L`` block.

    Each sector's columns run in blocks of about ``_SECTOR_BLOCK_ENTRIES``
    entries through ``_map_blocks``; a step is a multiply by the
    operator's diagonal and one row gather per off-diagonal term, through
    maps built once per distinct ``(op, first)``.  Neighbouring sectors
    that fit one block together are traced as one: their union is a
    block of the product too, and a task per tiny sector (a diagonal
    braiding has n^m of them) would cost more in calls than in entries.
    """
    packed: list = []
    for size in sizes.tolist():
        if packed and (packed[-1] + size) ** 2 <= _SECTOR_BLOCK_ENTRIES:
            packed[-1] += size
        else:
            packed.append(size)
    sizes = np.array(packed)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    local_pos = np.empty(len(order), dtype=np.int64)
    local_pos[order] = np.arange(len(order)) - np.repeat(offsets[:-1], sizes)
    maps: dict = {}
    chain = []
    for op, first in steps:
        key = (id(op), first)
        if key not in maps:
            maps[key] = _gather_maps(n, m, op, first, order, local_pos)
        chain.append(maps[key])
    tasks = []
    for o, size in zip(offsets[:-1].tolist(), sizes.tolist()):
        width = max(1, _SECTOR_BLOCK_ENTRIES // size)
        tasks += [(o, size, c0, min(c0 + width, size)) for c0 in range(0, size, width)]
    entries = max(size * (c1 - c0) for _, size, c0, c1 in tasks)
    local = threading.local()

    def run(task):
        o, size, c0, c1 = task
        w = c1 - c0
        bufs = getattr(local, "bufs", None)
        if bufs is None:
            bufs = local.bufs = [np.empty(entries, dtype=complex) for _ in range(3)]
            local.column = np.empty(max(sizes), dtype=complex)
        x = bufs[1][:size * w].reshape(size, w)
        tmp = bufs[2][:size * w].reshape(size, w)
        column = local.column[:size]
        cols = np.arange(w)
        x.fill(0)
        x[c0 + cols, cols] = start[order[o + c0:o + c1]]
        for s, (loc, diag, idx, coef) in enumerate(chain):
            out = bufs[s % 2][:size * w].reshape(size, w)
            digit = loc[o:o + size]
            np.multiply(x, np.take(diag, digit, out=column)[:, None], out=out)
            for t in range(len(idx)):
                np.take(x, idx[t, o:o + size], axis=0, out=tmp, mode="clip")
                np.multiply(tmp, np.take(coef[t], digit, out=column)[:, None], out=tmp)
                np.add(out, tmp, out=out)
            x = out
        return complex(x[c0 + cols, cols].sum())

    return sum(_map_blocks(run, tasks), 0j)


def slot_trace(field: Field, n: int, m: int, steps) -> Scalar:
    """Tr of the product that ``steps`` build on the identity of (C^n)^(x m).

    Equals ``Mat.identity(field, n**m).apply_slots(n, steps).trace()``
    without the dense state.  The exact backend sums the diagonal of its
    sparse state, running the steps in their given order.  The float
    backend folds the leading diagonal one-slot steps into the starting
    columns, then keeps only the diagonal of each column block.  When the
    supports of the remaining steps split the states into several
    sectors (``_sectors``), the state is block-diagonal by sector and
    each sector is traced on its own; otherwise, or when a step changes
    the factor count, the columns of the whole space run through
    ``_column_blocks``.
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
    start, folded = _leading_diagonal(n, m, steps)
    steps, plan = steps[folded:], plan[folded:]
    order, sizes = _sectors(n, m, [op for op, _ in steps])
    if len(sizes) > 1:
        return _sector_trace(n, m, steps, start, order, sizes)

    def diagonal(c0, c1, chain):
        cols = np.arange(c1 - c0)
        block = np.zeros((dim, c1 - c0), dtype=complex)
        block[c0 + cols, cols] = start[c0:c1]
        return complex(chain(block)[c0 + cols, cols].sum())

    return sum(_column_blocks(plan, peak, dim, diagonal), 0j)


def slot_compare(field: Field, n: int, m: int, left, right):
    """The first entry where the products of two step lists differ.

    Exact backend only.  Both step lists run on the sparse identity of
    (C^n)^(x m), as in ``slot_trace``, and the union of the two supports
    is walked in row-major order, so the entry found is the one that
    ``Mat.compare`` finds on the dense products.  Returns None when the
    products are equal, else ``((row, col), lhs, rhs)`` with the two
    entries there (``field.zero`` off a support).
    """
    dim = n ** m
    lhs, rhs = [_exact_steps({r: {r: field.one} for r in range(dim)}, _plan(n, dim, steps)[0])
                for steps in (left, right)]
    zero = field.zero
    for r in sorted(lhs.keys() | rhs.keys()):
        lrow, rrow = lhs.get(r, {}), rhs.get(r, {})
        for c in sorted(lrow.keys() | rrow.keys()):
            a, b = lrow.get(c), rrow.get(c)
            # a sparse state holds no zeros, so a missing entry differs
            if a is None or b is None or not a == b:
                return (r, c), zero if a is None else a, zero if b is None else b
    return None


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
    eye = Mat.identity(r.field, r.n ** 3)
    left, right = yb_steps(r)
    return eye.apply_slots(r.n, left), eye.apply_slots(r.n, right)


def yb_steps(r: Tensor4) -> tuple[list, list]:
    """The step lists of ``yb_sides`` on three slots."""
    p = permutation(r.field, r.n).mat
    r12, r23 = [(r.mat, 0)], [(r.mat, 1)]
    r13 = [(p, 1), (r.mat, 0), (p, 1)]
    # a product's rightmost factor is its first step
    return r23 + r13 + r12, r12 + r13 + r23
