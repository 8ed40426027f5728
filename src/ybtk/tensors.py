"""Matrices and four-index (two-slot) operators over either backend.

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
  applied to the identity.  The kernel builds every product of
  slot-local operators: the Yang-Baxter sides (``braid_sides``,
  ``yb_sides``), the lifts ``lift12`` / ``lift23`` and the embeddings of
  ``embed`` (kernel steps on the identity), and every axiom product of
  the ``rmatrix`` verifiers, with ``mu`` a step on its own slot.
  ``Mat.kron`` is the one Kronecker product, kept as public API.
* ``Mat.permute_axes(n, perm)`` reads the row factors and then the
  column factors as tensor axes and permutes them like numpy's
  ``transpose``, through one integer index array.  The transposes, the
  flip, ``R13`` and the braidings are such permutations.

A cup is an ``n x n`` matrix read row-major as one ``n^2 x 1`` column
and a cap as one ``1 x n^2`` row (``Mat.reshape``); the second partial
trace is one cap step.

``slot_trace(field, n, m, steps)`` is the trace of the product a step
list builds on the identity of ``(C^n)^(x m)``, the Markov trace behind
``turaev``.  The exact backend sums the diagonal of the product.  The
float backend allocates no full state.  Leading diagonal one-slot
steps (``mu^T`` on every slot, for a diagonal ``mu``) become the scale of
the starting identity columns.  The other steps then decide the path,
and are fused before it runs:

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
* Fusion (``_fuse``), on either path.  Each run of square steps that
  fits in a window of ``_FUSE_SLOTS`` = 3 slots is multiplied into one
  operator by ``apply_slots`` on the window's identity; a step may move
  past earlier steps on disjoint slots, since those commute with it.  A
  fused operator is kept only when the path's own cost says it costs no
  more than its parts: ``1 + 3 * (most off-diagonal nonzeros in a row)``
  passes per state on the sector path (the diagonal multiply, then a
  gather, a multiply and an add per term), ``op.cols`` multiplies per
  entry on the dense one.  The sectors are found before the fusion, and
  a product of operators that keep each sector keeps it too.  Exact
  traces are not fused: the order of additions decides their printed
  form.

An exact ``Mat`` stores only its nonzero entries, as ``{row: {col: x}}``
dicts with no empty row, so the exact kernel runs on the matrix itself
and costs the nonzeros of the state times those of the operator.  An
exact product ``A @ B`` is one step of that kernel, ``A`` acting on the
rows of ``B``.  Wherever entries are summed, the rows and columns are
walked in ascending order, as a dense loop would: ``RatFun`` keeps no
gcd, so the order of additions decides the printed form of a sum.

Each backend has one step runner.  Float states are processed in column
blocks of ``_BLOCK_ENTRIES`` entries, each running the steps inline
through ``np.matmul``, in block order, so repeated calls agree bitwise.
Sector blocks (``_SECTOR_BLOCK_ENTRIES`` entries) run on a module-level
thread pool with one worker per usable core when there are several of
them, and their results are summed in block order too.
"""

from __future__ import annotations

import functools
import operator
import os
import threading
from typing import Callable

import numpy as np

from .errors import SingularMatrixError
from .scalars import Field, Scalar, substitute

__all__ = ["Mat", "Tensor4", "permutation", "embed", "yb_sides"]

# Column-block size of the float kernel, in entries (2 MB; 2^16 to 2^18
# ran alike): a call holds its input, its output and a few blocks instead
# of three full states, and a trace holds no full state.  Dense blocks
# stay off the thread pool: BLAS runs its own threads, and on 2 cores
# (OpenBLAS, 2 threads) a dense one-sector trace at m = 10 with 28 letters
# took 0.08-0.10 s inline through np.matmul, 0.11-0.17 s with np.matmul
# blocks on the pool and 0.26-0.43 s with per-nonzero ufunc steps there.
_BLOCK_ENTRIES = 1 << 17
# Sector blocks (see slot_trace) gather rows from anywhere in their
# block, and ran about 8% faster at 2^15 or 2^16 entries than at 2^17 on
# 2 cores with 2 MB of L2 cache each; 2^15 also holds 6 MB less.
_SECTOR_BLOCK_ENTRIES = 1 << 15
# The widest operator, in slots, that the float trace fuses neighbouring
# steps into (see _fuse): an n^3 x n^3 operator.
_FUSE_SLOTS = 3
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None


_NO_ROW: dict = {}  # the missing row of an exact matrix; never written


class Mat:
    """A rows x cols matrix over a Field.

    Exact backend: sparse rows ``{row: {col: x}}`` of the nonzero RatFun
    entries; a zero is never stored, nor an empty row, and ``at`` /
    ``tolist`` give ``field.zero`` off the support.  Sums walk rows and
    columns in ascending order.  Float backend: a complex128 ndarray.
    Instances are treated as immutable; all operations return new
    matrices.  So a matrix keeps the inverse it computed, and a second
    ``inverse`` call returns it.
    """

    __slots__ = ("field", "rows", "cols", "_a", "_inv")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._a = data
        self._inv = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        if field.exact:
            return Mat(field, rows, cols, {})
        return Mat(field, rows, cols, np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        if field.exact:
            return Mat(field, n, n, {i: {i: field.one} for i in range(n)})
        return Mat(field, n, n, np.eye(n, dtype=complex))

    @staticmethod
    def from_rows(field: Field, entries) -> "Mat":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix rows")
        if field.exact:
            return Mat(field, rows, cols, _sparse((i, enumerate(r)) for i, r in enumerate(entries)))
        return Mat(field, rows, cols, np.array(entries, dtype=complex))

    @staticmethod
    def build(field: Field, rows: int, cols: int, fn: Callable[[int, int], Scalar]) -> "Mat":
        if not rows:
            return Mat.zeros(field, 0, cols)
        return Mat.from_rows(field, [[fn(i, j) for j in range(cols)] for i in range(rows)])

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        if self.field.exact:
            return self._a.get(i, _NO_ROW).get(j, self.field.zero)
        return complex(self._a[i, j])

    def tolist(self) -> list:
        if self.field.exact:
            zero = self.field.zero
            return [[row.get(j, zero) for j in range(self.cols)]
                    for row in (self._a.get(i, _NO_ROW) for i in range(self.rows))]
        return [[complex(x) for x in row] for row in self._a]

    @property
    def square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "Mat", op) -> "Mat":
        self._check_shape(other)
        if not self.field.exact:
            return Mat(self.field, self.rows, self.cols, op(self._a, other._a))
        a, b, zero = self._a, other._a, self.field.zero
        out = []
        for i in a.keys() | b.keys():
            ra, rb = a.get(i, _NO_ROW), b.get(i, _NO_ROW)
            out.append((i, [(j, op(ra.get(j, zero), rb.get(j, zero))) for j in ra.keys() | rb.keys()]))
        return Mat(self.field, self.rows, self.cols, _sparse(out))

    def __neg__(self) -> "Mat":
        return self.scale(self.field.from_int(-1))

    def scale(self, s: Scalar) -> "Mat":
        if self.field.exact:
            if not s:
                return Mat.zeros(self.field, self.rows, self.cols)
            return Mat(self.field, self.rows, self.cols,
                       {i: {j: x * s for j, x in row.items()} for i, row in self._a.items()})
        return Mat(self.field, self.rows, self.cols, self._a * complex(s))

    def __mul__(self, s):
        return self.scale(self.field.from_int(s) if isinstance(s, int) else s)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        if not self.field.exact:
            return Mat(self.field, self.rows, other.cols, self._a @ other._a)
        # self as one step on other's rows: each entry a sum over ascending k
        return Mat(self.field, self.rows, other.cols, _exact_steps(other._a, [(self, 1, 1)]))

    def transpose(self) -> "Mat":
        if self.field.exact:
            out: dict = {}
            for i, row in self._a.items():
                for j, x in row.items():
                    out.setdefault(j, {})[i] = x
            return Mat(self.field, self.cols, self.rows, out)
        return Mat(self.field, self.cols, self.rows, self._a.T.copy())

    def trace(self) -> Scalar:
        if not self.square:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def trace_product(self, other: "Mat") -> Scalar:
        """Tr(self @ other); the float backend does not form the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("trace_product shape mismatch")
        if not self.field.exact:
            return complex(np.einsum("ij,ji->", self._a, other._a))
        return (self @ other).trace()

    def kron(self, other: "Mat") -> "Mat":
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        if not self.field.exact:
            return Mat(self.field, rows, cols, np.kron(self._a, other._a))
        # a product of two nonzeros is nonzero: a field has no zero divisors
        out = {i * other.rows + k: {j * other.cols + l: x * y for j, x in ra.items() for l, y in rb.items()}
               for i, ra in self._a.items() for k, rb in other._a.items()}
        return Mat(self.field, rows, cols, out)

    # -- slot kernel and axis gather ---------------------------------------

    def apply_slots(self, n: int, steps) -> "Mat":
        """Left-apply slot-local ``(op, first)`` steps to the row factors.

        See the module docstring for the slot convention.  On the exact
        backend each step costs the nonzeros of the state times those of
        the operator.
        """
        plan, rows, peak = _plan(n, self.rows, steps)
        if not self.field.exact:
            if self.cols <= _block_width(peak):
                # one block: the np.matmul chain's own result is the state
                a = _matmul_steps(plan, self._a) if plan else self._a.copy()
                return Mat(self.field, rows, self.cols, a)
            out = np.empty((rows, self.cols), dtype=complex)

            def fill(c0, c1):
                out[:, c0:c1] = _matmul_steps(plan, self._a[:, c0:c1])

            _column_blocks(peak, self.cols, fill)
            return Mat(self.field, rows, self.cols, out)
        return Mat(self.field, rows, self.cols, _exact_steps(self._a, plan))

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
        # the inverse permutation sends each stored entry to its new place
        dest = np.argsort(idx).tolist()
        out: dict = {}
        for i, row in self._a.items():
            for j, x in row.items():
                r, c = divmod(dest[i * cols + j], cols)
                out.setdefault(r, {})[c] = x
        return Mat(self.field, rows, cols, out)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The entries in row-major order, read as a ``rows x cols`` matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("reshape must keep the entry count")
        if not self.field.exact:
            return Mat(self.field, rows, cols, self._a.reshape(rows, cols))
        out: dict = {}
        for i, row in self._a.items():
            for j, x in row.items():
                r, c = divmod(i * self.cols + j, cols)
                out.setdefault(r, {})[c] = x
        return Mat(self.field, rows, cols, out)

    # -- comparisons ----------------------------------------------------

    def max_abs(self) -> float:
        if self.field.exact:
            raise ValueError("max_abs is a float-backend operation")
        return float(np.max(np.abs(self._a))) if self._a.size else 0.0

    def abs(self) -> "Mat":
        """The entrywise magnitudes ``|A|``; a float-backend operation."""
        if self.field.exact:
            raise ValueError("abs is a float-backend operation")
        return Mat(self.field, self.rows, self.cols, np.abs(self._a).astype(complex))

    def compare(self, other: "Mat"):
        """Return (ok, residual, witness) under the field's notion of equality.

        Float backend: residual is max|difference| / max(1, |A|, |B|) and
        the witness is the argmax index on failure.  Exact backend:
        residual is None and the witness is the first differing index in
        row-major order, found on the union of the two supports.
        """
        self._check_shape(other)
        if self.field.exact:
            a, b = self._a, other._a
            for i in sorted(a.keys() | b.keys()):
                ra, rb = a.get(i, _NO_ROW), b.get(i, _NO_ROW)
                for j in sorted(ra.keys() | rb.keys()):
                    x, y = ra.get(j), rb.get(j)
                    # no zero is stored, so an entry on one support only differs
                    if x is None or y is None or not x == y:
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
        LAPACK with magnitude pivoting, then a residual check.  The
        inverse is formed on the first call and kept, so an invertibility
        check is this call and costs nothing more when the inverse is
        needed later; a singular matrix raises on every call.
        """
        if self._inv is None:
            self._inv = self._invert()
        return self._inv

    def _invert(self) -> "Mat":
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
        # each row of an invertible matrix's inverse is nonzero
        return Mat(self.field, n, n, {i: {j - n: x for j, x in row.items() if j >= n}
                                      for i, row in enumerate(self._gauss_jordan())})

    def _gauss_jordan(self) -> list[dict]:
        """Exact elimination of the sparse rows with the identity appended."""
        n, zero = self.rows, self.field.zero
        aug = [dict(self._a.get(i, _NO_ROW)) for i in range(n)]
        for i, row in enumerate(aug):
            row[n + i] = self.field.one
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if col in aug[r]), None)
            if pivot_row is None:
                raise SingularMatrixError("singular matrix (zero pivot column %d)" % col)
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            prow = aug[col]
            inv_p = prow[col].invert()
            # a column missing from the pivot row is left unchanged
            for j, x in prow.items():
                prow[j] = x * inv_p
            for r in range(n):
                row = aug[r]
                f = row.get(col)
                if r == col or f is None:
                    continue
                for j, p in prow.items():
                    y = row.get(j, zero) - f * p
                    if y.is_zero:
                        row.pop(j, None)
                    else:
                        row[j] = y
        return aug

    # -- conversion -------------------------------------------------------

    def evaluate(self, bindings, target: Field) -> "Mat":
        """Substitute symbols into each stored entry and land in ``target``."""
        if not self.field.exact:
            raise ValueError("evaluate() starts from the exact backend")
        rows = [(i, [(j, substitute(x, bindings, target)) for j, x in row.items()])
                for i, row in self._a.items()]
        if target.exact:
            # a value that vanishes at the point is not stored
            return Mat(target, self.rows, self.cols, _sparse(rows))
        a = np.zeros((self.rows, self.cols), dtype=complex)
        for i, row in rows:
            for j, x in row:
                a[i, j] = x
        return Mat(target, self.rows, self.cols, a)

    def format_rows(self) -> list[list[str]]:
        return [
            [self.field.format(self.at(i, j)) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def __repr__(self):
        return "Mat(%dx%d over %s)" % (self.rows, self.cols, self.field.tag.backend)


def _sparse(rows) -> dict:
    """Exact sparse rows from ``(row, ((col, x), ...))`` pairs, zeros and empty rows left out."""
    out = {}
    for i, entries in rows:
        row = {j: x for j, x in entries if not x.is_zero}
        if row:
            out[i] = row
    return out


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
    """Run an exact plan on the sparse rows of an exact ``Mat``.

    The first step walks the rows in ascending order and each operator
    column from its top row down; later steps walk the rows in the
    order the previous step made them.  Rows that cancel to empty are
    left out of the result.
    """
    state = dict(sorted(state.items()))
    for op, _, rest in plan:
        k_in, k_out = op.cols, op.rows
        columns: list = [[] for _ in range(k_in)]
        for i in sorted(op._a):
            for j, v in op._a[i].items():
                columns[j].append((i, v))
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
    return {r: row for r, row in state.items() if row}


def _matmul_steps(plan, block):
    """Run a float plan on a ``(rows, w)`` column block through ``np.matmul``."""
    w = block.shape[1]
    for op, left, _ in plan:
        block = np.matmul(op._a, block.reshape(left, op.cols, -1))
    return block.reshape(-1, w)


def _executor():
    global _POOL
    if _POOL is None:
        # imported here: the import costs a few ms that most callers never need
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_WORKERS)
    return _POOL


def _map_blocks(fn, tasks) -> list:
    """``fn`` on each sector-trace task, results in task order.

    Several tasks on several cores go to the pool; otherwise they run
    inline.
    """
    if len(tasks) > 1 and _WORKERS > 1:
        return list(_executor().map(fn, tasks))
    return [fn(t) for t in tasks]


def _block_width(peak: int) -> int:
    """Columns per float block, for a plan whose largest state has ``peak`` rows."""
    return max(1, _BLOCK_ENTRIES // peak)


def _column_blocks(peak: int, cols: int, run) -> list:
    """``run(c0, c1)`` on each column block, inline and in block order."""
    width = _block_width(peak)
    return [run(c0, min(c0 + width, cols)) for c0 in range(0, cols, width)]


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


def _gather_cost(op) -> int:
    """Passes per state of one sector-graded step: the diagonal multiply,
    then a gather, a multiply and an add per off-diagonal term."""
    a = op._a
    return 1 + 3 * int((np.count_nonzero(a, axis=1) - (np.diagonal(a) != 0)).max())


def _fuse(n: int, steps, cost) -> list:
    """Runs of square steps multiplied into operators of at most ``_FUSE_SLOTS`` slots.

    Each step joins the last group of steps whose slots meet its own,
    moving past the later groups: their slots are disjoint from its own,
    so they commute with it.  The group's product, built by
    ``apply_slots`` on the identity of its window, is kept when its
    ``cost`` is no more than that of the group and the step apart;
    otherwise the step starts a group.  Steps that change the factor
    count or whose size is not a power of n, and n = 1, leave the list
    as it is.
    """
    if n < 2 or any(op.rows != op.cols for op, _ in steps):
        return steps
    groups: list = []  # [op, lo, hi, cost]: op acts on the slots lo .. hi - 1
    costs: dict = {}  # per step operator; a word repeats a few letters
    for op, first in steps:
        k = round(np.log(op.cols) / np.log(n))
        if n ** k != op.cols:
            return steps
        if op not in costs:
            costs[op] = cost(op)
        lo, hi = first, first + k
        g = next((g for g in reversed(groups) if g[1] < hi and lo < g[2]), None)
        if g is not None:
            a, b = min(lo, g[1]), max(hi, g[2])
            if b - a <= _FUSE_SLOTS:
                eye = Mat.identity(op.field, n ** (b - a))
                fused = eye.apply_slots(n, [(g[0], g[1] - a), (op, first - a)])
                c = cost(fused)
                if c <= g[3] + costs[op]:
                    g[:] = fused, a, b, c
                    continue
        groups.append([op, lo, hi, costs[op]])
    return [(g[0], g[1]) for g in groups]


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

    Equals ``Mat.identity(field, n**m).apply_slots(n, steps).trace()``,
    which is what the exact backend runs.  The float backend allocates no
    full state: it folds the leading diagonal one-slot steps into the
    starting columns, then keeps only the diagonal of each column block.
    When the supports of the remaining steps split the states into
    several sectors (``_sectors``), the state is block-diagonal by sector
    and each sector is traced on its own; otherwise, or when a step
    changes the factor count, the columns of the whole space run through
    ``_column_blocks``.  On either path, neighbouring square steps are
    first multiplied into operators of at most 3 slots (``_fuse``) where
    that path's cost per state, ``_gather_cost`` or ``op.cols``, is no
    more than that of the parts.
    """
    dim = n ** m
    _, rows, peak = _plan(n, dim, steps)
    if rows != dim:
        raise ValueError("a traced product must keep the factor count")
    if field.exact:
        return Mat.identity(field, dim).apply_slots(n, steps).trace()
    start, folded = _leading_diagonal(n, m, steps)
    steps = steps[folded:]
    order, sizes = _sectors(n, m, [op for op, _ in steps])
    if len(sizes) > 1:
        return _sector_trace(n, m, _fuse(n, steps, _gather_cost), start, order, sizes)
    steps = _fuse(n, steps, lambda op: op.cols)
    plan = _plan(n, dim, steps)[0]

    def diagonal(c0, c1):
        cols = np.arange(c1 - c0)
        block = np.zeros((dim, c1 - c0), dtype=complex)
        block[c0 + cols, cols] = start[c0:c1]
        return complex(_matmul_steps(plan, block)[c0 + cols, cols].sum())

    return sum(_column_blocks(peak, dim, diagonal), 0j)


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
        return Tensor4(n, Mat.build(field, n * n, n * n, lambda i, j: fn(*divmod(i, n), *divmod(j, n))))

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

    def partial_trace2(self) -> Mat:
        """A cap step on rows ``(a, b, d)``, column ``c``: each entry sums over ascending ``d``."""
        n = self.n
        rows = self.mat.permute_axes(n, (0, 1, 3, 2)).reshape(n ** 3, n)
        cap = Mat.identity(self.field, n).reshape(1, n * n)
        return rows.apply_slots(n, [(cap, 1)])

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

    def __repr__(self):
        return "Tensor4(n=%d over %s)" % (self.n, self.field.tag.backend)

    # -- three-slot lifts -----------------------------------------------------

    def lift12(self) -> Mat:
        return Mat.identity(self.field, self.n ** 3).apply_slots(self.n, [(self.mat, 0)])

    def lift23(self) -> Mat:
        return Mat.identity(self.field, self.n ** 3).apply_slots(self.n, [(self.mat, 1)])

    def lift13(self) -> Mat:
        # R13 = P23 R12 P23: swap the second and third factors on both sides
        return self.lift12().permute_axes(self.n, (0, 2, 1, 3, 5, 4))


def permutation(field: Field, n: int) -> Tensor4:
    """The flip operator: P^{ab}_{cd} = 1 iff a == d and b == c."""
    return Tensor4(n, Mat.identity(field, n * n).permute_axes(n, (0, 1, 3, 2)))


def embed(mu: Mat, which: str) -> Tensor4:
    """An n x n matrix embedded into a two-slot operator as kernel steps.

    ``slot1`` gives mu (x) I, ``slot2`` gives I (x) mu, ``both`` gives
    mu (x) mu (mu on slot 1, then on slot 0), all in the fixed flattening.
    """
    if not mu.square:
        raise ValueError("embed needs a square matrix")
    steps = {"slot1": [(mu, 0)], "slot2": [(mu, 1)], "both": [(mu, 1), (mu, 0)]}.get(which)
    if steps is None:
        raise ValueError("which must be 'slot1', 'slot2' or 'both'")
    n = mu.rows
    return Tensor4(n, Mat.identity(mu.field, n * n).apply_slots(n, steps))


def braid_sides(s: Tensor4) -> tuple[Mat, Mat]:
    """``(S12 S23 S12, S23 S12 S23)`` on n^3, three kernel steps each."""
    s12, s23 = [(s.mat, 0)], [(s.mat, 1)]
    eye = Mat.identity(s.field, s.n ** 3)
    return eye.apply_slots(s.n, s12 + s23 + s12), eye.apply_slots(s.n, s23 + s12 + s23)


def yb_sides(r: Tensor4) -> tuple[Mat, Mat]:
    """Both triple products of the quantum Yang-Baxter equation on n^3.

    Returns (R12 R13 R23, R23 R13 R12) as n^3 x n^3 matrices in the
    fixed three-slot flattening.  For every R, with B = PR,
    ``R12 R13 R23`` is ``B23 B12 B23`` and ``R23 R13 R12`` is
    ``B12 B23 B12``, each with its three row slots reversed: the braid
    sides of B, three kernel steps a side and no flip step.
    """
    b121, b232 = braid_sides(r.permute_axes((1, 0, 2, 3)))
    reverse = (2, 1, 0, 3, 4, 5)
    return b232.permute_axes(r.n, reverse), b121.permute_axes(r.n, reverse)
