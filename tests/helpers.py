"""Shared helpers for the test suite: random values and matrices."""

import functools
import math
from fractions import Fraction

import numpy as np

from ybtk.errors import SingularMatrixError
from ybtk.rmatrix import AxiomResult
from ybtk.scalars import Field, _cmul, _format_poly, _monomial_quotient, _Poly, substitute
from ybtk import tensors
from ybtk.tensors import Mat, Tensor4, permutation


def is_identity(m: Mat) -> bool:
    """Whether ``m`` equals the identity under its field's notion of equality."""
    return m.square and m.eq(Mat.identity(m.field, m.rows))


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


def union_find_sectors(n: int, m: int, steps):
    """The float trace's sectors by union-find over every state and
    off-diagonal nonzero of each step: the states in sector-major order
    (sectors by least state, states ascending) and the sector sizes."""
    dim = n ** m
    parent = list(range(dim))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for op, first in steps:
        k = op.cols
        rest = dim // (n ** first * k)
        pairs = [(i, j) for i in range(k) for j in range(k) if i != j and op.at(i, j) != 0]
        for state in range(dim):
            high, low = divmod(state, rest * k)
            for i, j in pairs:
                a = root((high * k + i) * rest + low % rest)
                b = root((high * k + j) * rest + low % rest)
                parent[max(a, b)] = min(a, b)
    sectors: dict = {}
    for state in range(dim):
        sectors.setdefault(root(state), []).append(state)
    groups = [sectors[r] for r in sorted(sectors)]
    return np.array([s for g in groups for s in g]), np.array([len(g) for g in groups])


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


def kron_embed(mu: Mat, which: str) -> Tensor4:
    """``embed`` as Kronecker products: mu (x) I, I (x) mu or mu (x) mu."""
    eye = Mat.identity(mu.field, mu.rows)
    return Tensor4(mu.rows, {"slot1": mu.kron(eye), "slot2": eye.kron(mu), "both": mu.kron(mu)}[which])


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
# dense references for the exact fast paths: the sparse Mat.compare,
# RatFun.__eq__, the sparse Gauss-Jordan of Mat.inverse and the exact
# product that Mat.__matmul__ runs through the slot kernel


def dense_matmul(a: Mat, b: Mat) -> Mat:
    """Exact ``a @ b`` as a loop over every i, k and j, each sum in ascending k."""
    f, right = a.field, b.tolist()
    rows = []
    for row in a.tolist():
        acc = [f.zero] * b.cols
        for k, x in enumerate(row):
            for j, y in enumerate(right[k]):
                acc[j] = acc[j] + x * y
        rows.append(acc)
    return Mat.from_rows(f, rows)


def entrywise_compare(a: Mat, b: Mat):
    """Exact ``Mat.compare`` as a row-major walk over every entry of ``tolist()``."""
    a._check_shape(b)
    for i, (row_a, row_b) in enumerate(zip(a.tolist(), b.tolist())):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if not x == y:
                return False, None, (i, j)
    return True, None, None


def cross_multiply_eq(a, b):
    """``RatFun.__eq__`` without its shortcuts: always cross-multiply."""
    o = a._coerce(b)
    if o is None:
        return NotImplemented
    return a.num.mul(o.den) == o.num.mul(a.den)


def dense_inverse(m: Mat) -> Mat:
    """Exact Gauss-Jordan that updates every column of the augmented matrix."""
    if not m.square:
        raise SingularMatrixError("only square matrices are invertible")
    f, n = m.field, m.rows
    aug = [list(row) + [f.one if i == j else f.zero for j in range(n)]
           for i, row in enumerate(m.tolist())]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if pivot_row is None:
            raise SingularMatrixError("singular matrix (zero pivot column %d)" % col)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_p = aug[col][col].invert()
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            f_r = aug[r][col]
            if r != col and not f_r.is_zero:
                aug[r] = [x - f_r * y for x, y in zip(aug[r], aug[col])]
    return Mat.from_rows(f, [row[n:] for row in aug])


def perturbed(t: Tensor4) -> Tensor4:
    """``t`` with 2 added to its middle diagonal entry."""
    rows = t.mat.tolist()
    i = len(rows) // 2
    rows[i][i] = rows[i][i] + t.field.from_int(2)
    return Tensor4(t.n, Mat.from_rows(t.field, rows))


def use_dense_references(monkeypatch):
    """Route the three exact fast paths through the dense references."""
    from ybtk.scalars import RatFun

    sparse_compare = Mat.compare

    def compare(a, b):
        return (entrywise_compare if a.field.exact else sparse_compare)(a, b)

    monkeypatch.setattr(Mat, "compare", compare)
    monkeypatch.setattr(RatFun, "__eq__", cross_multiply_eq)
    monkeypatch.setattr(Mat, "inverse", dense_inverse)


# ---------------------------------------------------------------------------
# references for the exact decision shortcuts: the Yang-Baxter sides with
# the flip as kernel steps, one braid-relation run per enhanced object, the flip
# as a permutation matrix, the axiom products as Kronecker lifts with ENH5
# as its own chain, and the general reduction for every denominator


def flip_yb_sides(r: Tensor4):
    """(R12 R13 R23, R23 R13 R12) as kernel chains on R itself, where
    R13 = P23 R12 P23 runs as three steps."""
    p = permutation(r.field, r.n).mat
    r12, r23 = [(r.mat, 0)], [(r.mat, 1)]
    r13 = [(p, 1), (r.mat, 0), (p, 1)]
    eye = Mat.identity(r.field, r.n ** 3)
    # a product's rightmost factor is its first step
    return eye.apply_slots(r.n, r23 + r13 + r12), eye.apply_slots(r.n, r12 + r13 + r23)


def flip_check_qyb(r: Tensor4) -> AxiomResult:
    """``check_qyb`` on ``flip_yb_sides``."""
    left, right = flip_yb_sides(r)
    ok, residual, witness = left.compare(right)
    if ok:
        return AxiomResult(True, residual)
    n = r.n
    row, col = witness
    six = (row // n ** 2, row // n % n, row % n, col // n ** 2, col // n % n, col % n)
    return AxiomResult(False, residual, six,
                       "component equation fails at (a,b,c,u,v,w)=%s" % (six,))


def each_braid_relation(enhanced) -> list:
    """The braid relation of every enhanced pair and quadruple, one run each."""
    from ybtk import rmatrix

    return [rmatrix._yb3(x.s) for x in enhanced]


def flip_braid_forms(r: Tensor4):
    """(PR, RP) as products with the permutation matrix."""
    p = permutation(r.field, r.n)
    return p @ r, r @ p


def flip_enh4_factors(first: Tensor4, third: Tensor4):
    """``(P first)^{t1}`` and ``(third P)^{t1}`` through the permutation matrix."""
    p = permutation(first.field, first.n)
    return (p @ first).t1(), (third @ p).t1()


def flip_enh5_factors(first: Tensor4, last: Tensor4):
    """``(first P)^{t2}`` and ``(P last)^{t2}`` through the permutation matrix."""
    p = permutation(first.field, first.n)
    return (first @ p).t2(), (p @ last).t2()


def _min_exps(p: _Poly) -> tuple:
    return tuple(map(min, zip(*p.terms)))


def _shifted_down(p: _Poly, by: tuple) -> _Poly:
    return _Poly(p.nv, {tuple(e - b for e, b in zip(m, by)): c for m, c in p.terms.items()})


def _content(p: _Poly) -> int:
    return math.gcd(*[x for c in p.terms.values() for x in c])


def _divide(p: _Poly, g: int) -> _Poly:
    return _Poly(p.nv, {m: (re // g, im // g) for m, (re, im) in p.terms.items()})


def general_reduce(num: _Poly, den: _Poly) -> tuple[_Poly, _Poly]:
    """``scalars._reduce`` as its separate general steps: shift, content,
    monomial quotient, sign."""
    if num.is_zero():
        return num, _Poly.const(den.nv, (1, 0))
    shift = tuple(map(min, _min_exps(num), _min_exps(den)))
    num = _shifted_down(num, shift)
    den = _shifted_down(den, shift)
    g = _content(num)
    if g != 1:
        g = math.gcd(g, _content(den))
        if g != 1:
            num = _divide(num, g)
            den = _divide(den, g)
    if len(num.terms) == len(den.terms) and len(den.terms) > 1:
        collapsed = _monomial_quotient(num, den)
        if collapsed is not None:
            num, den = collapsed
    lead = den.terms[max(den.terms)]
    if lead[0] < 0 or (not lead[0] and lead[1] < 0):
        num = num.neg()
        den = den.neg()
    return num, den


def kron_product(s: Tensor4, *factors) -> Tensor4:
    """``rmatrix._product`` as the verifiers once built it: each factor
    lifted to n^2 by ``kron_embed``, ``(A, 0), (B, 1)`` lifted as one
    A (x) B, and the lifts multiplied left to right."""
    n, lifts, k = s.n, [], 0
    while k < len(factors):
        op, first = factors[k]
        if op.rows == n * n:
            lifts.append(Tensor4(n, op))
        elif first == 0 and k + 1 < len(factors) and factors[k + 1][0].rows == n and factors[k + 1][1] == 1:
            k += 1
            lifts.append(Tensor4(n, op.kron(factors[k][0])))
        else:
            lifts.append(kron_embed(op, "slot1" if first == 0 else "slot2"))
        k += 1
    out = lifts[0]
    for lift in lifts[1:]:
        out = out @ lift
    return out


def kron_enh4_enh5_products(s: Tensor4, mu: Mat, s_inv: Tensor4):
    """ENH4's products from Kronecker lifts and ENH5's as their own chain,
    ``(I (x) mu^-T) (first P)^{t2} (I (x) mu^T) (P last)^{t2}``, each
    multiplied left to right."""
    mu_inv = mu.inverse()
    mu2, mu_inv2 = kron_embed(mu, "slot2").mat, kron_embed(mu_inv, "slot2").mat
    mut2, mut_inv2 = kron_embed(mu.transpose(), "slot2").mat, kron_embed(mu_inv.transpose(), "slot2").mat

    def enh4(first, third):
        pf, tp = flip_enh4_factors(first, third)
        return pf.mat @ mu2 @ tp.mat @ mu_inv2

    def enh5(first, last):
        fp, pl = flip_enh5_factors(first, last)
        return mut_inv2 @ fp.mat @ mut2 @ pl.mat

    return [enh4(s_inv, s), enh4(s, s_inv)], [enh5(s, s_inv), enh5(s_inv, s)]


def kron_enh5_holds(s: Tensor4, mu: Mat) -> bool:
    """ENH5's verdict from its own Kronecker chain, which shares no product
    with ENH4's: both products equal the identity."""
    eye = Mat.identity(s.field, s.n * s.n)
    return all(x.eq(eye) for x in kron_enh4_enh5_products(s, mu, s.inverse())[1])


def kron_mumu_traces(s: Tensor4, mu: Mat) -> list[Mat]:
    """``Tr2(S^{±1} (mu (x) mu))`` on the Kronecker ``mu (x) mu``, each
    second trace summed entry by entry: the quadruple's ENH2 left sides
    as they were built before ENH2 was read off ENH3's traces."""
    f, n, mumu = s.field, s.n, kron_embed(mu, "both")
    out = []
    for x in (s, s.inverse()):
        t = x @ mumu
        out.append(Mat.build(f, n, n, lambda a, c: sum((t.entry(a, b, c, b) for b in range(n)), f.zero)))
    return out


def use_decision_references(monkeypatch):
    """Route the exact decision shortcuts through the references above."""
    from ybtk import rmatrix, scalars

    monkeypatch.setattr(rmatrix, "check_qyb", flip_check_qyb)
    monkeypatch.setattr(rmatrix, "_braid_relations", each_braid_relation)
    monkeypatch.setattr(rmatrix, "braid_forms", flip_braid_forms)
    monkeypatch.setattr(rmatrix, "_product", kron_product)
    monkeypatch.setattr(rmatrix, "_enh4_enh5_products", kron_enh4_enh5_products)
    monkeypatch.setattr(scalars, "_reduce", general_reduce)


def use_fresh_parsers(monkeypatch):
    """Make every ``cli.main`` call parse with a parser built for that call."""
    from ybtk import cli

    class FreshParser:
        def parse_args(self, argv=None):
            return cli.build_parser().parse_args(argv)

    monkeypatch.setattr(cli, "_parser", FreshParser())


def entrywise_evaluate(m: Mat, bindings, target: Field) -> Mat:
    """``Mat.evaluate`` as one ``substitute`` per entry, zeros included."""
    if not m.field.exact:
        raise ValueError("evaluate() starts from the exact backend")
    return Mat.build(target, m.rows, m.cols, lambda i, j: substitute(m.at(i, j), bindings, target))


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


# ---------------------------------------------------------------------------
# exact scalars with Fraction coefficients: RatFun arithmetic as it ran
# before its coefficients became Gaussian integers, for property tests


def _gcd_fraction(a: Fraction, b: Fraction) -> Fraction:
    # gcd on positive rationals: gcd(p/q, r/s) = gcd(p*s, r*q) / (q*s)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def _fraction_content(p: _Poly) -> Fraction:
    num_g = 0
    den_l = 1
    for re, im in p.terms.values():
        for f in (re, im):
            if f:
                num_g = math.gcd(num_g, abs(f.numerator))
                den_l = den_l * f.denominator // math.gcd(den_l, f.denominator)
    return Fraction(num_g, den_l)


def _fraction_cinv(a):
    ar, ai = a
    if not ai:
        return (1 / Fraction(ar), Fraction(0))
    d = ar * ar + ai * ai
    return (Fraction(ar) / d, Fraction(-ai) / d)


def _fraction_scale(p: _Poly, c) -> _Poly:
    return _Poly(p.nv, {m: _cmul(v, c) for m, v in p.terms.items()})


def _fraction_monomial_quotient(num: _Poly, den: _Poly):
    nv = num.nv
    lead_n = max(num.terms)
    lead_d = max(den.terms)
    c = _cmul(num.terms[lead_n], _fraction_cinv(den.terms[lead_d]))
    exps = tuple(a - b for a, b in zip(lead_n, lead_d))
    up = tuple(max(e, 0) for e in exps)
    down = tuple(max(-e, 0) for e in exps)
    one = (Fraction(1), Fraction(0))
    lhs = num if not any(down) else num.mul(_Poly(nv, {down: one}))
    if lhs == den.mul(_Poly(nv, {up: c})):
        return _Poly(nv, {up: c}), _Poly(nv, {down: one})
    return None


def fraction_reduce(num: _Poly, den: _Poly) -> tuple[_Poly, _Poly]:
    """Divide out common monomial and rational content; fix the sign of den."""
    if num.is_zero():
        return num, _Poly.const(den.nv, (Fraction(1), Fraction(0)))
    shift = tuple(min(a, b) for a, b in zip(_min_exps(num), _min_exps(den)))
    num = _shifted_down(num, shift)
    den = _shifted_down(den, shift)
    g = _gcd_fraction(_fraction_content(num), _fraction_content(den))
    if g != 1:
        inv = (1 / g, Fraction(0))
        num = _fraction_scale(num, inv)
        den = _fraction_scale(den, inv)
    if len(num.terms) == len(den.terms) and len(den.terms) > 1:
        collapsed = _fraction_monomial_quotient(num, den)
        if collapsed is not None:
            num, den = collapsed
    lead = den.terms[max(den.terms)]
    if lead[0] < 0 or (not lead[0] and lead[1] < 0):
        num = num.neg()
        den = den.neg()
    return num, den


class FractionRatFun:
    """num/den with Gaussian-rational Fraction coefficients, reduced by ``fraction_reduce``."""

    def __init__(self, syms, num: _Poly, den: _Poly, reduce=True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            num, den = fraction_reduce(num, den)
        self.syms, self.num, self.den = syms, num, den

    @staticmethod
    def from_gauss(syms, re, im=0):
        nv = len(syms)
        one = _Poly.const(nv, (Fraction(1), Fraction(0)))
        return FractionRatFun(syms, _Poly.const(nv, (Fraction(re), Fraction(im))), one, False)

    @staticmethod
    def gen(syms, name):
        nv = len(syms)
        mono = tuple(int(s == name) for s in syms)
        one = (Fraction(1), Fraction(0))
        return FractionRatFun(syms, _Poly(nv, {mono: one}), _Poly.const(nv, one), False)

    @property
    def is_zero(self):
        return not self.num.terms

    def __add__(self, o):
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.den.terms == o.den.terms:
            return FractionRatFun(self.syms, self.num.add(o.num), self.den)
        num = self.num.mul(o.den).add(o.num.mul(self.den))
        return FractionRatFun(self.syms, num, self.den.mul(o.den))

    def __neg__(self):
        return FractionRatFun(self.syms, self.num.neg(), self.den, False)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if self.is_zero or o.is_zero:
            return FractionRatFun.from_gauss(self.syms, 0)
        if self.num.terms == self.den.terms:
            return o
        if o.num.terms == o.den.terms:
            return self
        return FractionRatFun(self.syms, self.num.mul(o.num), self.den.mul(o.den))

    def invert(self):
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero scalar")
        return FractionRatFun(self.syms, self.den, self.num)

    def __truediv__(self, o):
        return self * o.invert()

    def __pow__(self, k):
        base = self.invert() if k < 0 else self
        k = abs(k)
        out = FractionRatFun.from_gauss(self.syms, 1)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, o):
        if self.is_zero or o.is_zero:
            return self.is_zero and o.is_zero
        return self.num.mul(o.den) == o.num.mul(self.den)

    def text(self) -> str:
        """``format_scalar`` text: a monomial denominator folds into the terms."""
        if self.is_zero:
            return "0"
        if len(self.den.terms) == 1:
            ((dm, dc),) = self.den.terms.items()
            inv = _fraction_cinv(dc)
            folded = {tuple(e - de for e, de in zip(m, dm)): _cmul(c, inv)
                      for m, c in self.num.terms.items()}
            return _format_poly(_Poly(self.num.nv, folded), self.syms)
        return "(%s)/(%s)" % (_format_poly(self.num, self.syms), _format_poly(self.den, self.syms))


# ---------------------------------------------------------------------------
# earlier versions of the float trace and its plan helpers (the leading
# diagonal as starting columns, ends of the word as given, window sectors
# packed like the whole space's): references for the differential tests
# in test_kernel.py


def earlier_slots(n: int, op) -> int:
    k = round(np.log(op.cols) / np.log(n))
    return k if n ** k == op.cols else 0


def earlier_leading_diagonal(n: int, m: int, steps):
    """The diagonal that the leading diagonal one-slot steps make, and their count."""
    factors = [np.ones(n, dtype=complex) for _ in range(m)]
    count = 0
    for op, first in steps:
        a = op._a
        if a.shape != (n, n) or np.count_nonzero(a - np.diag(np.diagonal(a))):
            break
        factors[first] = factors[first] * np.diagonal(a)
        count += 1
    return functools.reduce(np.kron, factors, np.ones(1, dtype=complex)), count


def earlier_sectors(n: int, m: int, steps):
    """The states in sector-major order and the sector sizes, one support key per step."""
    dim = n ** m
    states = np.arange(dim)
    if any(op.rows != op.cols for op, _ in steps):
        return states, np.array([dim])
    maps: dict = {}
    for op, first in steps:
        link = op._a != 0
        np.fill_diagonal(link, False)
        key = ((link | link.T).tobytes(), first)
        if key not in maps:
            rest = dim // (n ** first * op.cols)
            loc = states // rest % op.cols
            maps[key] = states + (tensors._components(op._a)[loc] - loc) * rest
    label = states
    while True:
        new = label.copy()
        for idx in maps.values():
            np.minimum.at(new, idx, new.copy())
            np.minimum(new, new[idx], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, sector = np.unique(label, return_inverse=True)
    return np.argsort(sector, kind="stable"), np.bincount(sector)


def earlier_block_order(op):
    """Digits in block order, the singleton diagonal and ``(lo, hi, block)`` per component."""
    least = tensors._components(op._a)
    size = np.bincount(least, minlength=len(least))[least]
    digits = np.lexsort((least, size > 1))
    singles = int(np.count_nonzero(size == 1))
    a = op._a[np.ix_(digits, digits)]
    bounds = [0, *(np.flatnonzero(np.diff(least[digits])) + 1).tolist(), len(least)]
    blocks = [(lo, hi, np.ascontiguousarray(a[lo:hi, lo:hi]))
              for lo, hi in zip(bounds, bounds[1:]) if lo >= singles]
    return digits, np.diagonal(a)[:singles].copy(), blocks


def earlier_pack(sizes) -> np.ndarray:
    packed: list = []
    for size in sizes.tolist():
        if packed and (packed[-1] + size) ** 2 <= tensors._SECTOR_BLOCK_ENTRIES:
            packed[-1] += size
        else:
            packed.append(size)
    return np.array(packed)


def earlier_ends(n: int, steps):
    """Head, middle and tail of the step list as given, not rotated."""
    def fit(seq) -> int:
        slots: set = set()
        count = 0
        for op, first in seq:
            k = earlier_slots(n, op)
            slots |= set(range(first, first + k))
            if not k or n ** len(slots) > tensors._END_DIGITS:
                break
            count += 1
        return count

    head = fit(steps)
    tail = len(steps) - fit(reversed(steps[head:]))
    return steps[:head], steps[head:tail], steps[tail:]


def earlier_end_operator(n: int, m: int, steps, states):
    """The product of ``steps`` on their window as tables by row, with
    the window's sectors packed like the whole space's."""
    slots = sorted({first + i for op, first in steps for i in range(earlier_slots(n, op))})
    k = len(slots)
    pos = {s: i for i, s in enumerate(slots)}
    steps = [(op, pos[first]) for op, first in steps]
    order, sizes = earlier_sectors(n, k, steps)
    packed = earlier_pack(sizes)
    chain, (first, _), (last, _) = tensors._block_chain(n, k, steps, order, packed)
    r = np.arange(n ** k)
    j = np.arange(sizes.max())
    lo = np.repeat(np.cumsum(sizes) - sizes, sizes)
    pad = j >= np.repeat(sizes, sizes)[:, None]
    u = order[:, None]
    d = order[np.where(pad, r[:, None], lo[:, None] + j)]
    value = np.empty(d.shape, dtype=complex)
    o = 0
    for p, size in enumerate(packed.tolist()):
        x = np.eye(size, dtype=complex)
        x = tensors._run_chain(chain, p, o, x, np.empty_like(x))
        value[o:o + size] = x[last[u[o:o + size]], first[d[o:o + size]]]
        o += size
    digits = np.arange(n)
    window = np.zeros((n,) * m, dtype=np.int64)
    offset = np.zeros((n,) * k, dtype=np.int64)
    for i, slot in enumerate(slots):
        window += (digits * n ** (k - 1 - i)).reshape((n,) + (1,) * (m - 1 - slot))
        offset += (digits * n ** (m - 1 - slot)).reshape((n,) + (1,) * (k - 1 - i))
    offset = offset.ravel()
    row = np.empty_like(order)
    row[order] = r
    return row[window.ravel()[states]], offset[d] - offset[u], value, pad


def earlier_slot_trace(n: int, m: int, steps) -> complex:
    """The float trace: the leading diagonal as the starting columns,
    then the sectors, each column from the head's product through the
    middle to the tail's, or the dense column blocks with one sector."""
    start, folded = earlier_leading_diagonal(n, m, steps)
    steps = steps[folded:]
    order, sizes = earlier_sectors(n, m, steps)
    dim = n ** m
    if len(sizes) == 1:
        steps = tensors._fuse(n, steps, lambda op: op.cols)
        block = np.diag(start)
        for op, first in steps:
            block = np.matmul(op._a, block.reshape(n ** first, op.cols, -1)).reshape(-1, dim)
        return complex(np.trace(block))
    steps = tensors._fuse(n, steps, tensors._block_cost)
    packed = earlier_pack(sizes)
    head, middle, tail = earlier_ends(n, steps)
    chain, (first, _), (last, _) = tensors._block_chain(n, m, middle, order, packed)
    head_row, head_shift, head_value, _ = earlier_end_operator(
        n, m, [(op.transpose(), slot) for op, slot in reversed(head)], order)
    tail_row, tail_shift, tail_value, pad = earlier_end_operator(n, m, tail, order)
    tail_value[pad] = 0
    total = 0j
    o = 0
    for p, size in enumerate(packed.tolist()):
        width = max(1, tensors._SECTOR_BLOCK_ENTRIES // size)
        for c0 in range(0, size, width):
            c1 = min(c0 + width, size)
            w = c1 - c0
            x = np.zeros((size, w), dtype=complex)
            states = order[o + c0:o + c1, None]
            cols = np.arange(w)[:, None]
            r = head_row[o + c0:o + c1]
            x[first[head_shift[r] + states], cols] = head_value[r] * start[states]
            x = tensors._run_chain(chain, p, o, x, np.empty_like(x))
            r = tail_row[o + c0:o + c1]
            total += complex((x[last[tail_shift[r] + states], cols] * tail_value[r]).sum())
        o += size
    return total
