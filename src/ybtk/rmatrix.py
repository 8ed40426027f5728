"""Enhancement decision procedures for Yang-Baxter solutions.

Given an ``n^2 x n^2`` matrix ``R``:

* ``check_qyb`` tests the quantum Yang-Baxter equation
  ``R12 R13 R23 = R23 R13 R12``.
* ``braid_forms`` returns the braid-style solutions ``PR`` and ``RP``.
* ``second_inverse`` computes ``R~ = ((R^{t2})^{-1})^{t2}``; existence of
  this matrix is what "biinvertible" means.
* ``compute_uv`` contracts ``R~`` into the pair of ``n x n`` matrices
  ``U^i_j = sum_a R~^{ai}_{ja}`` and ``V^i_j = sum_a R~^{ia}_{aj}``.
* ``enhancement_test`` decides whether ``V U`` is a nonzero scalar
  multiple ``alpha^2 I`` of the identity, which is the enhancement
  criterion, and extracts ``alpha`` when a monomial square root exists.
* ``enhance`` builds the enhanced pairs ``(alpha PR, alpha^{-1} U)``,
  ``(alpha RP, alpha^{-1} V)`` and the enhanced quadruples
  ``(PR, U, alpha^{-1}, alpha)``, ``(RP, V, alpha^{-1}, alpha)``, each
  re-checked by its verifier before being returned.
* ``verify_quadruple`` checks the trace-normalised axioms
  (braid relation, commutation with ``mu (x) mu``, and
  ``Tr2(S^{±1}(mu (x) mu)) = alpha^{±1} beta mu``).
* ``verify_pair`` checks the duality-functor axioms (braid relation,
  commutation, ``Tr2(S^{±1}(I (x) mu)) = I``, and the two transpose
  duality identities ENH4 and ENH5).  ENH5 is read off ENH4's products:
  ``(X^{t1})^T = X^{t2}`` and ``(I (x) mu)^T = I (x) mu^T``, so each ENH5
  product is an ENH4 product transposed.

The verifiers accept any invertible input and report per-axiom results;
only ``enhance`` insists on biinvertibility.  Every axiom product is a
slot-kernel chain on the identity (``_product``), ``mu`` a step on its own
slot.  Every second-trace check reads ``T± = Tr2(S^{±1}(I (x) mu))``
(``_second_traces``); the quadruple's ENH2 reads ``T± mu``, since
``Tr2(X (mu (x) I)) = Tr2(X) mu`` for every X.  No Kronecker product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    NoMonomialRootError,
    NotBiinvertibleError,
    NotEnhanceableError,
    NotInvertibleError,
    SingularMatrixError,
)
from .scalars import Scalar, monomial_sqrt, scalar_invert
from .tensors import Mat, Tensor4, braid_sides, yb_sides

__all__ = [
    "AxiomResult",
    "EnhancementReport",
    "EnhancedPair",
    "EnhancedQuadruple",
    "Enhancement",
    "EnhancementOutcome",
    "check_qyb",
    "full_check",
    "braid_forms",
    "second_inverse",
    "compute_uv",
    "enhancement_test",
    "enhance",
    "verify_quadruple",
    "verify_pair",
    "slot_identities",
    "trace_identities",
    "contraction_identity",
    "twist_shadow",
]


@dataclass(frozen=True)
class AxiomResult:
    """Outcome of one axiom check.

    ``residual`` is set in the float backend (scaled max deviation);
    ``witness`` is set in the exact backend (the first offending index
    tuple, 0-based).
    """

    ok: bool
    residual: float | None = None
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


@dataclass
class EnhancementReport:
    """Per-axiom results."""

    results: dict[str, AxiomResult] = dc_field(default_factory=dict)

    def __getitem__(self, axiom: str) -> AxiomResult:
        return self.results[axiom]

    def __contains__(self, axiom: str) -> bool:
        return axiom in self.results

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def lines(self) -> list[str]:
        out = []
        for name, r in self.results.items():
            status = "pass" if r.ok else "FAIL"
            extra = ""
            if r.residual is not None:
                extra = " (residual %.3g)" % r.residual
            elif r.witness is not None:
                extra = " (witness %s)" % (r.witness,)
            if r.detail and not r.ok:
                extra += " " + r.detail
            out.append("%s: %s%s" % (name, status, extra))
        return out


def _compare(lhs: Mat, rhs: Mat, label: str = "") -> AxiomResult:
    ok, residual, witness = lhs.compare(rhs)
    detail = ""
    if not ok and lhs.field.exact and witness is not None:
        f, (i, j) = lhs.field, witness
        detail = "%sat %s: %s != %s" % ((label + " ") if label else "", witness,
                                        f.format(lhs.at(i, j)), f.format(rhs.at(i, j)))
    elif not ok and label:
        detail = label
    return AxiomResult(ok, residual, witness, detail)


# ---------------------------------------------------------------------------
# basic procedures


def check_qyb(r: Tensor4) -> AxiomResult:
    """Quantum Yang-Baxter check on ``yb_sides``, which builds each side
    as the braid sides of PR; the witness is a component equation."""
    left, right = yb_sides(r)
    ok, residual, witness = left.compare(right)
    if ok:
        return AxiomResult(True, residual)
    n = r.n
    row, col = witness
    a, rest = divmod(row, n * n)
    b, c = divmod(rest, n)
    u, rest = divmod(col, n * n)
    v, w = divmod(rest, n)
    six = (a, b, c, u, v, w)
    detail = "component equation fails at (a,b,c,u,v,w)=%s" % (six,)
    return AxiomResult(False, residual, six, detail)


def braid_forms(r: Tensor4) -> tuple[Tensor4, Tensor4]:
    """The braid-style solutions (PR, RP) attached to R, as index maps.

    ``(PR)^{ab}_{cd} = R^{ba}_{cd}`` and ``(RP)^{ab}_{cd} = R^{ab}_{dc}``.
    """
    return r.permute_axes((1, 0, 2, 3)), r.permute_axes((0, 1, 3, 2))


def second_inverse(r: Tensor4) -> Tensor4:
    """``((R^{t2})^{-1})^{t2}``; raises when R or R^{t2} is singular."""
    try:
        r.inverse()  # kept by r.mat, so enhance's r.inverse() reuses it
    except SingularMatrixError as exc:
        raise NotInvertibleError("the matrix itself is singular") from exc
    try:
        inv_t2 = r.t2().inverse()
    except SingularMatrixError as exc:
        raise NotBiinvertibleError("the second transpose is singular") from exc
    return inv_t2.t2()


def compute_uv(r: Tensor4) -> tuple[Mat, Mat]:
    """The contraction matrices U and V of the second inverse."""
    # U^i_j = sum_a R~^{ai}_{ja} and V^i_j = sum_a R~^{ia}_{aj}: a swap of
    # the upper or lower indices (the braid forms of R~) turns each into a
    # second partial trace
    pr, rp = braid_forms(second_inverse(r))
    return pr.partial_trace2(), rp.partial_trace2()


# ---------------------------------------------------------------------------
# the enhancement criterion


@dataclass
class EnhancementOutcome:
    """Result of the scalar test VU = alpha^2 I."""

    biinvertible: bool
    u: Mat | None = None
    v: Mat | None = None
    vu: Mat | None = None
    uv_equals_vu: bool | None = None
    alpha_sq: Scalar | None = None
    alpha: Scalar | None = None


def _scalar_multiple_of_identity(vu: Mat, v: Mat, u: Mat) -> Scalar | None:
    """The nonzero scalar c with VU == c*I, or None.

    Exact backend: under the field's equality.  Float backend: in the
    magnitude ``M = |V||U|`` of VU's terms, which bounds their round-off
    where VU itself may be tiny (q^-8 I for sl_4 at q = 15): c is nonzero
    when ``|c| > tol*M00``, and ``|VU - cI| <= tol*(M + M00*J)`` entry by
    entry, J the all-ones matrix.  The floor ``M00*J`` is normwise: V and U
    carry the round-off of the inverse of R^{t2} into every entry, so an
    entry whose terms are that round-off alone (``M`` about 1e-26 on an
    exact zero of family 4 at q = 1.3+0.2i) is read against the scale of
    c, not against its own terms.
    """
    f = vu.field
    c = vu.at(0, 0)
    eye = Mat.identity(f, vu.rows)
    if f.exact:
        return None if not c or not vu.eq(eye.scale(c)) else c
    mag = v.abs() @ u.abs()
    m00 = mag.at(0, 0).real
    ones = Mat.build(f, vu.rows, vu.cols, lambda i, j: f.one)
    excess = (vu - eye.scale(c)).abs() - (mag + ones.scale(m00)).scale(f.tolerance)
    if abs(c) <= f.tolerance * m00 or any(x.real > 0 for row in excess.tolist() for x in row):
        return None
    return c


def enhancement_test(r: Tensor4) -> EnhancementOutcome:
    """Decide enhanceability: biinvertibility plus VU = alpha^2 I."""
    try:
        u, v = compute_uv(r)
    except (NotInvertibleError, NotBiinvertibleError):
        return EnhancementOutcome(biinvertible=False)
    vu = v @ u
    uv = u @ v
    alpha_sq = _scalar_multiple_of_identity(vu, v, u)
    alpha = monomial_sqrt(alpha_sq, r.field.tag.imaginary) if alpha_sq is not None else None
    return EnhancementOutcome(
        biinvertible=True,
        u=u,
        v=v,
        vu=vu,
        uv_equals_vu=uv.eq(vu),
        alpha_sq=alpha_sq,
        alpha=alpha,
    )


def full_check(r: Tensor4) -> tuple[EnhancementReport, EnhancementOutcome]:
    """Equation, biinvertibility and scalar test as one report.

    Report keys: ``YB`` (the quantum Yang-Baxter equation), ``BIINV``
    (both R and its second transpose invertible), ``VU_SCALAR`` (V U is
    a nonzero scalar multiple of the identity).
    """
    report = EnhancementReport()
    report.results["YB"] = check_qyb(r)
    outcome = enhancement_test(r)
    if outcome.biinvertible:
        report.results["BIINV"] = AxiomResult(True)
        if outcome.alpha_sq is not None:
            report.results["VU_SCALAR"] = AxiomResult(True)
        else:
            report.results["VU_SCALAR"] = AxiomResult(
                False, detail="V U is not a nonzero scalar multiple of the identity"
            )
    else:
        report.results["BIINV"] = AxiomResult(
            False, detail="the second transpose (or the matrix itself) is singular"
        )
        report.results["VU_SCALAR"] = AxiomResult(False, detail="not biinvertible")
    return report, outcome


@dataclass
class EnhancedPair:
    """(S, mu) satisfying the duality-functor axioms."""

    s: Tensor4
    mu: Mat
    provenance: str = "user"


@dataclass
class EnhancedQuadruple:
    """(S, mu, alpha, beta) satisfying the trace-normalised axioms."""

    s: Tensor4
    mu: Mat
    alpha: Scalar
    beta: Scalar
    provenance: str = "user"


@dataclass
class Enhancement:
    alpha: Scalar
    pairs: list[EnhancedPair]
    quadruples: list[EnhancedQuadruple]


def enhance(r: Tensor4) -> Enhancement:
    """Construct the enhanced pairs and quadruples attached to R.

    Requires biinvertibility and VU = alpha^2 I with a representable
    alpha.  Every returned object has already passed its verifier's
    axioms; the four checks share one inverse of R and, on the exact
    backend, one braid-relation run (``_braid_relations``).
    """
    outcome = enhancement_test(r)
    if not outcome.biinvertible:
        second_inverse(r)  # re-raise the precise reason
    if outcome.alpha_sq is None:
        raise NotEnhanceableError("V*U is not a nonzero scalar multiple of the identity")
    if outcome.alpha is None:
        raise NoMonomialRootError(
            "V*U = c*I but c has no monomial square root; supply alpha manually"
        )
    alpha = outcome.alpha
    inv_alpha = scalar_invert(alpha)
    pr, rp = braid_forms(r)
    u, v = outcome.u, outcome.v
    pairs = [
        EnhancedPair(pr.scale(alpha), u.scale(inv_alpha), "PR"),
        EnhancedPair(rp.scale(alpha), v.scale(inv_alpha), "RP"),
    ]
    quadruples = [
        EnhancedQuadruple(pr, u, inv_alpha, alpha, "PR"),
        EnhancedQuadruple(rp, v, inv_alpha, alpha, "RP"),
    ]
    # one inverse for all four: (PR)^-1 = R^-1 P and (RP)^-1 = P R^-1 are
    # the braid forms of R^-1 in reverse order, and (alpha S)^-1 = alpha^-1 S^-1
    inverses = braid_forms(r.inverse())[::-1]
    braid = _braid_relations(pairs + quadruples)
    for pair, s_inv, yb3 in zip(pairs, inverses, braid[:2]):
        report = _pair_report(pair.s, pair.mu, s_inv.scale(inv_alpha), yb3)
        _require("pair", pair.provenance, report)
    for quad, s_inv, yb3 in zip(quadruples, inverses, braid[2:]):
        report = _quadruple_report(quad.s, quad.mu, quad.alpha, quad.beta, s_inv, yb3)
        _require("quadruple", quad.provenance, report)
    return Enhancement(alpha, pairs, quadruples)


def _braid_relations(enhanced: list[EnhancedPair | EnhancedQuadruple]) -> list[AxiomResult]:
    """The braid relation of each enhanced pair's or quadruple's S, in order.

    The relation is homogeneous of degree 3 in S, so alpha S and S pass or
    fail it together.  RP = P (PR) P, and reversing the three slots maps
    the relation of PR onto that of RP, so on the exact backend one run
    answers all; when it fails, the PR pair is refused first.  Float
    tolerance is neither scale- nor rounding-invariant, so float runs each.
    """
    if enhanced[0].s.field.exact:
        return [_yb3(enhanced[0].s)] * len(enhanced)
    return [_yb3(x.s) for x in enhanced]


def _require(kind: str, provenance: str, report: EnhancementReport) -> None:
    if not report.ok:
        raise NotEnhanceableError(
            "constructed %s (%s) fails verification: %s"
            % (kind, provenance, "; ".join(report.lines()))
        )


# ---------------------------------------------------------------------------
# axiom verifiers


def _yb3(s: Tensor4) -> AxiomResult:
    return _compare(*braid_sides(s), "braid relation")


def verify_quadruple(s: Tensor4, mu: Mat, alpha: Scalar, beta: Scalar) -> EnhancementReport:
    """Check the trace-normalised axioms for (S, mu, alpha, beta).

    S must be invertible and alpha, beta nonzero; mu may be singular, in
    which case the equivalent normalisation on ``I (x) mu`` is skipped.
    """
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nonzero")
    return _quadruple_report(s, mu, alpha, beta, s.inverse(), _yb3(s))  # Singular propagates


def _quadruple_report(
    s: Tensor4, mu: Mat, alpha: Scalar, beta: Scalar, s_inv: Tensor4, yb3: AxiomResult
) -> EnhancementReport:
    """``verify_quadruple`` given S^-1 and the braid relation's result."""
    report = EnhancementReport()
    report.results["YB3"] = yb3
    report.results["ENH1"] = _enh1(s, mu)
    traces = _second_traces(s, mu, s_inv)
    plus, minus = alpha * beta, scalar_invert(alpha) * beta
    # Tr2(S^{±1} (mu (x) mu)) = T± mu
    report.results["ENH2"] = _both(
        _compare(traces[0] @ mu, mu.scale(plus), "positive-sign trace normalisation"),
        _compare(traces[1] @ mu, mu.scale(minus), "negative-sign trace normalisation"),
    )
    try:
        mu.inverse()
    except SingularMatrixError:
        return report
    report.results["ENH3"] = _enh3(traces, plus, minus)
    return report


def verify_pair(s: Tensor4, mu: Mat) -> EnhancementReport:
    """Check the duality-functor axioms for (S, mu); both must be invertible."""
    return _pair_report(s, mu, s.inverse(), _yb3(s))


def _pair_report(s: Tensor4, mu: Mat, s_inv: Tensor4, yb3: AxiomResult) -> EnhancementReport:
    """``verify_pair`` given S^-1 and the braid relation's result.

    ENH5 is ENH4 transposed, since (X^{t1})^T = X^{t2} and (I (x) mu)^T = I (x) mu^T.
    """
    f = s.field
    report = EnhancementReport()
    report.results["YB3"] = yb3
    report.results["ENH1"] = _enh1(s, mu)
    report.results["ENH3"] = _enh3(_second_traces(s, mu, s_inv), f.one, f.one)
    eye2 = Mat.identity(f, s.n * s.n)
    for name, products in zip(("ENH4", "ENH5"), _enh4_enh5_products(s, mu, s_inv)):
        report.results[name] = _both(*[_compare(x, eye2) for x in products])
    return report


def _product(s: Tensor4, *factors) -> Tensor4:
    """The product of slot-local factors ``(op, first)``, left to right, on n^2.

    One kernel chain on the identity: the rightmost factor is the first step.
    """
    eye = Mat.identity(s.field, s.n * s.n)
    return Tensor4(s.n, eye.apply_slots(s.n, factors[::-1]))


def _enh1(s: Tensor4, mu: Mat) -> AxiomResult:
    """ENH1, ``S (mu (x) mu) = (mu (x) mu) S``."""
    return _compare(_product(s, (s.mat, 0), (mu, 0), (mu, 1)).mat,
                    _product(s, (mu, 0), (mu, 1), (s.mat, 0)).mat, "S does not commute with mu(x)mu")


def _second_traces(s: Tensor4, mu: Mat, s_inv: Tensor4) -> tuple[Mat, Mat]:
    """``T± = Tr2(S^{±1} (I (x) mu))``, each one kernel chain and a cap step."""
    return tuple(_product(s, (x.mat, 0), (mu, 1)).partial_trace2() for x in (s, s_inv))


def _enh3(traces: tuple[Mat, Mat], plus: Scalar, minus: Scalar) -> AxiomResult:
    """ENH3, ``T+ = plus I`` and ``T- = minus I``."""
    eye = Mat.identity(traces[0].field, traces[0].rows)
    return _both(_compare(traces[0], eye.scale(plus), "positive sign"),
                 _compare(traces[1], eye.scale(minus), "negative sign"))


def _enh4_enh5_products(s: Tensor4, mu: Mat, s_inv: Tensor4) -> tuple[list[Mat], list[Mat]]:
    """ENH4's two products, S^-1 on the left first, and ENH5's, their transposes.

    ENH4 on (first, third) is ``(P first)^{t1} (I (x) mu) (third P)^{t1}
    (I (x) mu^-1)``; its transpose is ENH5 on (third, first),
    ``(I (x) mu^-T) (third P)^{t2} (I (x) mu^T) (P first)^{t2}``, so the
    two axioms carry their signs in the same order.
    """
    mu_inv = mu.inverse()

    def enh4(first: Tensor4, third: Tensor4) -> Mat:
        pf, tp = _enh4_factors(first, third)
        return _product(s, (pf.mat, 0), (mu, 1), (tp.mat, 0), (mu_inv, 1)).mat

    products = [enh4(s_inv, s), enh4(s, s_inv)]
    return products, [x.transpose() for x in products]


def _enh4_factors(first: Tensor4, third: Tensor4) -> tuple[Tensor4, Tensor4]:
    """``(P first)^{t1}`` and ``(third P)^{t1}``, each one index map."""
    return first.permute_axes((2, 0, 1, 3)), third.permute_axes((3, 1, 0, 2))


def max_residual(*results: AxiomResult) -> float | None:
    vals = [r.residual for r in results if r.residual is not None]
    return max(vals) if vals else None


def _both(first: AxiomResult, second: AxiomResult) -> AxiomResult:
    """One result for an axiom checked twice (e.g. for both signs)."""
    return AxiomResult(
        first.ok and second.ok,
        max_residual(first, second),
        first.witness if not first.ok else second.witness,
        "; ".join(x.detail for x in (first, second) if not x.ok),
    )


# ---------------------------------------------------------------------------
# structural identities of the second inverse


def slot_identities(r: Tensor4) -> dict[str, AxiomResult]:
    """Conjugation identities tying U, V to R and its second inverse.

    These hold when R solves the quantum Yang-Baxter equation;
    biinvertibility alone is not enough.
    """
    rt = second_inverse(r).mat
    u, v = compute_uv(r)
    return {
        "V2 = R V2 R~": _compare(_product(r, (v, 1)).mat, _product(r, (r.mat, 0), (v, 1), (rt, 0)).mat),
        "V1 = R~ V1 R": _compare(_product(r, (v, 0)).mat, _product(r, (rt, 0), (v, 0), (r.mat, 0)).mat),
        "U1 = R U1 R~": _compare(_product(r, (u, 0)).mat, _product(r, (r.mat, 0), (u, 0), (rt, 0)).mat),
        "U2 = R~ U2 R": _compare(_product(r, (u, 1)).mat, _product(r, (rt, 0), (u, 1), (r.mat, 0)).mat),
    }


def contraction_identity(r: Tensor4) -> AxiomResult:
    """Both pairings of R with its second inverse contract to deltas.

    The pairing sum_ab F^{ib}_{aj} G^{ak}_{lb} is the matrix product of
    F^{t2} (rows ij, columns ab) and G read with rows ab and columns kl;
    gathered back to rows ik and columns lj, the deltas are the identity.
    """
    rt = second_inverse(r)
    eye = Mat.identity(r.field, r.n * r.n)

    def contracted(first: Tensor4, second: Tensor4) -> Mat:
        product = first.t2().mat @ second.permute_axes((0, 3, 1, 2)).mat
        return product.permute_axes(r.n, (0, 2, 3, 1))

    first = _compare(contracted(rt, r), eye, "R~ then R")
    second = _compare(contracted(r, rt), eye, "R then R~")
    return _both(first, second)


def trace_identities(r: Tensor4) -> dict[str, AxiomResult]:
    """Second-trace identities of the braid forms against U and V.

    The two positive-sign identities follow from biinvertibility alone;
    the two inverse-sign identities also need the equation.
    """
    u, v = compute_uv(r)
    # (PR)^-1 and (RP)^-1 are the braid forms of R^-1 in reverse order
    inverses = braid_forms(r.inverse())[::-1]
    pr, rp = [_second_traces(s, mu, s_inv) for s, mu, s_inv in zip(braid_forms(r), (u, v), inverses)]
    eye = Mat.identity(r.field, r.n)
    return {
        "Tr2(PR U2) = I": _compare(pr[0], eye),
        "Tr2(RP V2) = I": _compare(rp[0], eye),
        "Tr2((PR)^-1 U2) = UV": _compare(pr[1], u @ v),
        "Tr2((RP)^-1 V2) = VU": _compare(rp[1], v @ u),
    }


def twist_shadow(r: Tensor4) -> Mat:
    """The inverse-square twist of the braided duality, as an n x n matrix.

    Built as (ev o c (x) id) (id (x) c o coev) from the mixed braiding c
    of the fundamental object with its dual; equals V U for every
    biinvertible input.
    """
    rt = second_inverse(r)
    n = r.n
    c = rt.permute_axes((3, 0, 2, 1)).mat  # c^{xy}_{st} = R~^{yt}_{sx}
    eye = Mat.identity(r.field, n)
    coev, ev = eye.reshape(n * n, 1), eye.reshape(1, n * n)
    return eye.apply_slots(n, [(c @ coev, 1), (ev @ c, 0)])
