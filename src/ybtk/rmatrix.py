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
  duality identities, which are mutual transposes of one another).

The verifiers accept any invertible input and report per-axiom results;
only ``enhance`` insists on biinvertibility.
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
from .tensors import Mat, Tensor4, embed, permutation, yb_sides

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
    """Per-axiom results plus cross-axiom agreement flags."""

    results: dict[str, AxiomResult] = dc_field(default_factory=dict)
    agreements: dict[str, bool] = dc_field(default_factory=dict)

    def __getitem__(self, axiom: str) -> AxiomResult:
        return self.results[axiom]

    def __contains__(self, axiom: str) -> bool:
        return axiom in self.results

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values()) and all(
            self.agreements.values()
        )

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
        for name, okay in self.agreements.items():
            out.append("%s: %s" % (name, "agree" if okay else "DISAGREE"))
        return out


def _compare(lhs: Mat, rhs: Mat, label: str = "") -> AxiomResult:
    ok, residual, witness = lhs.compare(rhs)
    detail = ""
    if not ok and lhs.field.exact and witness is not None:
        i, j = witness
        detail = "%sat %s: %s != %s" % (
            (label + " ") if label else "",
            witness,
            lhs.field.format(lhs.at(i, j)),
            rhs.field.format(rhs.at(i, j)),
        )
    elif not ok and label:
        detail = label
    return AxiomResult(ok, residual, witness, detail)


# ---------------------------------------------------------------------------
# basic procedures


def check_qyb(r: Tensor4) -> AxiomResult:
    """Quantum Yang-Baxter check; the witness is a component equation."""
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
    """The braid-style solutions (PR, RP) attached to R."""
    p = permutation(r.field, r.n)
    return p @ r, r @ p


def second_inverse(r: Tensor4) -> Tensor4:
    """``((R^{t2})^{-1})^{t2}``; raises when R or R^{t2} is singular."""
    try:
        r.mat.inverse()
    except SingularMatrixError as exc:
        raise NotInvertibleError("the matrix itself is singular") from exc
    try:
        inv_t2 = r.t2().inverse()
    except SingularMatrixError as exc:
        raise NotBiinvertibleError("the second transpose is singular") from exc
    return inv_t2.t2()


def compute_uv(r: Tensor4) -> tuple[Mat, Mat]:
    """The contraction matrices U and V of the second inverse."""
    rt = second_inverse(r)
    # U^i_j = sum_a R~^{ai}_{ja} and V^i_j = sum_a R~^{ia}_{aj}: a swap of
    # the upper or lower indices turns each into a second partial trace
    u = rt.permute_axes((1, 0, 2, 3)).partial_trace2()
    v = rt.permute_axes((0, 1, 3, 2)).partial_trace2()
    return u, v


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


def _scalar_multiple_of_identity(m: Mat) -> Scalar | None:
    """The nonzero scalar c with m == c*I under the field's equality, or None."""
    f = m.field
    c = m.at(0, 0)
    if f.is_zero(c) or not m.eq(Mat.identity(f, m.rows).scale(c)):
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
    alpha_sq = _scalar_multiple_of_identity(vu)
    alpha = monomial_sqrt(alpha_sq) if alpha_sq is not None else None
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
        f = r.field
        if outcome.alpha_sq is not None:
            detail = "alpha^2 = %s" % f.format(outcome.alpha_sq)
            if outcome.alpha is not None:
                detail += ", alpha = %s" % f.format(outcome.alpha)
            else:
                detail += ", no monomial square root"
            report.results["VU_SCALAR"] = AxiomResult(True, detail=detail)
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
    alpha.  Every returned object has already passed its verifier.
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
    for pair in pairs:
        report = verify_pair(pair.s, pair.mu)
        if not report.ok:
            raise NotEnhanceableError(
                "constructed pair (%s) fails verification: %s"
                % (pair.provenance, "; ".join(report.lines()))
            )
    for quad in quadruples:
        report = verify_quadruple(quad.s, quad.mu, quad.alpha, quad.beta)
        if not report.ok:
            raise NotEnhanceableError(
                "constructed quadruple (%s) fails verification: %s"
                % (quad.provenance, "; ".join(report.lines()))
            )
    return Enhancement(alpha, pairs, quadruples)


# ---------------------------------------------------------------------------
# axiom verifiers


def _yb3(s: Tensor4) -> AxiomResult:
    n = s.n
    s12, s23 = [(s.mat, 0)], [(s.mat, 1)]
    eye = Mat.identity(s.field, n ** 3)
    return _compare(
        eye.apply_slots(n, s12 + s23 + s12), eye.apply_slots(n, s23 + s12 + s23), "braid relation"
    )


def _invertible(m: Mat) -> bool:
    try:
        m.inverse()
        return True
    except SingularMatrixError:
        return False


def verify_quadruple(s: Tensor4, mu: Mat, alpha: Scalar, beta: Scalar) -> EnhancementReport:
    """Check the trace-normalised axioms for (S, mu, alpha, beta).

    S must be invertible and alpha, beta nonzero; mu may be singular, in
    which case the equivalent normalisation on ``I (x) mu`` is skipped.
    """
    f = s.field
    if f.is_zero(alpha) or f.is_zero(beta):
        raise ValueError("alpha and beta must be nonzero")
    s_inv = s.inverse()  # Singular propagates
    n = s.n
    report = EnhancementReport()
    report.results["YB3"] = _yb3(s)

    mumu = embed(mu, "both")
    report.results["ENH1"] = _compare(
        (s @ mumu).mat, (mumu @ s).mat, "S does not commute with mu(x)mu"
    )

    inv_alpha = scalar_invert(alpha)
    plus = _compare(
        (s @ mumu).partial_trace2(),
        mu.scale(alpha * beta),
        "positive-sign trace normalisation",
    )
    minus = _compare(
        (s_inv @ mumu).partial_trace2(),
        mu.scale(inv_alpha * beta),
        "negative-sign trace normalisation",
    )
    report.results["ENH2"] = _both(plus, minus)

    if _invertible(mu):
        eye = Mat.identity(f, n)
        mu2 = embed(mu, "slot2")
        plus3 = _compare(
            (s @ mu2).partial_trace2(), eye.scale(alpha * beta), "positive sign"
        )
        minus3 = _compare(
            (s_inv @ mu2).partial_trace2(), eye.scale(inv_alpha * beta), "negative sign"
        )
        report.results["ENH3"] = _both(plus3, minus3)
        report.agreements["ENH2~ENH3"] = (
            report.results["ENH2"].ok == report.results["ENH3"].ok
        )
    return report


def verify_pair(s: Tensor4, mu: Mat) -> EnhancementReport:
    """Check the duality-functor axioms for (S, mu); both must be invertible."""
    f = s.field
    n = s.n
    s_inv = s.inverse()
    mu_inv = mu.inverse()
    report = EnhancementReport()
    report.results["YB3"] = _yb3(s)

    mumu = embed(mu, "both")
    report.results["ENH1"] = _compare(
        (s @ mumu).mat, (mumu @ s).mat, "S does not commute with mu(x)mu"
    )

    eye = Mat.identity(f, n)
    mu2 = embed(mu, "slot2")
    plus3 = _compare((s @ mu2).partial_trace2(), eye, "positive sign")
    minus3 = _compare((s_inv @ mu2).partial_trace2(), eye, "negative sign")
    report.results["ENH3"] = _both(plus3, minus3)

    p = permutation(f, n)
    eye2 = Mat.identity(f, n * n)
    mu_slot2 = embed(mu, "slot2").mat
    mu_inv_slot2 = embed(mu_inv, "slot2").mat

    def enh4(first: Tensor4, third: Tensor4) -> AxiomResult:
        lhs = (p @ first).t1().mat @ mu_slot2 @ (third @ p).t1().mat @ mu_inv_slot2
        return _compare(lhs, eye2)

    report.results["ENH4"] = _both(enh4(s_inv, s), enh4(s, s_inv))

    mut = mu.transpose()
    mut_inv = mut.inverse()
    mut_slot2 = embed(mut, "slot2").mat
    mut_inv_slot2 = embed(mut_inv, "slot2").mat

    def enh5(first: Tensor4, last: Tensor4) -> AxiomResult:
        lhs = mut_inv_slot2 @ (first @ p).t2().mat @ mut_slot2 @ (p @ last).t2().mat
        return _compare(lhs, eye2)

    # transpose-dual of the previous axiom: the two S factors carry
    # opposite signs here as well
    report.results["ENH5"] = _both(enh5(s, s_inv), enh5(s_inv, s))

    report.agreements["ENH4~ENH5"] = (
        report.results["ENH4"].ok == report.results["ENH5"].ok
    )
    return report


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
    rt = second_inverse(r)
    u, v = compute_uv(r)
    u1, u2 = embed(u, "slot1"), embed(u, "slot2")
    v1, v2 = embed(v, "slot1"), embed(v, "slot2")
    return {
        "V2 = R V2 R~": _compare(v2.mat, (r @ v2 @ rt).mat),
        "V1 = R~ V1 R": _compare(v1.mat, (rt @ v1 @ r).mat),
        "U1 = R U1 R~": _compare(u1.mat, (r @ u1 @ rt).mat),
        "U2 = R~ U2 R": _compare(u2.mat, (rt @ u2 @ r).mat),
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
    pr, rp = braid_forms(r)
    u2 = embed(u, "slot2")
    v2 = embed(v, "slot2")
    eye = Mat.identity(r.field, r.n)
    return {
        "Tr2(PR U2) = I": _compare((pr @ u2).partial_trace2(), eye),
        "Tr2(RP V2) = I": _compare((rp @ v2).partial_trace2(), eye),
        "Tr2((PR)^-1 U2) = UV": _compare(
            (pr.inverse() @ u2).partial_trace2(), u @ v
        ),
        "Tr2((RP)^-1 V2) = VU": _compare(
            (rp.inverse() @ v2).partial_trace2(), v @ u
        ),
    }


def twist_shadow(r: Tensor4) -> Mat:
    """The inverse-square twist of the braided duality, as an n x n matrix.

    Built as (ev o c (x) id) (id (x) c o coev) from the mixed braiding c
    of the fundamental object with its dual; equals V U for every
    biinvertible input.
    """
    rt = second_inverse(r)
    n = r.n
    f = r.field
    c = rt.permute_axes((3, 0, 2, 1)).mat  # c^{xy}_{st} = R~^{yt}_{sx}
    coev = Mat.build(f, n * n, 1, lambda i, _: f.one if i // n == i % n else f.zero)
    ev = Mat.build(f, 1, n * n, lambda _, j: f.one if j // n == j % n else f.zero)
    return Mat.identity(f, n).apply_slots(n, [(c @ coev, 1), (ev @ c, 0)])
