"""Fixture library: the catalog of 4x4 (n=2) Yang-Baxter solutions.

Ten families, ids stable in display order.  Each biinvertible family
carries the expected second inverse and the expected contraction
matrices U and V, all exact, plus an enhancement verdict:

1.  diag(1, p, s, q)                    conditional (q = 1, also q = -1)
2.  the antidiagonal (q, 1, 1, q)       enhanced as is
3.  unitriangular, first row 1 1 p q    conditional (p = -1)
4.  unitriangular, first row 1 1 -1 q   enhanced as is
5.  corner family with rows (1,0,0,1),(0,1,1,0),(0,1,-1,0),(-1,0,0,1)
                                        not biinvertible
6.  identity plus a top-right 1, middle diagonal +1 (variant a)
    or -1 (variant b)                   enhanced as is
7.  diag(q, p, p^-1, q) with one off-diagonal q - q^-1
                                        enhanced after scaling by q^-2
8.  family 7 with corner q and lower-right -q^-1
                                        enhanced as is
9.  the (q - q^-1 +- 2) corner family   enhanced after scaling by 1/2
10. the flip P                          not biinvertible (but its square,
                                        the identity, admits the
                                        trace-normalised quadruple
                                        (P^2, I, 1, n))
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadBindingError, UnknownFamilyError
from .scalars import Field, exact_tag
from .tensors import Mat, Tensor4, permutation

__all__ = ["Verdict", "FamilySummary", "Fixture", "families", "fixture"]

ENHANCED = "enhanced"
ENHANCED_WITH_SCALING = "enhanced_with_scaling"
CONDITIONAL = "conditionally_enhanced"
NOT_BIINVERTIBLE = "not_biinvertible"


@dataclass(frozen=True)
class Verdict:
    kind: str
    alpha: str | None = None  # scaling verdicts: the expected alpha
    constraint: str | None = None  # conditional verdicts: plain-text constraint

    def describe(self) -> str:
        if self.kind == ENHANCED:
            return "enhanced as is (alpha = 1)"
        if self.kind == ENHANCED_WITH_SCALING:
            return "enhanced with alpha = %s" % self.alpha
        if self.kind == CONDITIONAL:
            return "enhanced exactly under %s" % self.constraint
        return "not biinvertible"


@dataclass(frozen=True)
class FamilySummary:
    id: int
    parameters: tuple[str, ...]
    variants: tuple[str, ...]
    verdict: Verdict
    notes: str
    qyb_constraint: str | None = None


@dataclass
class Fixture:
    id: int
    variant: str | None
    parameters: tuple[str, ...]
    field: Field
    r: Tensor4
    expected_tilde: Tensor4 | None
    expected_u: Mat | None
    expected_v: Mat | None
    verdict: Verdict
    notes: str
    qyb_constraint: str | None = None


_I2 = [["1", "0"], ["0", "1"]]

# entries are scalar-grammar strings; None marks families without a
# biinvertible second inverse
_DATA = {
    1: dict(
        params=("p", "q", "s"),
        nonzero=("p", "q", "s"),
        variants={
            None: dict(
                r=[
                    ["1", "0", "0", "0"],
                    ["0", "p", "0", "0"],
                    ["0", "0", "s", "0"],
                    ["0", "0", "0", "q"],
                ],
                tilde=[
                    ["1", "0", "0", "0"],
                    ["0", "p^-1", "0", "0"],
                    ["0", "0", "s^-1", "0"],
                    ["0", "0", "0", "q^-1"],
                ],
                u=[["1", "0"], ["0", "q^-1"]],
                v=[["1", "0"], ["0", "q^-1"]],
            )
        },
        verdict=Verdict(CONDITIONAL, constraint="q = 1 (and also q = -1)"),
        notes="V U = diag(1, q^-2) is scalar exactly when q^2 = 1.",
    ),
    2: dict(
        params=("q",),
        nonzero=("q",),
        variants={
            None: dict(
                r=[
                    ["0", "0", "0", "q"],
                    ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"],
                    ["q", "0", "0", "0"],
                ],
                tilde=[
                    ["0", "0", "0", "q^-1"],
                    ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"],
                    ["q^-1", "0", "0", "0"],
                ],
                u=_I2,
                v=_I2,
            )
        },
        verdict=Verdict(ENHANCED),
        notes="",
    ),
    3: dict(
        params=("p", "q"),
        nonzero=(),
        variants={
            None: dict(
                r=[
                    ["1", "1", "p", "q"],
                    ["0", "1", "0", "p"],
                    ["0", "0", "1", "1"],
                    ["0", "0", "0", "1"],
                ],
                tilde=[
                    ["1", "-1", "-p", "2p - q"],
                    ["0", "1", "0", "-p"],
                    ["0", "0", "1", "-1"],
                    ["0", "0", "0", "1"],
                ],
                u=[["1", "-p - 1"], ["0", "1"]],
                v=[["1", "-p - 1"], ["0", "1"]],
            )
        },
        verdict=Verdict(CONDITIONAL, constraint="p = -1"),
        notes="V U is unipotent with off-diagonal -2p - 2; scalar only at p = -1.",
    ),
    4: dict(
        params=("q",),
        nonzero=(),
        variants={
            None: dict(
                r=[
                    ["1", "1", "-1", "q"],
                    ["0", "1", "0", "q"],
                    ["0", "0", "1", "-q"],
                    ["0", "0", "0", "1"],
                ],
                tilde=[
                    ["1", "-1", "1", "-q^2 - q - 1"],
                    ["0", "1", "0", "-q"],
                    ["0", "0", "1", "q"],
                    ["0", "0", "0", "1"],
                ],
                u=[["1", "1 + q"], ["0", "1"]],
                v=[["1", "-1 - q"], ["0", "1"]],
            )
        },
        verdict=Verdict(ENHANCED),
        notes="",
    ),
    5: dict(
        params=(),
        nonzero=(),
        variants={
            None: dict(
                r=[
                    ["1", "0", "0", "1"],
                    ["0", "1", "1", "0"],
                    ["0", "1", "-1", "0"],
                    ["-1", "0", "0", "1"],
                ],
                tilde=None,
                u=None,
                v=None,
            )
        },
        verdict=Verdict(NOT_BIINVERTIBLE),
        notes="Invertible, but its second transpose is singular.",
    ),
    6: dict(
        params=(),
        nonzero=(),
        variants={
            "a": dict(
                r=[
                    ["1", "0", "0", "1"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
                tilde=[
                    ["1", "0", "0", "-1"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
                u=_I2,
                v=_I2,
            ),
            "b": dict(
                r=[
                    ["1", "0", "0", "1"],
                    ["0", "-1", "0", "0"],
                    ["0", "0", "-1", "0"],
                    ["0", "0", "0", "1"],
                ],
                tilde=[
                    ["1", "0", "0", "-1"],
                    ["0", "-1", "0", "0"],
                    ["0", "0", "-1", "0"],
                    ["0", "0", "0", "1"],
                ],
                u=_I2,
                v=_I2,
            ),
        },
        verdict=Verdict(ENHANCED),
        notes="Two sub-cases; the middle diagonal is +1 (a) or -1 (b).",
    ),
    7: dict(
        params=("p", "q"),
        nonzero=("p", "q"),
        variants={
            None: dict(
                r=[
                    ["q", "0", "0", "0"],
                    ["0", "p", "q - q^-1", "0"],
                    ["0", "0", "p^-1", "0"],
                    ["0", "0", "0", "q"],
                ],
                tilde=[
                    ["q^-1", "0", "0", "0"],
                    ["0", "p^-1", "(q^-1 - q)/q^2", "0"],
                    ["0", "0", "p", "0"],
                    ["0", "0", "0", "q^-1"],
                ],
                u=[["q^-1", "0"], ["0", "q^-3"]],
                v=[["q^-3", "0"], ["0", "q^-1"]],
            )
        },
        verdict=Verdict(ENHANCED_WITH_SCALING, alpha="q^-2"),
        notes="V U = q^-4 I; the scaled pair is (q^-2 P R, q^2 U).",
    ),
    8: dict(
        params=("p", "q"),
        nonzero=("p", "q"),
        variants={
            None: dict(
                r=[
                    ["q", "0", "0", "q"],
                    ["0", "p", "q - q^-1", "0"],
                    ["0", "0", "p^-1", "0"],
                    ["0", "0", "0", "-q^-1"],
                ],
                tilde=[
                    ["q^-1", "0", "0", "-q"],
                    ["0", "p^-1", "q - q^-1", "0"],
                    ["0", "0", "p", "0"],
                    ["0", "0", "0", "-q"],
                ],
                u=[["q^-1", "0"], ["0", "-q^-1"]],
                v=[["q", "0"], ["0", "-q"]],
            )
        },
        verdict=Verdict(ENHANCED),
        notes=(
            "V U = I for all p, q, so alpha = 1; however the quantum "
            "Yang-Baxter equation itself holds only under p^2 = q^2 (the "
            "corner entry couples p and q); the second inverse, U and V "
            "exist for all nonzero p, q."
        ),
        qyb_constraint="p^2 = q^2",
    ),
    9: dict(
        params=("q",),
        nonzero=("q",),
        variants={
            None: dict(
                r=[
                    ["q - q^-1 + 2", "0", "0", "q - q^-1"],
                    ["0", "q + q^-1", "q - q^-1", "0"],
                    ["0", "q - q^-1", "q + q^-1", "0"],
                    ["q - q^-1", "0", "0", "q - q^-1 - 2"],
                ],
                tilde=[
                    ["(q^-1 - q + 2)/4", "0", "0", "(q^-1 - q)/4"],
                    ["0", "(q + q^-1)/4", "(q - q^-1)/4", "0"],
                    ["0", "(q - q^-1)/4", "(q + q^-1)/4", "0"],
                    ["(q^-1 - q)/4", "0", "0", "(q^-1 - q - 2)/4"],
                ],
                u=[["1/2", "0"], ["0", "-1/2"]],
                v=[["1/2", "0"], ["0", "-1/2"]],
            )
        },
        verdict=Verdict(ENHANCED_WITH_SCALING, alpha="1/2"),
        notes=(
            "V U = I/4; the scaled pair is (P R / 2, 2 U).  The (1,1) entry "
            "of the second inverse is (q^-1 - q + 2)/4: this sign is forced "
            "both by the defining identity and by U = V = diag(1, -1)/2."
        ),
    ),
    10: dict(
        params=(),
        nonzero=(),
        variants={None: dict(r="flip", tilde=None, u=None, v=None)},
        verdict=Verdict(NOT_BIINVERTIBLE),
        notes=(
            "The flip P is not biinvertible, yet P^2 = I and the quadruple "
            "(P^2, I, 1, n) satisfies the trace-normalised axioms."
        ),
    ),
}


def families() -> list[FamilySummary]:
    """Stable summaries of the ten catalog families."""
    out = []
    for fid in sorted(_DATA):
        data = _DATA[fid]
        variants = tuple(k for k in data["variants"] if k is not None)
        out.append(
            FamilySummary(
                id=fid,
                parameters=data["params"],
                variants=variants,
                verdict=data["verdict"],
                notes=data["notes"],
                qyb_constraint=data.get("qyb_constraint"),
            )
        )
    return out


def _parse_binding(name: str, value, parse_field: Field):
    if isinstance(value, str):
        if value == "symbolic":
            return None
        try:
            return parse_field.parse(value)
        except Exception as exc:
            raise BadBindingError("bad value for %s: %s" % (name, exc)) from exc
    try:
        return parse_field.from_fraction(value)
    except (TypeError, ValueError) as exc:
        raise BadBindingError("bad value for %s: %r" % (name, value)) from exc


def fixture(fid: int, bindings=None, variant: str | None = None) -> Fixture:
    """Instantiate a catalog family.

    ``bindings`` maps parameter names to scalar text (or Fraction/int);
    omitted parameters and the value ``"symbolic"`` stay symbolic.
    Degenerate values (a zero where the family needs an invertible
    parameter) raise BadBindingError, as do unknown parameter names and
    unknown variants.
    """
    if fid not in _DATA:
        raise UnknownFamilyError("no catalog family %r" % (fid,))
    data = _DATA[fid]
    variant_keys = data["variants"]
    if None in variant_keys:
        if variant not in (None, ""):
            raise BadBindingError("family %d has no variants" % fid)
        chosen = variant_keys[None]
        variant = None
    else:
        variant = variant or "a"
        if variant not in variant_keys:
            raise BadBindingError(
                "family %d has variants %s" % (fid, sorted(variant_keys))
            )
        chosen = variant_keys[variant]

    params = data["params"]
    bindings = dict(bindings or {})
    for name in bindings:
        if name not in params:
            raise BadBindingError("family %d has no parameter %r" % (fid, name))

    parse_field = Field(exact_tag(imaginary=True))
    bound = {}
    for name, value in bindings.items():
        scalar = _parse_binding(name, value, parse_field)
        if scalar is not None:
            if name in data["nonzero"] and scalar.is_zero:
                raise BadBindingError("parameter %s must be nonzero" % name)
            bound[name] = scalar

    remaining = tuple(p for p in params if p not in bound)
    # a binding parses with no indeterminates, so it is a Gaussian rational
    needs_i = any(s.as_gauss()[1] for s in bound.values())
    field = Field(exact_tag(*remaining, imaginary=needs_i))

    symbolic_field = Field(exact_tag(*params, imaginary=needs_i)) if params else field
    target_bindings = {name: field.from_gauss(*s.as_gauss()) for name, s in bound.items()}

    def build_mat(rows):
        symbolic = Mat.from_rows(
            symbolic_field, [[symbolic_field.parse(x) for x in row] for row in rows]
        )
        if not target_bindings and symbolic_field.tag == field.tag:
            return symbolic
        return symbolic.evaluate(target_bindings, field)

    if chosen["r"] == "flip":
        r = permutation(field, 2)
    else:
        r = Tensor4(2, build_mat(chosen["r"]))
    tilde = Tensor4(2, build_mat(chosen["tilde"])) if chosen["tilde"] else None
    exp_u = build_mat(chosen["u"]) if chosen["u"] else None
    exp_v = build_mat(chosen["v"]) if chosen["v"] else None
    return Fixture(
        id=fid,
        variant=variant,
        parameters=remaining,
        field=field,
        r=r,
        expected_tilde=tilde,
        expected_u=exp_u,
        expected_v=exp_v,
        verdict=data["verdict"],
        notes=data["notes"],
        qyb_constraint=data.get("qyb_constraint"),
    )
