"""Command line: matrix file ingestion and the toolkit subcommands.

Matrix files are JSON with scalar values as strings in the scalar
grammar (exactness survives the round trip)::

    {
      "n": 2,
      "field": {"backend": "exact", "indeterminates": ["p", "q"],
                "imaginary": false},
      "entries": ["q", "0", ...],          # n^2 x n^2, row-major
      "mu": ["1", "0", "0", "1"],          # optional, n x n
      "alpha": "1",                        # optional
      "beta": "1"                          # optional
    }

Float-backend files use ``{"backend": "float", "tolerance": 1e-9}``.

Subcommands and exit codes:

* ``check <file>``      equation + biinvertibility + scalar test
* ``enhance <file>``    construct and print enhanced pairs/quadruples
* ``verify <file>``     run the quadruple verifier (alpha and beta
                        present) or the pair verifier on entries + mu
* ``invariant <file> --braid "strands=2 s1 s1 s1"``
* ``tangle <file> --word <wordfile>``
* ``catalog list`` / ``catalog get <id> [--bind q=3/2] [--variant b]``

Exit 0: success / all axioms pass.  Exit 1: mathematical negative (an
axiom fails, not biinvertible, not enhanceable).  Exit 2: input error.
Exit 3: resource cap exceeded.  Exit 141: the reader closed stdout
(``ybtk enhance f.json | head -1``).

``main`` builds its parser on the first call and reuses it on every
later one, so an in-process caller pays for argparse once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field as dc_field

from . import catalog as catalog_mod
from .errors import (
    BadBindingError,
    MatrixFileError,
    NotBiinvertibleError,
    NotEnhanceableError,
    NotInvertibleError,
    ScalarSyntaxError,
    SingularMatrixError,
    StrandLimitError,
    TangleTypeError,
    ToolkitError,
    UnknownFamilyError,
    UnknownSymbolError,
)
from .invariants import (
    DEFAULT_MAX_STRANDS,
    BraidWord,
    InvariantInput,
    TangleWord,
    tangle_eval,
    turaev,
)
from .rmatrix import (
    EnhancementReport,
    enhance,
    full_check,
    verify_pair,
    verify_quadruple,
)
from .scalars import Field, FieldTag, Scalar, float_tag, format_scalar, substitute
from .tensors import Mat, Tensor4

__all__ = ["MatrixFile", "read_matrix", "write_matrix", "write_report", "main"]

_INPUT_ERRORS = (
    MatrixFileError,
    ScalarSyntaxError,
    UnknownSymbolError,
    BadBindingError,
    UnknownFamilyError,
    TangleTypeError,
    ZeroDivisionError,
)
_MATH_NEGATIVES = (
    NotBiinvertibleError,
    NotInvertibleError,
    NotEnhanceableError,
    SingularMatrixError,
)


@dataclass
class MatrixFile:
    """Parsed matrix file: the main matrix plus optional enhancement data."""

    n: int
    tag: FieldTag
    entries: list[str]
    mu: list[str] | None = None
    alpha: str | None = None
    beta: str | None = None
    # the value of each distinct scalar text, parsed once by read_matrix
    _values: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        field_dict: dict = {"backend": self.tag.backend}
        if self.tag.backend == "exact":
            field_dict["indeterminates"] = list(self.tag.indeterminates)
            field_dict["imaginary"] = self.tag.imaginary
        else:
            field_dict["tolerance"] = self.tag.tolerance
        out = {"n": self.n, "field": field_dict, "entries": list(self.entries)}
        if self.mu is not None:
            out["mu"] = list(self.mu)
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.beta is not None:
            out["beta"] = self.beta
        return out


def _tag_from_dict(d) -> FieldTag:
    if not isinstance(d, dict) or "backend" not in d:
        raise MatrixFileError("field must be an object with a 'backend'")
    backend = d["backend"]
    if backend == "exact":
        names = d.get("indeterminates", [])
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise MatrixFileError("'indeterminates' must be a list of symbol names, got %r" % (names,))
        imaginary = d.get("imaginary", False)
        if not isinstance(imaginary, bool):
            raise MatrixFileError("'imaginary' must be true or false, got %r" % (imaginary,))
        args = ("exact", tuple(names), imaginary)
    elif backend == "float":
        tolerance = d.get("tolerance", 1e-9)
        # a string may spell nan or inf, which FieldTag then refuses
        try:
            if isinstance(tolerance, bool):
                raise TypeError
            args = ("float", (), True, float(tolerance))
        except (TypeError, ValueError):
            raise MatrixFileError("'tolerance' must be a number, got %r" % (tolerance,)) from None
    else:
        raise MatrixFileError("unknown backend %r" % (backend,))
    try:
        return FieldTag(*args)
    except ValueError as exc:
        raise MatrixFileError("bad field description: %s" % exc) from exc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> MatrixFileError:
    return MatrixFileError("cannot read %s: not UTF-8 text (byte %d: %s)" % (path, exc.start, exc.reason))


def read_matrix(path: str) -> MatrixFile:
    """Load and validate a matrix file; raises MatrixFileError on problems."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MatrixFileError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError("%s: line %d: %s" % (path, exc.lineno, exc.msg)) from exc
    if not isinstance(raw, dict):
        raise MatrixFileError("matrix file must be a JSON object")
    n = raw.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixFileError("missing or bad 'n': expected a positive integer, got %r" % (n,))
    tag = _tag_from_dict(raw.get("field", {}))
    entries = raw.get("entries")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise MatrixFileError("'entries' must be a list of scalar strings")
    if len(entries) != n ** 4:
        raise MatrixFileError(
            "expected %d entries for n=%d, found %d" % (n ** 4, n, len(entries))
        )
    mu = raw.get("mu")
    if mu is not None:
        if not isinstance(mu, list) or len(mu) != n * n or not all(isinstance(e, str) for e in mu):
            raise MatrixFileError("'mu' must be a list of %d scalar strings" % (n * n))
    alpha = raw.get("alpha")
    beta = raw.get("beta")
    for key, value in (("alpha", alpha), ("beta", beta)):
        if value is not None and not isinstance(value, str):
            raise MatrixFileError("'%s' must be a scalar string" % key)
    mf = MatrixFile(n, tag, list(entries), mu, alpha, beta)
    # every scalar string must parse under the declared field; each distinct
    # text is parsed once, in file order, so the first bad one is named
    field = Field(tag)
    values = mf._values
    for text in mf.entries + (mf.mu or []) + [x for x in (alpha, beta) if x is not None]:
        if text in values:
            continue
        try:
            values[text] = field.parse(text)
        except (ScalarSyntaxError, UnknownSymbolError, ZeroDivisionError) as exc:
            raise MatrixFileError("bad scalar %r: %s" % (text, exc)) from exc
    return mf


def write_matrix(mf: MatrixFile) -> str:
    """Canonical matrix-file text (byte-stable under read/write cycles)."""
    return json.dumps(mf.to_json_dict(), indent=2, sort_keys=True) + "\n"


def write_report(report: EnhancementReport) -> str:
    return "\n".join(report.lines())


def _square(field: Field, dim: int, values) -> Mat:
    return Mat.from_rows(field, [values[i * dim:(i + 1) * dim] for i in range(dim)])


def _split_binding(text: str) -> tuple[str, str]:
    """``name=value`` as the stripped name and the value text."""
    if "=" not in text:
        raise BadBindingError("bindings look like name=value, got %r" % text)
    name, value = text.split("=", 1)
    return name.strip(), value


def _parse_bindings(pairs, field: Field):
    parse_field = Field(FieldTag("exact", (), True))
    bindings = {}
    for text in pairs or []:
        name, value = _split_binding(text)
        if name not in field.tag.indeterminates:
            raise BadBindingError("unknown symbol %r in binding" % name)
        bindings[name] = parse_field.parse(value)
    return bindings


@dataclass
class LoadedInput:
    field: Field
    r: Tensor4
    mu: Mat | None
    alpha: Scalar | None
    beta: Scalar | None


def _load(args) -> LoadedInput:
    mf = read_matrix(args.file)
    tag = mf.tag
    if tag.backend == "float" and args.tolerance is not None:
        tag = FieldTag("float", (), True, args.tolerance)
    field = Field(tag)
    # the values read_matrix parsed; a float value does not depend on the tolerance
    values = mf._values
    r_mat = _square(field, mf.n * mf.n, [values[t] for t in mf.entries])
    mu = _square(field, mf.n, [values[t] for t in mf.mu]) if mf.mu is not None else None
    alpha = values[mf.alpha] if mf.alpha is not None else None
    beta = values[mf.beta] if mf.beta is not None else None

    if args.at or args.numeric:
        if not field.exact:
            raise BadBindingError("--at/--numeric apply to exact-backend files")
        at = _parse_bindings(args.at, field)
        remaining = tuple(s for s in tag.indeterminates if s not in at)
        if args.numeric:
            if remaining:
                raise BadBindingError(
                    "--numeric needs --at bindings for: %s" % ", ".join(remaining)
                )
            target = Field(float_tag(1e-9 if args.tolerance is None else args.tolerance))
        else:
            target = Field(FieldTag("exact", remaining, True))
        # a binding parses with no indeterminates, so it is a Gaussian rational
        point = {name: target.from_gauss(*scalar.as_gauss()) for name, scalar in at.items()}
        r_mat = r_mat.evaluate(point, target)
        mu = mu.evaluate(point, target) if mu is not None else None
        alpha, beta = (substitute(x, point, target) if x is not None else None for x in (alpha, beta))
        field = target
    return LoadedInput(field, Tensor4(mf.n, r_mat), mu, alpha, beta)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    loaded = _load(args)
    r = loaded.r
    field = loaded.field
    report, outcome = full_check(r)
    qyb = report["YB"]
    print("QYB: %s" % ("pass" if qyb.ok else "FAIL %s" % qyb.detail))
    print("biinvertible: %s" % ("yes" if outcome.biinvertible else "no"))
    if not outcome.biinvertible:
        print("verdict: not biinvertible")
        return 1
    print("U:")
    _print_mat(outcome.u)
    print("V:")
    _print_mat(outcome.v)
    print("UV == VU: %s" % ("yes" if outcome.uv_equals_vu else "no"))
    if outcome.alpha_sq is None:
        print("VU is not a scalar multiple of the identity; not enhanceable")
        return 1
    print("VU = alpha^2 I with alpha^2 = %s" % field.format(outcome.alpha_sq))
    if outcome.alpha is not None:
        print("alpha = %s" % field.format(outcome.alpha))
    else:
        print("alpha^2 has no monomial square root; supply alpha manually")
    return 0 if report.ok else 1


def _cmd_enhance(args) -> int:
    loaded = _load(args)
    result = enhance(loaded.r)
    field = loaded.field
    print("alpha = %s" % field.format(result.alpha))
    for pair in result.pairs:
        print("pair (%s): S =" % pair.provenance)
        _print_mat(pair.s.mat)
        print("mu =")
        _print_mat(pair.mu)
    for quad in result.quadruples:
        print(
            "quadruple (%s): alpha = %s, beta = %s, S ="
            % (quad.provenance, field.format(quad.alpha), field.format(quad.beta))
        )
        _print_mat(quad.s.mat)
        print("mu =")
        _print_mat(quad.mu)
    return 0


def _cmd_verify(args) -> int:
    loaded = _load(args)
    if loaded.mu is None:
        raise MatrixFileError("verify needs a 'mu' block in the matrix file")
    if (loaded.alpha is None) != (loaded.beta is None):
        raise MatrixFileError("alpha and beta must be supplied together")
    if loaded.alpha is not None:
        if not loaded.alpha or not loaded.beta:
            raise MatrixFileError("alpha and beta must be nonzero")
        report = verify_quadruple(loaded.r, loaded.mu, loaded.alpha, loaded.beta)
    else:
        report = verify_pair(loaded.r, loaded.mu)
    print(write_report(report))
    return 0 if report.ok else 1


def _invariant_input(args) -> InvariantInput:
    """The loaded file as an invariant input; alpha and beta default to 1."""
    loaded = _load(args)
    if loaded.mu is None:
        raise MatrixFileError("%s needs a 'mu' block in the matrix file" % args.command)
    alpha, beta = (loaded.field.one if x is None else x for x in (loaded.alpha, loaded.beta))
    return InvariantInput(loaded.r, loaded.mu, alpha, beta)


def _cmd_invariant(args) -> int:
    inp = _invariant_input(args)
    word = BraidWord.parse(args.braid)
    value = turaev(inp, word, max_strands=args.max_strands)
    print(format_scalar(value))
    return 0


def _cmd_tangle(args) -> int:
    inp = _invariant_input(args)
    try:
        with open(args.word, "r", encoding="utf-8") as fh:
            word = TangleWord.parse(fh.read())
    except OSError as exc:
        raise MatrixFileError("cannot read %s: %s" % (args.word, exc)) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(args.word, exc) from exc
    result = tangle_eval(word, inp)
    if result.rows == 1 and result.cols == 1:
        print(format_scalar(result.at(0, 0)))
    else:
        _print_mat(result)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for fam in catalog_mod.families():
            params = ",".join(fam.parameters) or "-"
            variants = "/".join(fam.variants) or "-"
            line = "%2d  params=%-6s variants=%-4s %s" % (
                fam.id,
                params,
                variants,
                fam.verdict.describe(),
            )
            if fam.qyb_constraint:
                line += "  [equation needs %s]" % fam.qyb_constraint
            print(line)
        return 0
    fid = args.id
    bindings = {}
    for text in args.bind or []:
        name, value = _split_binding(text)
        bindings[name] = value.strip()
    fx = catalog_mod.fixture(fid, bindings=bindings or None, variant=args.variant)
    entries = [x for row in fx.r.mat.format_rows() for x in row]
    mf = MatrixFile(n=fx.r.n, tag=fx.field.tag, entries=entries)
    sys.stdout.write(write_matrix(mf))
    if fx.notes:
        print("# %s" % fx.notes, file=sys.stderr)
    return 0


def _print_mat(m: Mat) -> None:
    rows = m.format_rows()
    widths = [max(len(r[j]) for r in rows) for j in range(m.cols)]
    for row in rows:
        print("  [ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]")


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _tolerance(text: str) -> float:
    try:
        return float_tag(float(text)).tolerance
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage block, and exits 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ybtk",
        description="Yang-Baxter solutions: check, enhance, verify, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="matrix file (JSON)")
        p.add_argument(
            "--at",
            action="append",
            metavar="sym=value",
            help="bind an indeterminate before any computation",
        )
        p.add_argument(
            "--numeric",
            action="store_true",
            help="switch to the float backend (needs --at for every symbol)",
        )
        p.add_argument(
            "--tolerance",
            type=_tolerance,
            default=None,
            help="relative tolerance for float-backend comparisons",
        )

    p = sub.add_parser("check", help="Yang-Baxter + biinvertibility + scalar test")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enhance", help="construct enhanced pairs and quadruples")
    add_common(p)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("verify", help="verify axioms for supplied S, mu[, alpha, beta]")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariant", help="evaluate the link invariant of a braid word")
    add_common(p)
    p.add_argument("--braid", required=True, help="braid word, e.g. 'strands=2 s1 s1 s1'")
    p.add_argument(
        "--max-strands",
        type=_positive_int,
        default=DEFAULT_MAX_STRANDS,
        help="size cap for the braid representation: its n^m x n^m state may hold"
        " at most 4^N entries, i.e. N strands at n = 2, and n = 1 counts like n = 2"
        " (default %d)" % DEFAULT_MAX_STRANDS,
    )
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("tangle", help="evaluate a tangle word file")
    add_common(p)
    p.add_argument("--word", required=True, help="tangle word file (one layer per line)")
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("catalog", help="list or export the fixture catalog")
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("id", nargs="?", type=int, help="family id (get)")
    p.add_argument("--bind", action="append", metavar="name=value")
    p.add_argument("--variant", default=None, help="sub-case for families with variants")
    p.set_defaults(func=_cmd_catalog)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "catalog" and args.action == "get" and args.id is None:
        print("catalog get needs a family id", file=sys.stderr)
        return 2
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left, the exit flush included,
        # goes to the null device, and the exit code is a shell's for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(args) -> int:
    try:
        return args.func(args)
    except StrandLimitError as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except _MATH_NEGATIVES as exc:
        print("negative: %s" % exc, file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
