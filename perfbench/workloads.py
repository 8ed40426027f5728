"""The four benchmark workloads: inputs, requests and output checks.

A workload is built from its seed in ``setup`` (timed as set-up), then
serves rounds of requests.  A request is one user-level call into ybtk;
``run`` returns everything the check needs, and ``check`` (run after the
timed window) returns None for a correct output or a one-line reason.

Request mixes and sizes (see README.md for why each workload exists):

* decide           one round = check + enhance on 20 matrix files and
                   verify on 30 enhancement files, in seeded order
* invariant_exact  one round = turaev at m = 3..7 (8..12 letters) and two
                   tangle closures at m = 2, 3, fresh words every round
* invariant_swell  one round = the fixed pool of 35 family-9 words, 27 at
                   m = 3 and 8 at m = 4, with 4..5 letters and at most two
                   S^-1 letters, in seeded order
* invariant_float  one round = turaev at m = 12 (30 letters), 11 (25) and
                   4 x 10 (28), and tangle closures, 6 at m = 4 (10
                   letters) and 4 at m = 5 (12 letters)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from ybtk import (
    BraidWord,
    InvariantInput,
    Mat,
    Tensor4,
    braid_rep,
    closure_word,
    enhance,
    fixture,
    format_scalar,
    tangle_eval,
    turaev,
)
from ybtk import cli
from ybtk.catalog import CONDITIONAL, ENHANCED, ENHANCED_WITH_SCALING, NOT_BIINVERTIBLE
from ybtk.scalars import Field, exact_tag, float_tag

from inputs import close, evaluate_text, format_complex, markov_word, sl_n_entries

FLOAT_POINT = complex(1.3, 0.2)
SAFE_RATIONALS = [Fraction(k, d) for k, d in ((3, 2), (5, 3), (7, 4), (2, 5), (9, 7), (11, 5), (4, 9), (13, 6))]


@dataclass
class Request:
    kind: str
    args: tuple
    label: str = ""


class Workload:
    name = ""
    # the highest percentile with at least ten samples beyond it at the
    # sample count a 20 s run of this workload reaches, on a slow host too;
    # fixed per workload, and a run serves extra rounds until ten samples
    # lie beyond it, so that a slower machine or program does not switch
    # the percentile
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Request]:
        """The requests of the next round, in order."""
        raise NotImplementedError

    def run(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# decide


@dataclass
class Case:
    """One matrix file and what a correct decision on it prints."""

    label: str
    path: str
    n: int
    entries: list[str]
    point: dict
    qyb: bool
    biinvertible: bool
    scalar: bool
    alpha: str | None = None
    u: list[list[str]] | None = None
    v: list[list[str]] | None = None
    verify_paths: list[str] = field(default_factory=list)

    @property
    def enhanceable(self) -> bool:
        return self.qyb and self.biinvertible and self.scalar


def _parse_block(lines: list[str], start: int) -> tuple[list[list[str]], int]:
    rows = []
    k = start
    while k < len(lines) and lines[k].lstrip().startswith("["):
        body = lines[k].strip()[1:-1].strip()
        rows.append(re.split(r"\s{2,}", body))
        k += 1
    return rows, k


def _eval_rows(rows, point):
    return [[evaluate_text(x, point) for x in row] for row in rows]


def _same_matrix(got, want, scale=1) -> bool:
    if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
        return False
    return all(close(x, scale * y) for a, b in zip(got, want) for x, y in zip(a, b))


class Decide(Workload):
    """In-process ``ybtk check|enhance|verify`` on generated matrix files."""

    name = "decide"

    def setup(self):
        self.point = dict(zip(("p", "q", "s"), self.rng.sample(SAFE_RATIONALS, 3)))
        self.cases: list[Case] = []
        specs = [(fid, None, None) for fid in range(1, 11)]
        specs.insert(6, (6, "b", None))
        specs += [(1, None, {"q": "1"}), (3, None, {"p": "-1"}), (8, None, {"p": "2", "q": "2"})]
        for fid, variant, bindings in specs:
            self.cases.append(self._catalog_case(fid, variant, bindings))
        angle = self.rng.uniform(0.1, 0.5)
        z = 1.2 * complex(math.cos(angle), math.sin(angle))
        for n in (3, 4, 5):
            for q in (None, z):
                self.cases.append(self._sl_n_case(n, q))
        for case in self.cases:
            if case.enhanceable:
                self._write_verify_files(case)
        self.requests = [Request(cmd, (cmd, c.path, c), "%s %s" % (cmd, c.label))
                         for c in self.cases for cmd in ("check", "enhance")]
        self.requests += [Request("verify", ("verify", p, c), "verify %s" % os.path.basename(p))
                          for c in self.cases for p in c.verify_paths]

    def _write(self, name: str, body: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        return path

    def _catalog_case(self, fid, variant, bindings) -> Case:
        fx = fixture(fid, bindings=bindings, variant=variant)
        label = "family%d%s" % (fid, variant or "")
        if bindings:
            label += "@" + ",".join("%s=%s" % kv for kv in sorted(bindings.items()))
        entries = [x for row in fx.r.mat.format_rows() for x in row]
        tag = fx.field.tag
        path = self._write(
            re.sub(r"[^\w.-]", "_", label),
            {
                "n": 2,
                "field": {"backend": "exact", "indeterminates": list(tag.indeterminates),
                          "imaginary": tag.imaginary},
                "entries": entries,
            },
        )
        kind = fx.verdict.kind
        alpha = {ENHANCED: "1", ENHANCED_WITH_SCALING: fx.verdict.alpha}.get(kind)
        scalar = kind in (ENHANCED, ENHANCED_WITH_SCALING) or (kind == CONDITIONAL and bool(bindings))
        return Case(
            label, path, 2, entries, self.point,
            qyb=fx.qyb_constraint is None or bool(bindings),
            biinvertible=kind != NOT_BIINVERTIBLE,
            scalar=scalar,
            alpha=alpha,
            u=fx.expected_u.format_rows() if fx.expected_u is not None else None,
            v=fx.expected_v.format_rows() if fx.expected_v is not None else None,
        )

    def _sl_n_case(self, n, q) -> Case:
        label = "sl%d_%s" % (n, "exact" if q is None else "float")
        fld = ({"backend": "exact", "indeterminates": ["q"], "imaginary": False}
               if q is None else {"backend": "float", "tolerance": 1e-9})
        entries = sl_n_entries(n, q)
        path = self._write(label, {"n": n, "field": fld, "entries": entries})
        point = self.point if q is None else {"q": q}
        return Case(label, path, n, entries, point, True, True, True, alpha="q^-%d" % n)

    def _write_verify_files(self, case: Case):
        loaded = cli.read_matrix(case.path)
        fld = Field(loaded.tag)
        dim = case.n * case.n
        values = [fld.parse(x) for x in loaded.entries]
        r = Tensor4(case.n, Mat.from_rows(fld, [values[i * dim:(i + 1) * dim] for i in range(dim)]))
        result = enhance(r)
        # float text is written here: ybtk's float format_scalar can emit
        # exponent notation (1e-16) that its own parser rejects
        text = fld.format if fld.exact else (lambda x: format_complex(complex(x)))
        base = loaded.to_json_dict()
        for kind, obj in (("pair", result.pairs[0]), ("quad", result.quadruples[1])):
            body = dict(base)
            body["entries"] = [text(x) for row in obj.s.mat.tolist() for x in row]
            body["mu"] = [text(x) for row in obj.mu.tolist() for x in row]
            if kind == "quad":
                body["alpha"] = text(obj.alpha)
                body["beta"] = text(obj.beta)
            case.verify_paths.append(
                self._write(os.path.splitext(os.path.basename(case.path))[0] + "_" + kind, body)
            )

    def round(self):
        order = list(self.requests)
        self.rng.shuffle(order)
        return order

    def run(self, req):
        cmd, path, _case = req.args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([cmd, path])
        return code, buf.getvalue()

    # -- checks ---------------------------------------------------------

    def check(self, req, out):
        cmd, _path, case = req.args
        code, text = out
        lines = text.splitlines()
        if cmd == "verify":
            if code != 0:
                return "exit %d on a valid enhancement" % code
            bad = [l for l in lines if not re.match(r"[\w~]+: (pass|agree)( \(residual [^)]*\))?$", l)]
            names = {l.split(":")[0] for l in lines}
            if bad or not {"YB3", "ENH1"} <= names:
                return "verify lines %r" % (bad or lines)
            return None
        if cmd == "check":
            return self._check_check(case, code, lines)
        return self._check_enhance(case, code, lines)

    def _alpha_ok(self, case, text) -> bool:
        got = evaluate_text(text, case.point)
        if case.alpha is not None:
            want = evaluate_text(case.alpha, case.point)
            if isinstance(got, Fraction):
                return got == want
            return close(got, want) or close(got, -want)
        u = _eval_rows(case.u, case.point)
        v = _eval_rows(case.v, case.point)
        vu00 = sum(v[0][k] * u[k][0] for k in range(case.n))
        return close(got * got, vu00)

    def _check_check(self, case, code, lines):
        want_code = 0 if case.enhanceable else 1
        if code != want_code:
            return "exit %d, expected %d" % (code, want_code)
        if not lines or lines[0].startswith("QYB: pass") != case.qyb:
            return "QYB line %r" % (lines[:1],)
        if "biinvertible: %s" % ("yes" if case.biinvertible else "no") not in lines:
            return "biinvertibility verdict"
        if not case.biinvertible:
            return None
        try:
            u, _ = _parse_block(lines, lines.index("U:") + 1)
            v, _ = _parse_block(lines, lines.index("V:") + 1)
        except ValueError:
            return "no U / V block"
        if case.u is not None:
            if not _same_matrix(_eval_rows(u, case.point), _eval_rows(case.u, case.point)):
                return "U differs from the catalog"
            if not _same_matrix(_eval_rows(v, case.point), _eval_rows(case.v, case.point)):
                return "V differs from the catalog"
        alpha_lines = [l for l in lines if l.startswith("alpha = ")]
        if case.scalar != bool(alpha_lines):
            return "scalar verdict"
        if alpha_lines and not self._alpha_ok(case, alpha_lines[0][len("alpha = "):]):
            return "alpha %r" % alpha_lines[0]
        return None

    def _check_enhance(self, case, code, lines):
        want_code = 0 if case.enhanceable else 1
        if code != want_code:
            return "exit %d, expected %d" % (code, want_code)
        if code:
            return None
        if not lines or not lines[0].startswith("alpha = "):
            return "no alpha line"
        alpha_text = lines[0][len("alpha = "):]
        if not self._alpha_ok(case, alpha_text):
            return "alpha %r" % alpha_text
        alpha = evaluate_text(alpha_text, case.point)
        r = [[evaluate_text(x, case.point) for x in case.entries[i * case.n ** 2:(i + 1) * case.n ** 2]]
             for i in range(case.n ** 2)]
        n = case.n
        flip = [(i % n) * n + i // n for i in range(n * n)]
        pr = [[r[flip[i]][j] for j in range(n * n)] for i in range(n * n)]
        rp = [[r[i][flip[j]] for j in range(n * n)] for i in range(n * n)]
        blocks = {}
        for k, line in enumerate(lines):
            m = re.match(r"(pair|quadruple) \((PR|RP)\)", line)
            if m:
                s_rows, nxt = _parse_block(lines, k + 1)
                mu_rows, _ = _parse_block(lines, nxt + 1)
                blocks[m.groups()] = (line, _eval_rows(s_rows, case.point), _eval_rows(mu_rows, case.point))
        if len(blocks) != 4:
            return "expected 2 pairs and 2 quadruples, found %d" % len(blocks)
        for (kind, form), (line, s, mu) in blocks.items():
            braid = pr if form == "PR" else rp
            expected_mu = case.u if form == "PR" else case.v
            scale = alpha if kind == "pair" else 1
            if not _same_matrix(s, braid, scale):
                return "%s (%s) S is not %s" % (kind, form, "alpha*" + form if scale != 1 else form)
            if expected_mu is not None:
                mu_scale = 1 / alpha if kind == "pair" else 1
                if not _same_matrix(mu, _eval_rows(expected_mu, case.point), mu_scale):
                    return "%s (%s) mu" % (kind, form)
            if kind == "quadruple":
                m = re.search(r"alpha = (.*), beta = (.*), S =", line)
                if not m:
                    return "quadruple header %r" % line
                qa = evaluate_text(m.group(1), case.point)
                qb = evaluate_text(m.group(2), case.point)
                if not (close(qa * alpha, 1) and close(qb, alpha)):
                    return "quadruple alpha/beta %r" % line
        return None


# ---------------------------------------------------------------------------
# invariants


class _Invariant(Workload):
    """Shared part of the three invariant workloads.

    ``self.inp`` is what requests evaluate; ``self.exact_inp`` is the
    exact enhanced pair the references are computed from.
    """

    family = 7
    bindings = {"p": "1"}
    max_inverse = None  # cap on S^-1 letters per word, None for no cap

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._refs: dict[str, str] = {}

    def _pair(self):
        fx = fixture(self.family, bindings=self.bindings)
        return InvariantInput.from_pair(enhance(fx.r).pairs[0])

    def run(self, req):
        word = req.args[1]
        if req.kind == "tangle":
            return tangle_eval(closure_word(word), self.inp).at(0, 0)
        return turaev(self.inp, word)

    def reference(self, seed_word: BraidWord) -> str:
        """The exact invariant of the seed braid, as printed text (oracle work)."""
        key = seed_word.format()
        if key not in self._refs:
            self._refs[key] = format_scalar(turaev(self.exact_inp, seed_word))
        return self._refs[key]

    def _words(self, rng, plan) -> list[Request]:
        out = []
        for kind, m, lo, hi in plan:
            while True:
                seed_word, word = markov_word(rng, m, rng.randint(lo, hi))
                inverse = sum(1 for _, e in word.letters if e < 0)
                if self.max_inverse is None or inverse <= self.max_inverse:
                    break
            out.append(Request(kind, (seed_word, word), "%s m=%d" % (kind, m)))
        return out


class InvariantExact(_Invariant):
    """Exact family 7 at p = 1: monomial denominators, Z-graded."""

    name = "invariant_exact"
    tail_pct = 90.0
    plan = [("turaev", m, m + 5, m + 5) for m in (3, 4, 5, 6, 7)] + [
        ("tangle", 2, 6, 6), ("tangle", 3, 7, 7)]

    def setup(self):
        self.exact_inp = self.inp = self._pair()
        self.point = {"q": self.rng.choice(SAFE_RATIONALS)}

    def round(self):
        return self._words(self.rng, self.plan)

    def check(self, req, out):
        ref = evaluate_text(self.reference(req.args[0]), self.point)
        got = evaluate_text(format_scalar(out), self.point)
        return None if got == ref else "value differs from the seed braid's invariant"


class InvariantSwell(_Invariant):
    """Exact family 9: S^-1 has non-monomial denominators, so RatFun swells.

    Every S^-1 letter multiplies the denominators' degree.  Words are
    capped at two inverse letters: with three or four, a single 5-letter
    word at m = 3 takes 1.5 to 3.5 s and would decide the whole run.

    The word pool is fixed (drawn once from POOL_SEED): one word's cost
    ranges over two decades, so a pool drawn from the run seed would
    move the median by more than any bound.  The run seed orders each
    round and picks the words and point of the braid_rep cross-check.
    """

    name = "invariant_swell"
    family = 9
    bindings = None
    POOL_SEED = 0
    max_inverse = 2
    # 35 words: the median (word 17.5) and p75 (word 26.25) fall inside one
    # word's block of repeats.  p90 (word 31.5) would qualify by sample
    # count but sits in the heavy tail, where neighbouring words differ by
    # half and machine noise reorders them: it moved by 0.33 of its median
    # over 10 seeds.
    plan = [("turaev", 3, 4, 5)] * 27 + [("turaev", 4, 4, 5)] * 8
    tail_pct = 75.0

    def setup(self):
        self.exact_inp = self.inp = self._pair()
        self.pool = self._words(random.Random(self.POOL_SEED), self.plan)
        self.point = (Fraction(self.rng.randint(110, 140), 100), Fraction(self.rng.randint(10, 30), 100))
        self.sample = self.rng.sample(range(len(self.pool)), 2)

    def round(self):
        order = list(self.pool)
        self.rng.shuffle(order)
        return order

    def check(self, req, out):
        if format_scalar(out) != "0":
            return "value %s is not 0" % format_scalar(out)
        return None

    def cross_check(self) -> list[str]:
        """Exact rho(word) at the point against float braid_rep, on the sample.

        The exact entries are substituted exactly, at a Gaussian-rational
        point: substituting the swollen rational functions into the float
        field cancels away every digit.
        """
        import numpy as np

        gauss = Field(exact_tag(imaginary=True))
        re_part, im_part = self.point
        exact_q = gauss.from_fraction(re_part) + gauss.imag_unit() * gauss.from_fraction(im_part)
        target = Field(float_tag())
        s_float = Tensor4(self.inp.n, self.inp.s.mat.evaluate({"q": complex(re_part, im_part)}, target))
        failures = []
        for k in self.sample:
            word = self.pool[k].args[1]
            exact = braid_rep(self.inp.s, word).evaluate({"q": exact_q}, gauss)
            want = np.array([[complex(*map(float, x.as_gauss())) for x in row] for row in exact.tolist()])
            got = np.array(braid_rep(s_float, word).tolist())
            scale = max(1.0, float(np.abs(want).max()))
            if float(np.abs(want - got).max()) > 1e-9 * scale:
                failures.append("braid_rep of %s differs between backends" % word.format())
        return failures


class InvariantFloat(_Invariant):
    """Float family 7 at q = 1.3+0.2i: dense n^m buffers, memory-bound."""

    name = "invariant_float"
    tail_pct = 75.0
    # float cost depends only on m and the letter count, so both are fixed
    # per slot: the seed changes the words, not the work.  A round sorts
    # into blocks by cost: 6 tangles at m = 4, 4 turaev at m = 10, 4
    # tangles at m = 5, then m = 11 and m = 12.  With R rounds the median
    # (rank 8R) is the middle of the m = 10 block and p75 (rank 12R) the
    # middle of the m = 5 block, so each is read from 4R like requests.
    plan = [("turaev", 12, 30, 30), ("turaev", 11, 25, 25)] + [("turaev", 10, 28, 28)] * 4 + [
        ("tangle", 4, 10, 10)] * 6 + [("tangle", 5, 12, 12)] * 4

    def setup(self):
        self.exact_inp = self._pair()
        target = Field(float_tag())
        point = {"q": FLOAT_POINT}
        self.inp = InvariantInput(
            Tensor4(2, self.exact_inp.s.mat.evaluate(point, target)),
            self.exact_inp.mu.evaluate(point, target),
            target.one,
            target.one,
        )

    def round(self):
        return self._words(self.rng, self.plan)

    def check(self, req, out):
        ref = evaluate_text(self.reference(req.args[0]), {"q": FLOAT_POINT})
        if abs(out - ref) > 1e-9 * max(1.0, abs(ref)):
            return "relative error %.2e against the seed braid's invariant" % (
                abs(out - ref) / max(1.0, abs(ref)))
        return None


WORKLOADS = {w.name: w for w in (Decide, InvariantExact, InvariantSwell, InvariantFloat)}
