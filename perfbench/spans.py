"""Spans and counters around ybtk's public functions, patched from outside.

``Tracer.install`` replaces each listed function or method with a
wrapper that records a span (see ``Tracer``).
Module-level functions are replaced in every namespace that binds them
(``ybtk.rmatrix.yb_sides``, ``ybtk.cli.enhance``, the benchmark's own
``workloads.turaev`` ...), methods on their class.  ``RatFun`` arithmetic
is only counted, and ``parse_scalar`` / ``format_scalar`` are only timed:
a stored span per scalar would cost more than the scalar.  ``uninstall``
restores every original.

``layer_metrics`` turns the spans of the traced requests into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

from ybtk import closure_word
from ybtk.scalars import RatFun
from ybtk.tensors import Mat, Tensor4

MODULES = ("ybtk", "ybtk.scalars", "ybtk.tensors", "ybtk.rmatrix",
           "ybtk.invariants", "ybtk.catalog", "ybtk.cli", "workloads")

FUNCTIONS = {
    "ybtk.scalars": ["parse_scalar", "format_scalar"],
    "ybtk.tensors": ["yb_sides", "embed", "permutation"],
    "ybtk.rmatrix": ["check_qyb", "full_check", "braid_forms", "second_inverse",
                     "compute_uv", "enhancement_test", "enhance", "verify_pair",
                     "verify_quadruple"],
    "ybtk.invariants": ["braid_rep", "turaev", "tangle_eval", "closure_word", "braidings"],
    "ybtk.catalog": ["fixture"],
    "ybtk.cli": ["main", "read_matrix"],
}
METHODS = {
    Mat: ["__matmul__", "kron", "trace_product", "inverse", "compare", "build", "evaluate"],
    Tensor4: ["from_entry_fn", "t1", "t2", "lift12", "lift13", "lift23"],
}
COUNTED = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
           "__eq__": "eq", "invert": "invert"}

REINDEX = {"tensors.Tensor4.t1", "tensors.Tensor4.t2", "tensors.Tensor4.lift12",
           "tensors.Tensor4.lift13", "tensors.Tensor4.lift23",
           "tensors.Tensor4.from_entry_fn", "tensors.Mat.build"}
TIMED = {"parse_scalar", "format_scalar"}
BRAID_REP_SAMPLE = 5  # exact braid_rep results whose entry sizes are measured
OBSERVE = "bench.observe"


def _short(module: str, name: str) -> str:
    return module.replace("ybtk.", "") + "." + name


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def rat_size(x) -> tuple[int, int, int]:
    """(numerator terms, denominator terms, max total |degree|) of a RatFun."""
    if not isinstance(x, RatFun):
        return 0, 0, 0
    degree = max(sum(abs(e) for e in mono) for mono in list(x.num.terms) + list(x.den.terms))
    return len(x.num.terms), len(x.den.terms), degree


class Tracer:
    """In-memory span recorder; ``request`` tags spans with the request id.

    A span is ``[name, start, end, parent, request, hidden, observed]``:
    ``hidden`` is time of direct children that are timed but not stored
    (scalar parsing and formatting, and the tracer's own observation),
    ``observed`` the observation time anywhere below the span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.braid_rep_sample = BRAID_REP_SAMPLE
        self._patched: list[tuple[object, str, object]] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counts: Counter = Counter()
        self.timed: Counter = Counter()
        self.sizes = [0, 0, 0]
        self.max_dim = 0
        self.rep_dim = 0
        self.densities: list[float] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for modname, names in FUNCTIONS.items():
            mod = sys.modules[modname]
            for name in names:
                original = getattr(mod, name)
                make = self._timed if name in TIMED else self._span
                wrapper = make(_short(modname, name), original)
                for target in mods:
                    if getattr(target, name, None) is original:
                        self._set(target, name, wrapper)
        for cls, names in METHODS.items():
            prefix = _short(cls.__module__, cls.__name__)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, staticmethod):
                    self._set(cls, name, staticmethod(self._span(prefix + "." + name, raw.__func__)))
                else:
                    self._set(cls, name, self._span(prefix + "." + name, raw))
        for name, key in COUNTED.items():
            self._set(RatFun, name, self._count(key, RatFun.__dict__[name]))

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def _set(self, obj, name, value):
        original = obj.__dict__[name] if isinstance(obj, type) else getattr(obj, name)
        self._patched.append((obj, name, original))
        setattr(obj, name, value)

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _hide(self, seconds: float, observed: bool) -> None:
        """Charge ``seconds`` of unstored child time to the open spans."""
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds
            if observed:
                for idx in self.stack:
                    self.spans[idx][6] += seconds

    def _timed(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                tracer.timed[name] += seconds
                tracer._hide(seconds, False)

        return timed

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.request, 0.0, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            tracer._observe(name, result)
            return result

        return spanned

    # -- observation, charged as hidden time so it is not layer time ------

    def _observe(self, name, result):
        start = time.perf_counter()
        mat = result.mat if isinstance(result, Tensor4) else result
        if isinstance(mat, Mat):
            self.max_dim = max(self.max_dim, mat.rows, mat.cols)
        values = []
        if name == "invariants.braid_rep":
            self.rep_dim = max(self.rep_dim, mat.rows)
            if mat.field.exact:
                rows = mat.tolist()
                nonzero = sum(1 for row in rows for x in row if not x.is_zero)
                self.densities.append(nonzero / (mat.rows * mat.cols))
                if self.braid_rep_sample > 0:
                    self.braid_rep_sample -= 1
                    values = [x for row in rows for x in row]
            else:
                self.densities.append(float(np.count_nonzero(mat._a)) / (mat.rows * mat.cols))
        elif name in ("invariants.turaev", "invariants.tangle_eval", "rmatrix.second_inverse"):
            values = [result] if not isinstance(mat, Mat) else (
                [x for row in mat.tolist() for x in row] if mat.field.exact else [])
        elif name == "rmatrix.enhancement_test":
            values = [result.alpha_sq] + [x for m in (result.u, result.v) if m is not None
                                          for row in m.tolist() for x in row]
        for v in values:
            for k, size in enumerate(rat_size(v)):
                if size > self.sizes[k]:
                    self.sizes[k] = size
        seconds = time.perf_counter() - start
        self.timed[OBSERVE] += seconds
        self._hide(seconds, True)


# ---------------------------------------------------------------------------
# span arithmetic


def _dur(s) -> float:
    """Span duration without the tracer's own observation below it."""
    return s[2] - s[1] - s[6]


def layer_metrics(tracer: Tracer, request_ids, requests_total_s: float) -> dict:
    """Per-request layer metrics from the spans of ``request_ids``.

    Counters (``tracer.counts``, ``timed``, sizes) must have been reset at
    the start of the traced window.  Times are inclusive of child spans
    unless the name says ``self``.
    """
    ids = set(request_ids)
    nreq = max(1, len(ids))
    keep = [i for i, s in enumerate(tracer.spans) if s[4] in ids]
    renumber = {old: k for k, old in enumerate(keep)}
    spans = [tracer.spans[i] for i in keep]
    parent = [renumber.get(s[3], -1) for s in spans]
    kids: dict[int, list[int]] = {}
    for k, p in enumerate(parent):
        kids.setdefault(p, []).append(k)

    def outermost(names):
        out = []
        for k, s in enumerate(spans):
            if s[0] in names:
                p = parent[k]
                while p >= 0 and spans[p][0] not in names:
                    p = parent[p]
                if p < 0:
                    out.append(k)
        return out

    def incl(*names):
        return sum(_dur(spans[k]) for k in outermost(set(names))) / nreq

    def calls(name):
        return sum(1 for s in spans if s[0] == name) / nreq

    def self_of(k, only=None):
        """Span time minus all its children, or minus the children named in ``only``."""
        s, ch = spans[k], kids.get(k, [])
        if only is None:
            return (s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in ch) - s[5]
        return _dur(s) - sum(_dur(spans[c]) for c in ch if spans[c][0] in only)

    self_time = Counter()
    for k, s in enumerate(spans):
        self_time[layer_of(s[0])] += self_of(k)
    self_time["scalars"] += tracer.timed["scalars.parse_scalar"] + tracer.timed["scalars.format_scalar"]

    # cli self time: main minus the rmatrix and invariants spans below it
    cli_self = 0.0
    for k in outermost({"cli.main"}):
        cli_self += _dur(spans[k])
        todo = list(kids.get(k, []))
        while todo:
            c = todo.pop()
            if layer_of(spans[c][0]) in ("rmatrix", "invariants"):
                cli_self -= _dur(spans[c])
            else:
                todo.extend(kids.get(c, []))

    def under_rmatrix(k):
        p = parent[k]
        while p >= 0 and layer_of(spans[p][0]) != "rmatrix":
            p = parent[p]
        return p >= 0

    counts = tracer.counts
    metrics = {
        "scalars.mul_calls": counts["mul"] / nreq,
        "scalars.add_calls": counts["add"] / nreq,
        "scalars.eq_calls": counts["eq"] / nreq,
        "scalars.invert_calls": counts["invert"] / nreq,
        "scalars.result_terms_max": tracer.sizes[0],
        "scalars.result_den_terms_max": tracer.sizes[1],
        "scalars.result_degree_max": tracer.sizes[2],
        "scalars.parse_s": tracer.timed["scalars.parse_scalar"] / nreq,
        "scalars.format_s": tracer.timed["scalars.format_scalar"] / nreq,
        "tensors.matmul_calls": calls("tensors.Mat.__matmul__"),
        "tensors.matmul_s": incl("tensors.Mat.__matmul__"),
        "tensors.kron_calls": calls("tensors.Mat.kron"),
        "tensors.kron_s": incl("tensors.Mat.kron"),
        "tensors.trace_product_s": incl("tensors.Mat.trace_product"),
        "tensors.inverse_calls": calls("tensors.Mat.inverse"),
        "tensors.inverse_s": incl("tensors.Mat.inverse"),
        "tensors.reindex_s": incl(*REINDEX),
        "tensors.compare_s": incl("tensors.Mat.compare"),
        "tensors.max_dim": tracer.max_dim,
        "tensors.density": sum(tracer.densities) / len(tracer.densities) if tracer.densities else 0.0,
        "rmatrix.check_qyb_s": incl("rmatrix.check_qyb"),
        "rmatrix.second_inverse_s": incl("rmatrix.second_inverse"),
        "rmatrix.second_inverse_calls": calls("rmatrix.second_inverse"),
        "rmatrix.enhancement_test_s": incl("rmatrix.enhancement_test"),
        "rmatrix.enhance_self_s": sum(self_of(k) for k in outermost({"rmatrix.enhance"})) / nreq,
        "rmatrix.verify_pair_s": incl("rmatrix.verify_pair"),
        "rmatrix.verify_quadruple_s": incl("rmatrix.verify_quadruple"),
        "rmatrix.inverses_per_decision": sum(
            1 for k, s in enumerate(spans) if s[0] == "tensors.Mat.inverse" and under_rmatrix(k)) / nreq,
        "invariants.braid_rep_s": incl("invariants.braid_rep"),
        "invariants.turaev_self_s": sum(
            self_of(k, {"invariants.braid_rep"}) for k in outermost({"invariants.turaev"})) / nreq,
        "invariants.tangle_eval_s": incl("invariants.tangle_eval"),
        "invariants.rep_dim": tracer.rep_dim,
        "cli.main_s": incl("cli.main"),
        "cli.read_matrix_s": incl("cli.read_matrix"),
        "cli.self_s": cli_self / nreq,
    }
    total = max(requests_total_s, 1e-12)
    for layer in ("scalars", "tensors", "rmatrix", "invariants", "cli"):
        metrics["self_share.%s" % layer] = self_time[layer] / total
    metrics["self_share.bench"] = 1.0 - sum(self_time.values()) / total
    return metrics


def setup_metrics(tracer: Tracer) -> dict:
    """Span totals recorded while the workload was being set up."""
    spans = [s for s in tracer.spans if s[4] == "setup"]
    fixture = sum(s[2] - s[1] - s[6] for s in spans if s[0] == "catalog.fixture")
    return {"catalog.fixture_s": fixture}


def dense_cost(requests, wl) -> dict:
    """Flops and bytes per request of the dense float contraction, computed
    from n, m and the letters (not measured); 0 on exact inputs, whose
    contraction is a different, zero-skipping code path.

    A braid letter contracts an n^2 x n^2 block against the dim x dim
    product: 8 n^2 dim^2 real flops, reading and writing 16 dim^2 bytes.
    A tangle layer is a kron'd matrix applied to the state vector.
    """
    inp = getattr(wl, "inp", None)
    if inp is None or inp.s.mat.field.exact:
        return {"invariants.flops_computed": 0.0, "invariants.bytes_computed": 0.0}
    flops = moved = 0
    for req in requests:
        if req.kind == "turaev":
            word = req.args[1]
            dim, letters = inp.n ** word.strands, len(word.letters)
            flops += 8 * dim * dim * (inp.n ** 2 * letters + 1)
            moved += 16 * dim * dim * (2 * letters + 3)
        elif req.kind == "tangle":
            for dom, cod in closure_word(req.args[1]).layer_types():
                size = inp.n ** (len(dom) + len(cod))
                flops += 8 * size
                moved += 16 * size
    nreq = max(1, len(requests))
    return {"invariants.flops_computed": flops / nreq, "invariants.bytes_computed": moved / nreq}
