"""One workload process: set up, serve timed rounds, check the outputs.

    python3 perfbench/worker.py <workload> --seed N --seconds S --mode setup|run|trace --workdir DIR

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Prints one JSON object on its last stdout line.  ``setup`` only sets the
workload up and reports how long that took, counted from before ybtk is
imported; ``run`` serves a closed loop (one client, the next request
sent when the previous one returns) in whole rounds until ``S`` seconds
have passed and at least ten samples lie beyond the workload's tail
percentile; ``trace`` serves a third of the time untraced and the rest
with spans, and reports the per-layer metrics.
"""

import time

T0 = time.perf_counter()  # set-up time includes importing ybtk and numpy

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402

import workloads  # noqa: E402

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def rank(pct, n):
    """Nearest rank (1-based) of the ``pct`` percentile of ``n`` samples."""
    return max(1, math.ceil(pct * n / 100))


def tail(latencies, pct):
    """(value, samples beyond) at the ``pct`` percentile."""
    ordered = sorted(latencies)
    k = rank(pct, len(ordered))
    return ordered[k - 1], len(ordered) - k


def serve(wl, seconds, tracer=None, next_id=0, tail_pct=None):
    """Whole rounds of requests until ``seconds`` have passed and, given
    ``tail_pct``, at least TAIL_BEYOND samples lie beyond that percentile."""
    lat, done = [], []
    start = time.perf_counter()
    while True:
        for req in wl.round():
            if tracer is not None:
                tracer.request = next_id
            t0 = time.perf_counter()
            try:
                out = wl.run(req)
            except Exception as exc:  # any raise is a failed request, not a crash
                out = exc
            lat.append(time.perf_counter() - t0)
            done.append((next_id, req, out))
            next_id += 1
        if time.perf_counter() - start >= seconds and (
                tail_pct is None or len(lat) - rank(tail_pct, len(lat)) >= TAIL_BEYOND):
            break
    if tracer is not None:
        tracer.request = None
    return {"lat": lat, "done": done, "elapsed": time.perf_counter() - start, "next_id": next_id}


def check_all(wl, done):
    """Failed request count and the first few reasons; runs untimed."""
    reasons = []
    for _, req, out in done:
        if isinstance(out, Exception):
            reasons.append("%s: raised %r" % (req.label, out))
            continue
        why = wl.check(req, out)
        if why is not None:
            reasons.append("%s: %s" % (req.label, why))
    if hasattr(wl, "cross_check"):
        reasons += wl.cross_check()
    return len(reasons), reasons[:5]


def env_info():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(window, pct):
    lat = window["lat"]
    value, past = tail(lat, pct)
    return {
        "req_p50_s": statistics.median(lat),
        "req_tail_s": value,
        "tail_percentile": pct,
        "tail_beyond": past,
        "samples": len(lat),
        "throughput_rps": len(lat) / window["elapsed"],
        "elapsed_s": window["elapsed"],
    }


def peak_alloc_mb(wl):
    """Largest tracemalloc peak over one invariant request per distinct label."""
    seen, peak = set(), 0
    for req in wl.round():
        if req.kind not in ("turaev", "tangle") or req.label in seen or len(seen) >= 8:
            continue
        seen.add(req.label)
        tracemalloc.start()
        try:
            wl.run(req)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def traced_run(wl, tracer, args):
    """A third of the time untraced, the rest traced; the per-layer metrics."""
    import spans

    setup_layer = spans.setup_metrics(tracer)
    tracer.uninstall()
    plain = serve(wl, args.seconds / 3)
    tracer.spans.clear()
    tracer.reset_counters()
    tracer.install()
    traced = serve(wl, args.seconds * 2 / 3, tracer, plain["next_id"])
    tracer.uninstall()
    ids = [i for i, _, _ in traced["done"]]
    layer = spans.layer_metrics(tracer, ids, sum(traced["lat"]))
    layer.update(setup_layer)
    layer.update(spans.dense_cost([req for _, req, _ in traced["done"]], wl))
    layer["invariants.peak_alloc_mb"] = peak_alloc_mb(wl)
    untraced_p50 = statistics.median(plain["lat"])
    traced_p50 = statistics.median(traced["lat"])
    layer["trace.untraced_p50_s"] = untraced_p50
    layer["trace.traced_p50_s"] = traced_p50
    layer["trace.overhead_s"] = traced_p50 - untraced_p50
    layer["trace.spans_per_request"] = len(tracer.spans) / max(1, len(ids))
    path = os.path.join(args.workdir, os.pardir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "request", "hidden", "observed"],
                   "spans": tracer.spans}, fh)
    return {"layers": layer, "samples": len(plain["lat"]) + len(traced["lat"]),
            "trace_file": os.path.normpath(path), "done": plain["done"] + traced["done"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.request = "setup"
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    result = {"setup_s": setup_s, "env": env_info()}
    if tracer is None:
        window = serve(wl, args.seconds, tail_pct=wl.tail_pct)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(end_to_end(window, wl.tail_pct))
        done = window["done"]
    else:
        result.update(traced_run(wl, tracer, args))
        done = result.pop("done")
    failed, reasons = check_all(wl, done)
    result.update(attempted=len(done), failed=failed, failures=reasons)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
