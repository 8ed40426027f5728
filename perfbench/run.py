"""ybtk benchmark entry point.

    python3 perfbench/run.py --workload decide|invariant_exact|invariant_swell|invariant_float|all
                             --seed N --seconds S --trace 0|1

Run from the root of a ybtk checkout; ybtk is imported from ``src``
(pure Python, nothing to build).  Every workload runs in its own
process, a closed loop with one client.  BLAS threads are pinned to the
number of usable cores.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several set-ups), median and tail request latency, throughput and peak
RSS; ``--trace 1`` prints the per-layer metrics from a traced run.  The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a fuller record, with the environment, is written to
``.perfbench_run/result-<workload>-seed<N>-trace<T>.json``.  Exit code 0
means the run finished; ``correct`` says whether every output passed its
check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide", "invariant_exact", "invariant_swell", "invariant_float")
OUT_DIR = ".perfbench_run"
SETUPS = 7  # set-ups per run, half before and half after the timed one; their median is reported
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("self_share.") or name == "tensors.density":
        return "ratio"
    if name == "invariants.flops_computed":
        return "flop"
    if name == "invariants.bytes_computed":
        return "B"
    return "count"


class BenchError(Exception):
    pass


def child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def worker(workload, seed, seconds, mode, workdir, env, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--workdir", workdir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the %s step" % mode)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s step did not finish in time" % (workload, mode)) from None
    if proc.returncode != 0:
        raise BenchError("%s %s step failed (exit %d):\n%s" % (
            workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("%s %s step printed no result" % (workload, mode)) from None


def run_workload(workload, seed, seconds, traced, env, deadline) -> dict:
    workdir = os.path.join(OUT_DIR, "work-%s-seed%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir)
    try:
        if traced:
            return worker(workload, seed, seconds, "trace", workdir, env, deadline)
        def setups(count):
            return [worker(workload, seed, seconds, "setup", workdir, env, deadline)["setup_s"]
                    for _ in range(count)]

        before = setups(SETUPS // 2)
        result = worker(workload, seed, seconds, "run", workdir, env, deadline)
        result["setup_runs_s"] = before + [result["setup_s"]] + setups(SETUPS // 2)
        result["setup_s"] = statistics.median(result["setup_runs_s"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload, seed, seconds, traced, result) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    print("workload %s  seed %d  seconds %g  closed loop, 1 client" % (workload, seed, seconds))
    if traced:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(result["layers"].items())}
        for name, m in metrics.items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  tracing overhead on req_p50_s: %+.6f s (traced %.6f s, untraced %.6f s)" % (
            result["layers"]["trace.overhead_s"], result["layers"]["trace.traced_p50_s"],
            result["layers"]["trace.untraced_p50_s"]))
        print("  spans written to %s" % result["trace_file"])
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
        notes = {
            "setup_s": "median of %d set-ups" % len(result["setup_runs_s"]),
            "req_tail_s": "p%g, %d of %d samples beyond" % (
                result["tail_percentile"], result["tail_beyond"], result["samples"]),
            "throughput_rps": "%d requests in %.2f s" % (result["samples"], result["elapsed_s"]),
        }
        for name, m in metrics.items():
            print("  %-16s %12.6f %-4s %s" % (name, m["value"], m["unit"], notes.get(name, "")))
    ratio = result["failed"] / result["attempted"]
    print("  %-16s %12.6f %-5s (%d of %d requests failed)" % (
        "failed_ratio", ratio, "ratio", result["failed"], result["attempted"]))
    for reason in result["failures"]:
        print("    failed: %s" % reason)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)

    if not os.path.isfile(os.path.join("src", "ybtk", "__init__.py")):
        print("error: run from the root of a ybtk checkout (no src/ybtk here)", file=sys.stderr)
        return 2
    env, nproc = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), env, deadline)
            result["env"] = dict(result.get("env", {}), nproc=nproc, commit=git_commit())
            got = report(name, args.seed, args.seconds, bool(args.trace), result)
            metrics.update(got if len(names) == 1 else {"%s.%s" % (name, k): v for k, v in got.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            print("env: %s" % json.dumps(result["env"], sort_keys=True))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
