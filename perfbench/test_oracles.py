"""Checks on the benchmark itself, not on ybtk.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_oracles.py   (from the repository root)

Each workload's output check must be able to fail: a few real requests
are run, one answer is corrupted, and exactly that one must be counted
as failed.  The tail percentile must stay fixed however few requests
fit in the time.  run.py must refuse to run outside a checkout, and a
traced run must report every per-layer metric BENCHMARK.json lists.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import check_all, end_to_end, serve  # noqa: E402


def _corrupt_decide(reqs, outs):
    for k, req in enumerate(reqs):
        code, text = outs[k]
        if req.kind == "check" and code == 0 and "\nalpha = " in text:
            outs[k] = (code, re.sub(r"\nalpha = (.*)", r"\nalpha = 2*(\1)", text, count=1))
            return
    raise AssertionError("no enhanceable check request to corrupt")


CORRUPT = {
    "decide": _corrupt_decide,
    "invariant_exact": lambda reqs, outs: outs.__setitem__(0, outs[0] + 1),
    "invariant_swell": lambda reqs, outs: outs.__setitem__(0, outs[0] + 1),
    "invariant_float": lambda reqs, outs: outs.__setitem__(0, outs[0] * (1 + 1e-6)),
}
# cheap requests only: enough to contain one corruptible answer
PICK = {
    "decide": lambda r: [x for x in r if "family" in x.label and x.kind == "check"][:6],
    "invariant_exact": lambda r: r[:3],
    "invariant_swell": lambda r: [x for x in r if x.args[1].strands == 3][:2],
    "invariant_float": lambda r: [x for x in r if x.kind == "tangle"][:2],
}


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench_run", "test-workdir")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_answer_is_counted_failed(name, workdir):
    wl = workloads.WORKLOADS[name](7, workdir)
    wl.setup()
    reqs = PICK[name](wl.round())
    outs = [wl.run(req) for req in reqs]
    assert check_all(wl, list(zip(range(len(reqs)), reqs, outs)))[0] == 0
    CORRUPT[name](reqs, outs)
    failed, reasons = check_all(wl, list(zip(range(len(reqs)), reqs, outs)))
    assert failed == 1, reasons


def test_raised_request_is_counted_failed(workdir):
    wl = workloads.WORKLOADS["invariant_exact"](7, workdir)
    wl.setup()
    req = wl.round()[0]
    assert check_all(wl, [(0, req, ValueError("boom"))])[0] == 1


def test_tail_percentile_is_fixed_and_served_until_ten_lie_beyond():
    class Tiny:
        def round(self):
            return [workloads.Request("noop", (), "noop")] * 3

        def run(self, req):
            return None

    metrics = end_to_end(serve(Tiny(), 0, tail_pct=90.0), 90.0)
    # 99 samples leave 9 beyond p90 and 102 leave 10: whole rounds of 3 stop at 102
    assert (metrics["samples"], metrics["tail_percentile"], metrics["tail_beyond"]) == (102, 90.0, 10)


def _run(args, cwd, timeout=170):
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_run", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["perfbench/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_listed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run(["perfbench/run.py", "--workload", "invariant_exact", "--seed", "2",
                 "--seconds", "2", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == listed
