"""Smoke test of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py

Every workload runs at a tiny size (one cycle, 2-digit inputs) with
tracing off and on; every metric named in BENCHMARK.json must be printed
with its unit.  The oracle must reject a corrupted envelope.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--heights", "2", "--min-jobs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result, lines = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {tuple(line.split()[::2]) for line in lines[:-2]}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert (m["name"], m["unit"]) in printed


def envelope(argv):
    sys.path.insert(0, str(ROOT / "src"))
    from g2satake import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def test_oracle_rejects_corrupted_envelope():
    job = jobs.curve_job("fibration", "rosenhain", [2, 3, 5], 0,
                         model="alternate")
    code, text = envelope(job.argv)
    assert oracle.classify(job, code, text) is None
    doc = json.loads(text)
    doc["result"]["euler_sum"] = 23
    assert oracle.classify(job, code, json.dumps(doc)) == oracle.CHECK_FAILED


def test_oracle_failure_classes():
    job = jobs.curve_job("phi", "rosenhain", [2, 2, 5], 2, locus="repeated")
    code, text = envelope(job.argv)
    assert code == 2 and oracle.classify(job, code, text) is None
    wrong = jobs.curve_job("phi", "rosenhain", [2, 2, 5], 0)
    assert oracle.classify(wrong, code, text) == oracle.WRONG_STATUS
    untyped = json.dumps({"status": "domain-error", "error": "x"})
    assert oracle.classify(job, code, untyped) == oracle.CHECK_FAILED
    assert oracle.classify(job, 1, "", "Traceback ...") == oracle.UNCAUGHT
