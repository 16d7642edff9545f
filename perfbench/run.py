"""Seeded benchmark of the g2satake CLI: end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Workloads (jobs.py): ``cli-cold`` (a fresh ``python -m g2satake.cli``
process per job), ``exact-sweep`` and ``numeric-roundtrip`` (in-process
``g2satake.cli.run(argv)`` with stdout captured).  Each is a closed loop
with one client: a job starts when the previous one has finished.  The
timed phase runs whole cycles of the workload's fixed job mix: at least
``--min-jobs`` jobs (100 by default, so that ten samples lie beyond the
90th percentile), then another cycle only while it is expected to end
within ``--seconds``.
Every job's outcome is checked afterwards by ``oracle.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same job mix untraced for half the time, replays
exactly those jobs with the layer wrappers of ``tracing.py`` installed,
and reports the per-layer metrics; the spans are written to
``perfbench/.out/``.

Output: a report, one JSON line with the environment, sample counts and
failures by class, and as the last line the result
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false
when a job returned a result that contradicts the mathematics
(``cli.check_failed``); crashes and wrong exit codes are counted in
``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import jobs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 7
IMPORT_PROBES = 5


@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: str | None
    seconds: float
    rss_kb: int = 0


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


class InProcessRunner:
    """Calls ``g2satake.cli.run`` through the module attribute, so the
    traced replay goes through the installed wrapper."""

    def __init__(self):
        from g2satake import cli

        self.cli = cli
        self.recorder = None

    def run(self, job, job_id):
        if self.recorder is not None:
            self.recorder.job = job_id
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(list(job.argv))
            error = None
        except Exception as e:  # escaped the CLI: counted as cli.uncaught
            code, error = None, f"{type(e).__name__}: {e}"[:300]
        return Outcome(code, buf.getvalue(), error, time.perf_counter() - start)


class ProcessRunner:
    """Runs each job as a fresh process and reaps it with ``wait4`` so
    that the child's own peak RSS is known."""

    def __init__(self, work_dir, traced=False):
        self.work_dir = work_dir
        self.traced = traced
        self.spans = []

    def run(self, job, job_id):
        if self.traced:
            span_file = self.work_dir / f"spans-{job_id}.jsonl"
            cmd = [sys.executable, str(HERE / "child.py"), *job.argv]
            env = child_env({"PERFBENCH_JOB": str(job_id),
                             "PERFBENCH_SPANS": str(span_file)})
        else:
            cmd = [sys.executable, "-m", "g2satake.cli", *job.argv]
            env = child_env()
        with open(self.work_dir / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL if job.stdin is None else subprocess.PIPE)
            if job.stdin is not None:
                with contextlib.suppress(BrokenPipeError):
                    proc.stdin.write(job.stdin.encode())
                proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace")
        if self.traced:
            offset = len(self.spans)
            for span in tracing.load(span_file):
                if span[3] >= 0:
                    span[3] += offset
                self.spans.append(span)
            span_file.unlink()
        error = err_text[-300:] if "Traceback" in err_text else None
        return Outcome(proc.returncode, out.decode(errors="replace"), error,
                       seconds, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# set-up, phases and metrics
# ---------------------------------------------------------------------------


def make_workload(args, work_dir):
    heights = [int(h) for h in args.heights.split(",")]
    return jobs.WORKLOADS[args.workload](args.seed, heights, str(work_dir))


def write_documents(cycle):
    for job in cycle:
        if job.doc is not None:
            with open(job.doc_path, "w") as fh:
                json.dump(job.doc, fh)


def setup(args, work_dir):
    """Everything before the first timed job: imports, input generation
    and, in process, one untimed warm-up job per command."""
    workload = make_workload(args, work_dir)
    first = workload.cycle(0)
    write_documents(first)
    if not workload.in_process:
        return workload, ProcessRunner(work_dir), first
    runner = InProcessRunner()
    for i, job in enumerate(workload.warmup()):
        runner.run(job, -1 - i)
    return workload, runner, first


def probe_setup(args):
    """Median wall time of the set-up in fresh processes, from spawn to
    the point where the first timed job would start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--heights", args.heights, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def probe_import_ms():
    """Median time to import g2satake.cli in a fresh process."""
    code = ("import time; t = time.perf_counter(); import g2satake.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    times = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=child_env(), capture_output=True, text=True,
                             check=True)
        times.append(float(res.stdout))
    return statistics.median(times)


def run_cycle(runner, cycle, records):
    start = time.perf_counter()
    for job in cycle:
        records.append((job, runner.run(job, len(records))))
    return time.perf_counter() - start


def timed_phase(workload, runner, budget, first, min_jobs=1):
    """Run whole cycles: until ``min_jobs`` jobs, then while the next cycle
    is expected to end within ``budget`` seconds."""
    cycles, records, elapsed = [first], [], 0.0
    while True:
        elapsed += run_cycle(runner, cycles[-1], records)
        if (len(records) >= min_jobs
                and elapsed + elapsed / len(cycles) > budget):
            return cycles, records, elapsed
        cycles.append(workload.cycle(len(cycles)))
        write_documents(cycles[-1])


def replay(runner, cycles):
    """Exactly the jobs of ``cycles`` again, in the same order."""
    records = []
    elapsed = sum(run_cycle(runner, cycle, records) for cycle in cycles)
    return records, elapsed


def judge(records):
    """Failure class of every record (None for a correct outcome)."""
    return [oracle.classify(job, out.code, out.stdout, out.error)
            for job, out in records]


def end_to_end(records, verdicts, elapsed, setup_s, in_process):
    lat_ms = [out.seconds * 1e3 for _, out in records]
    ok = sum(v is None for v in verdicts)
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(out.rss_kb for _, out in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (ok / elapsed, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10)[8]
                       if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "ok_frac": (ok / len(records), "ratio"),
        "rss_peak_mb": (rss_kb / 1024, "MB"),
    }
    return metrics


def failure_summary(records, verdicts):
    by_class = {c: Counter() for c in oracle.CLASSES}
    for (job, _), verdict in zip(records, verdicts):
        if verdict is not None:
            key = f"{job.command} {job.height} {job.locus} {job.form}"
            by_class[verdict][key] += 1
    return {c: dict(sorted(n.items())) for c, n in by_class.items()}


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        return head.stdout.strip() or None
    except OSError:
        return None


def environment(seed):
    import numpy
    from g2satake import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "G2SATAKE_NO_NUMBA": os.environ.get("G2SATAKE_NO_NUMBA"),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def report(args, metrics, extra, result):
    samples, failed = extra["samples"], extra["failed_frac"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{samples['jobs']} jobs in {samples['cycles']} cycles, "
          f"{samples['timed_s']:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6g} {unit}")
    counts = ", ".join(f"{c} {sum(n.values())}"
                       for c, n in extra["failures"].items())
    print(f"  {'failed_frac':<48} {failed['value']:14.6g} ratio"
          f"  ({failed['failed']} of {failed['attempted']}: {counts})")
    print(json.dumps(extra, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heights", default="2,10,30,60",
                    help="lambda heights in digits to draw from")
    ap.add_argument("--min-jobs", type=int, default=100,
                    help="run whole cycles until at least this many jobs")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "g2satake" / "cli.py").is_file():
        print(f"perfbench: no g2satake sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup(args, work_dir)
            print("ready", flush=True)
            return 0
        compileall.compile_dir(str(SRC / "g2satake"), quiet=1)
        workload, runner, first = setup(args, work_dir)
        if args.trace:
            metrics, extra, result = traced_run(args, workload, runner, first,
                                                work_dir)
        else:
            metrics, extra, result = untraced_run(args, workload, runner, first)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report(args, metrics, extra, result)
    return 0


def summary(args, records, verdicts, cycles, elapsed):
    failed = sum(v is not None for v in verdicts)
    return {
        "environment": environment(args.seed),
        "workload": args.workload,
        "samples": {"jobs": len(records), "cycles": len(cycles),
                    "timed_s": elapsed, "setup_probes": SETUP_PROBES},
        "failed_frac": {"value": failed / len(records), "unit": "ratio",
                        "failed": failed, "attempted": len(records)},
        "failures": failure_summary(records, verdicts),
    }


def result_line(metrics, records, verdicts, correct):
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(v is not None for v in verdicts),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced_run(args, workload, runner, first):
    setup_s = probe_setup(args)
    cycles, records, elapsed = timed_phase(workload, runner, args.seconds, first,
                                           args.min_jobs)
    verdicts = judge(records)
    metrics = end_to_end(records, verdicts, elapsed, setup_s,
                         workload.in_process)
    extra = summary(args, records, verdicts, cycles, elapsed)
    correct = oracle.CHECK_FAILED not in verdicts
    return metrics, extra, result_line(metrics, records, verdicts, correct)


def traced_run(args, workload, runner, first, work_dir):
    cycles, plain, plain_s = timed_phase(workload, runner, args.seconds / 2, first)
    if workload.in_process:
        traced_runner = runner
        traced_runner.recorder = tracing.Recorder()
        traced_runner.recorder.install()
    else:
        traced_runner = ProcessRunner(work_dir, traced=True)
    records, traced_s = replay(traced_runner, cycles)
    spans = (traced_runner.recorder.spans if workload.in_process
             else traced_runner.spans)
    plain_verdicts, verdicts = judge(plain), judge(records)
    heights = {i: job.height for i, (job, _) in enumerate(records)}
    metrics = tracing.layer_metrics(spans, heights)
    metrics["cli.import_ms"] = (probe_import_ms(), "ms")
    metrics["cli.out_bytes"] = (
        statistics.fmean(len(out.stdout.encode()) for _, out in records), "bytes")
    plain_rate = sum(v is None for v in plain_verdicts) / plain_s
    traced_rate = sum(v is None for v in verdicts) / traced_s
    metrics["trace.overhead_frac"] = (1 - traced_rate / plain_rate, "ratio")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracing.dump(spans, trace_file)
    extra = summary(args, records, verdicts, cycles, traced_s)
    extra["trace_file"] = str(trace_file.relative_to(ROOT))
    extra["untraced"] = {"jobs": len(plain), "timed_s": plain_s}
    correct = oracle.CHECK_FAILED not in plain_verdicts + verdicts
    return metrics, extra, result_line(metrics, records, verdicts, correct)


if __name__ == "__main__":
    sys.exit(main())
