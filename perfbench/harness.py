"""Measurement loops of the benchmark: untraced end-to-end, traced per-layer.

Both are closed loops with one caller. The untraced loop runs jobs until the
run's seconds are used up; the first ``Workload.jobs`` of them are scored
for accuracy, so accuracy does not depend on speed. The traced loop runs a
fixed number of untraced/traced job pairs on the same seeds, so its counts
repeat exactly and the pair gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACE_PAIRS = 2  # untraced/traced job pairs per --trace 1 run


def machine_facts(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sswim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,  # None outside a git checkout
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def ops(job):
    """Operations one job attempts: train steps, batch predictions and round trips."""
    return job.steps_attempted + len(job.predict_s) + len(job.roundtrip_s)


@contextlib.contextmanager
def on_cpu(job):
    """Pin the process to the job's CPU, taking the usable CPUs in turn.

    On a shared virtual machine each CPU's speed drifts with its neighbours'
    load for tens of seconds; cycling spreads every run over all CPUs.
    """
    usable = os.sched_getaffinity(0)
    cpus = sorted(usable)
    os.sched_setaffinity(0, {cpus[job % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def untraced(w, seed, seconds, out_dir=OUT):
    """End-to-end metrics over jobs run until ``seconds`` are used up.

    Set-up time is the median over all set-ups. The other timings are means
    over every sample of the run: time per call, or rows over time for
    prediction, as a user running the workload for that long would see.
    On a shared machine whose speed drifts with other tenants' load, the
    mean of all samples repeated across runs better than their minimum,
    which rests on whether a run happened to catch a fast spell (see
    README.md). Accuracy is the median over the first ``w.jobs`` jobs.
    """
    started = time.perf_counter()
    jobs = []
    while len(jobs) < w.jobs or time.perf_counter() - started + jobs[-1].wall_s <= seconds:
        with on_cpu(len(jobs)):
            jobs.append(workloads.run_job(w, seed, len(jobs), out_dir))
    scored = jobs[:w.jobs]
    metrics = {
        "setup_s": (statistics.median([t for j in jobs for t in j.setup_s]), "s"),
        "train_s": (statistics.fmean(j.train_s for j in jobs), "s"),
        "predict_rows_per_s": (
            w.n_predict / statistics.fmean(t for j in jobs for t in j.predict_s), "rows/s"),
        "roundtrip_s": (statistics.fmean(t for j in jobs for t in j.roundtrip_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "test_rmse": (statistics.median(j.test_rmse for j in scored), "1"),
        "test_mnlp": (statistics.median(j.test_mnlp for j in scored), "nats"),
        "step_ok_frac": (1 - sum(j.rollbacks for j in scored)
                         / sum(j.steps_attempted for j in scored), "1"),
    }
    return jobs, metrics, []


def traced(w, seed, out_dir=OUT):
    """Per-layer metrics from traced jobs, each paired with an untraced twin."""
    recorder = spans.Recorder()
    jobs, plain_train, traced_train, failures = [], [], [], []
    wall = 0.0
    for i in range(TRACE_PAIRS):
        recorder.run_id = f"{w.name}-{seed}-{i}"
        with on_cpu(i):
            plain = workloads.run_job(w, seed, i, out_dir)
            with spans.install(recorder):
                t0 = time.perf_counter()
                job = workloads.run_job(w, seed, i, out_dir)
                wall += time.perf_counter() - t0
        if job.objectives != plain.objectives or job.test_rmse != plain.test_rmse:
            failures.append(f"job {i}: traced results differ from untraced")
        jobs += [plain, job]
        plain_train.append(plain.train_s)
        traced_train.append(job.train_s)
    metrics = spans.layer_metrics(recorder)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead"] = (sum(traced_train) / sum(plain_train), "ratio")
    if metrics["trace.self_sum_s"][0] > wall:
        failures.append("span self times add up to more than the traced wall time")
    for name, _ in spans.BOUNDARIES:
        calls = metrics[f"{name}.calls"][0]
        # warp_gaussian is the moment-matching path of layers after the first
        expected = w.depth >= 2 if name == "warping.warp_gaussian" else True
        if (calls > 0) != expected:
            failures.append(f"{name} recorded {calls} calls")
    recorder.dump(Path(out_dir) / f"spans-{w.name}-{seed}.jsonl")
    return jobs, metrics, failures


def main(workload, seed, seconds, trace):
    w = workloads.WORKLOADS.get(workload)
    if w is None:
        print(f"error: unknown workload {workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs, metrics, failures = traced(w, seed) if trace else untraced(w, seed, seconds)
    failures += [f"job {i}: {f}" for i, j in enumerate(jobs) for f in j.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = sum(ops(j) for j in jobs)
    # a failed check fails every operation of the run; otherwise rollbacks count
    failed = attempted if failures else sum(j.rollbacks for j in jobs)
    print(json.dumps({"machine": machine_facts(seed), "workload": w.name, "jobs": len(jobs)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
