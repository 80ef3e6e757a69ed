"""Run two source trees' benchmarks in alternating pairs and compare their metrics.

    python -m bench compare TREE_A TREE_B --workload W --seeds S [S ...]

For every seed, each tree runs its own ``perfbench/run.py --trace 0`` for
the ``run_seconds`` of TREE_A's ``BENCHMARK.json`` (35), in its own
process, one after the other; the tree that goes first alternates from
seed to seed. The table gives, for each end-to-end
metric of ``BENCHMARK.json``, both trees' medians and quartiles over the
seeds, how many pairs TREE_B won (ties count for neither side), and the
gap between the medians in units of TREE_A's interquartile range, signed
so that a positive gap favours TREE_B.

A run that is not ``correct`` names its failed jobs on stderr. Each such
job is run again with ``workloads.run_job`` in the other tree, and the
report says whether it fails there too, so a failure both trees share is
not taken for the change's. The runs write their model files under each
tree's ``perfbench/out/``, as the harness always does.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench.fingerprint import TreeError, checkout, subprocess_env

JOB_FAILURE = re.compile(r"^check failed: job (\d+): (.*)$")
TOOLS = Path(__file__).resolve().parent.parent  # the directory holding this package


@dataclasses.dataclass
class Run:
    """One ``perfbench/run.py`` run, parsed from its output."""

    tree: str  # "A" or "B"
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    job_failures: list  # (job, message) from the stderr check lines
    error: str = ""  # set when the run produced no result line


def check_tree(tree) -> Path:
    return checkout(tree, ("src/sswim/__init__.py", "perfbench/run.py",
                           "perfbench/workloads.py", "BENCHMARK.json"))


def read_benchmark(tree, workload):
    """``(run seconds, {end-to-end metric: whether higher is better})`` of the tree's benchmark."""
    spec = json.loads((Path(tree) / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise TreeError(f"{tree} has no workload {workload!r}; choose from {names}")
    return spec["run_seconds"], {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def parse_run(tree, seed, returncode, stdout, stderr) -> Run:
    """The result of one run from its exit code, stdout and stderr."""
    job_failures = [(int(m.group(1)), m.group(2))
                    for m in map(JOB_FAILURE.match, stderr.splitlines()) if m]
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return Run(tree, seed, False, 0, 0, {}, job_failures,
                   error=f"exit code {returncode}, no result line: {tail[0]}")
    return Run(tree, seed, correct and returncode == 0, attempted, failed, metrics,
               job_failures)


def run_tree(tree, label, workload, seed, seconds) -> Run:
    """One untraced benchmark run of ``tree``, from its own checkout."""
    proc = subprocess.run(
        [sys.executable, str(Path(tree) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=subprocess_env(), capture_output=True, text=True)
    return parse_run(label, seed, proc.returncode, proc.stdout, proc.stderr)


def rerun_job(tree, workload, seed, job) -> list:
    """The failed checks of one job run with ``workloads.run_job`` in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench.compare", str(tree), workload, str(seed), str(job)],
        cwd=TOOLS, env=subprocess_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return [f"job raised: {tail[0]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs_a, runs_b, higher_is_better) -> list:
    """Rows ``(metric, (q1, median, q3) of A, same of B, pairs B won, pairs, gap / IQR of A)``.

    Only pairs where both runs report the metric count. The gap is signed
    so that a positive value favours B; it is inf when A's IQR is 0 and the
    medians differ.
    """
    rows = []
    for name, higher in higher_is_better.items():
        pairs = [(a.metrics[name], b.metrics[name]) for a, b in zip(runs_a, runs_b)
                 if name in a.metrics and name in b.metrics]
        if not pairs:
            continue
        a, b = np.array(pairs).T
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        sign = 1.0 if higher else -1.0
        won = int(np.sum(sign * (b - a) > 0))
        gap = sign * (qb[1] - qa[1])
        iqr = qa[2] - qa[0]
        rel_gap = gap / iqr if iqr > 0 else (0.0 if gap == 0 else np.copysign(np.inf, gap))
        rows.append((name, tuple(qa), tuple(qb), won, len(pairs), rel_gap))
    return rows


def format_table(rows) -> str:
    lines = ["| metric | A median [q1, q3] | B median [q1, q3] | B better | gap / IQR(A) |",
             "|---|---|---|---|---|"]
    for name, qa, qb, won, n, rel_gap in rows:
        a, b = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb))
        lines.append(f"| {name} | {a} | {b} | {won}/{n} | {rel_gap:+.3g} |")
    return "\n".join(lines)


def format_runs(runs) -> str:
    lines = []
    for run in runs:
        status = "correct" if run.correct else run.error or "not correct"
        lines.append(f"{run.tree} seed {run.seed}: {status}, {run.failed} of "
                     f"{run.attempted} operations failed")
    return "\n".join(lines)


def attribute(runs, trees, workload) -> list:
    """Lines saying, for each failed job, whether it also fails in the other tree."""
    lines = []
    for run in runs:
        if run.correct:
            continue
        other = "B" if run.tree == "A" else "A"
        if not run.job_failures:
            lines.append(f"{run.tree} seed {run.seed}: not correct and no failed job named; "
                         "cannot attribute")
        messages = {}
        for job, message in run.job_failures:
            messages.setdefault(job, []).append(message)
        for job, here in messages.items():
            there = rerun_job(trees[other], workload, run.seed, job)
            verdict = (f"fails in {other} too: {'; '.join(there)}" if there
                       else f"passes in {other}")
            lines.append(f"{run.tree} seed {run.seed} job {job} ({'; '.join(here)}): {verdict}")
    return lines


def main(tree_a, tree_b, workload, seeds) -> str:
    """Run the pairs and return the report."""
    trees = {"A": check_tree(tree_a), "B": check_tree(tree_b)}
    seconds, higher_is_better = read_benchmark(trees["A"], workload)
    runs = {"A": [], "B": []}
    for i, seed in enumerate(seeds):
        for label in ("AB" if i % 2 == 0 else "BA"):
            run = run_tree(trees[label], label, workload, seed, seconds)
            runs[label].append(run)
            print(format_runs([run]), file=sys.stderr, flush=True)  # progress
    report = [f"workload {workload}, {len(seeds)} pairs, A = {trees['A']}, B = {trees['B']}",
              format_table(summarize(runs["A"], runs["B"], higher_is_better)),
              format_runs(runs["A"] + runs["B"])]
    for label, side in runs.items():
        failed, attempted = sum(r.failed for r in side), sum(r.attempted for r in side)
        report.append(f"{label}: {failed} of {attempted} operations failed")
    report += attribute(runs["A"] + runs["B"], trees, workload)
    return "\n".join(report)


def _run_job(tree, workload, seed, job):
    """Subprocess side of :func:`rerun_job`: print one job's failed checks as JSON."""
    tree = Path(tree)
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import workloads  # the tree's own

    with tempfile.TemporaryDirectory() as tmp:
        result = workloads.run_job(workloads.WORKLOADS[workload], seed, job, tmp)
    print(json.dumps(result.failures))


if __name__ == "__main__":
    _run_job(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
