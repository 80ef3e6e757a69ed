"""Self-test of ``python -m bench compare`` on canned harness output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import compare  # noqa: E402

MACHINE = json.dumps({"machine": {"nproc": 2}, "workload": "gramacy_tall", "jobs": 4})


def result_line(correct, predict, train, failed=0):
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": {
        "predict_rows_per_s": {"value": predict, "unit": "rows/s"},
        "train_s": {"value": train, "unit": "s"}}})


def test_parse_reads_the_result_line_and_the_failed_jobs():
    stdout = f"{MACHINE}\n{result_line(False, 2.0e5, 0.9, failed=40)}\n"
    stderr = ("some warning\n"
              "check failed: job 5: final objective not below initial\n"
              "check failed: job 7: test_rmse 0.81 above ceiling 0.8\n")
    run = compare.parse_run("B", 53001, 0, stdout, stderr)
    assert (run.tree, run.seed, run.correct) == ("B", 53001, False)
    assert (run.attempted, run.failed) == (40, 40)
    assert run.metrics == {"predict_rows_per_s": 2.0e5, "train_s": 0.9}
    assert run.job_failures == [(5, "final objective not below initial"),
                                (7, "test_rmse 0.81 above ceiling 0.8")]


def test_parse_marks_a_run_without_result_line_failed():
    run = compare.parse_run("A", 1, 1, "", "Traceback ...\nMemoryError\n")
    assert not run.correct and run.metrics == {} and "MemoryError" in run.error


def test_summary_counts_pairs_won_in_the_better_direction():
    runs_a = [compare.parse_run("A", s, 0, result_line(True, p, t), "")
              for s, p, t in [(1, 100.0, 1.0), (2, 110.0, 1.2), (3, 90.0, 1.1), (4, 105.0, 0.9)]]
    runs_b = [compare.parse_run("B", s, 0, result_line(True, p, t), "")
              for s, p, t in [(1, 200.0, 0.8), (2, 100.0, 0.9), (3, 210.0, 1.1), (4, 190.0, 0.7)]]
    rows = {r[0]: r for r in compare.summarize(
        runs_a, runs_b, {"predict_rows_per_s": True, "train_s": False, "absent": False})}
    assert set(rows) == {"predict_rows_per_s", "train_s"}
    _, qa, qb, won, n, gap = rows["predict_rows_per_s"]
    assert (won, n) == (3, 4) and qa[1] == pytest.approx(102.5) and qb[1] == pytest.approx(195.0)
    assert gap == pytest.approx((195.0 - 102.5) / (qa[2] - qa[0]))
    _, qa, qb, won, n, gap = rows["train_s"]  # lower is better; the tie counts for neither
    assert (won, n) == (3, 4) and gap > 0
    table = compare.format_table(rows.values())
    assert "| predict_rows_per_s | 102.5 [" in table and "| 3/4 |" in table


def test_cli_rejects_a_directory_that_is_not_a_checkout(tmp_path):
    run = subprocess.run([sys.executable, "-m", "bench", "compare", str(tmp_path), str(ROOT),
                          "--workload", "gramacy_tall", "--seeds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "src/sswim" in run.stderr and run.stdout == ""


def test_cli_rejects_an_unknown_workload():
    run = subprocess.run([sys.executable, "-m", "bench", "compare", str(ROOT), str(ROOT),
                          "--workload", "no_such_workload", "--seeds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "no_such_workload" in run.stderr and run.stdout == ""


def test_failed_jobs_are_rerun_once_each_in_the_other_tree(monkeypatch):
    reruns = []

    def fake_rerun(tree, workload, seed, job):
        reruns.append((tree, workload, seed, job))
        return ["final objective not below initial"] if job == 5 else []

    monkeypatch.setattr(compare, "rerun_job", fake_rerun)
    stderr = ("check failed: job 5: final objective not below initial\n"
              "check failed: job 5: training diverged\n"
              "check failed: job 7: loaded model predicts differently\n")
    runs = [compare.parse_run("A", 3, 0, result_line(True, 1.0, 1.0), ""),
            compare.parse_run("B", 3, 0, result_line(False, 1.0, 1.0, failed=40), stderr),
            compare.parse_run("A", 4, 1, "", "Killed\n")]
    lines = compare.attribute(runs, {"A": "tree-a", "B": "tree-b"}, "concrete_wide")
    assert reruns == [("tree-a", "concrete_wide", 3, 5), ("tree-a", "concrete_wide", 3, 7)]
    assert lines == [
        "B seed 3 job 5 (final objective not below initial; training diverged): "
        "fails in A too: final objective not below initial",
        "B seed 3 job 7 (loaded model predicts differently): passes in A",
        "A seed 4: not correct and no failed job named; cannot attribute"]
