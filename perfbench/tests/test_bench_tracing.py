"""Self-tests of the benchmark harness at shrunken workload sizes.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "chirp_deep": dict(n=200, M=40, n_pseudo=24, n_predict=100),
    "concrete_wide": dict(n=200, M=32, n_pseudo=64, n_predict=100),
    "gramacy_tall": dict(n=600, M=16, n_pseudo=16, n_predict=500),
}
EXACT_COUNTS = ("autodiff.chol_psd.calls", "autodiff.chol_psd.flops", "autodiff.tape_nodes",
                "ssgp.fit_from_features.gram_flops")


def small(name):
    # accuracy at these sizes means nothing, so the RMSE ceiling is lifted
    return dataclasses.replace(workloads.WORKLOADS[name], steps=2, jobs=1,
                               rmse_ceiling=math.inf, **SMALL[name])


def metric_names(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_job_matches_untraced_and_records_every_boundary(name, tmp_path):
    jobs, metrics, failures = harness.traced(small(name), 3, tmp_path)
    assert failures == []
    for plain, traced in zip(jobs[::2], jobs[1::2]):
        assert plain.failures == traced.failures == []
        assert traced.objectives == plain.objectives
        assert traced.test_rmse == plain.test_rmse
    assert set(metrics) == metric_names("per_layer")
    for boundary, _ in spans.BOUNDARIES:
        calls = metrics[f"{boundary}.calls"][0]
        if boundary == "warping.warp_gaussian":
            assert (calls > 0) == (name == "chirp_deep")
        else:
            assert calls > 0, boundary
    assert metrics["trace.self_sum_s"][0] <= metrics["trace.wall_s"][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shape_counts_repeat_exactly(name, tmp_path):
    first = harness.traced(small(name), 5, tmp_path)[1]
    second = harness.traced(small(name), 5, tmp_path)[1]
    for key in EXACT_COUNTS:
        assert first[key][0] > 0
        assert first[key] == second[key], key


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    jobs, metrics, _ = harness.untraced(small("chirp_deep"), 1, 0.0, tmp_path)
    assert len(jobs) == 1 and jobs[0].failures == []
    assert set(metrics) == metric_names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_install_patches_imported_copies_and_restores_them():
    model_mod = importlib.import_module("sswim.model")
    train_mod = importlib.import_module("sswim.train")
    before = (model_mod.propagate, train_mod.value_and_gradient, train_mod.train)
    with spans.install(spans.Recorder()):
        during = (model_mod.propagate, train_mod.value_and_gradient, train_mod.train)
        assert all(a is not b for a, b in zip(before, during))
    assert (model_mod.propagate, train_mod.value_and_gradient, train_mod.train) == before


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chirp_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
