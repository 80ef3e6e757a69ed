"""Metric definitions against hand arithmetic and a direct density oracle."""

import csv

import numpy as np
import pytest
from scipy.stats import norm

from sswim.metrics import (REPORT_COLUMNS, MetricReport, aggregate, mnlp, report_row,
                           rmse, write_report)


def evaluate(y_true, mu, sigma2):
    return MetricReport(rmse(y_true, mu), mnlp(y_true, mu, sigma2))


def test_rmse_hand_cases():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_rmse_permutation_invariant():
    rng = np.random.default_rng(0)
    y, mu = rng.standard_normal(20), rng.standard_normal(20)
    base = rmse(y, mu)
    for _ in range(5):
        perm = rng.permutation(20)
        assert rmse(y[perm], mu[perm]) == pytest.approx(base, rel=1e-15)


def test_rmse_validation():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rmse([], [])


def test_mnlp_hand_cases():
    # variance 1/(2 pi) makes the log terms cancel exactly at zero error
    assert mnlp([1.0], [1.0], [1.0 / (2 * np.pi)]) == pytest.approx(0.0, abs=1e-15)
    want = 1.0 + np.log(2 * np.pi) / 2
    assert mnlp([0.0, 2.0], [0.0, 0.0], [1.0, 1.0]) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1.9189385332, abs=1e-9)


def test_mnlp_grows_past_matched_variance():
    v0 = 1.0 / (2 * np.pi)
    assert mnlp([0.5], [0.5], [1.0]) > mnlp([0.5], [0.5], [v0])


def test_mnlp_matches_density_oracle():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(50)
    mu = y + 0.3 * rng.standard_normal(50)
    sigma2 = rng.uniform(0.1, 2.0, 50)
    direct = -np.mean(norm.logpdf(y, loc=mu, scale=np.sqrt(sigma2)))
    assert abs(mnlp(y, mu, sigma2) - direct) <= 1e-12


def test_mnlp_validation():
    with pytest.raises(ValueError, match="positive"):
        mnlp([1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        mnlp([1.0, 2.0], [1.0], [1.0])


def test_evaluate_and_aggregate():
    report = evaluate([0.0, 2.0], [0.0, 0.0], [1.0, 1.0])
    assert isinstance(report, MetricReport)
    assert report.rmse == pytest.approx(np.sqrt(2.0))

    reports = [MetricReport(1.0, 0.5), MetricReport(3.0, 1.5)]
    agg = aggregate(reports)
    assert agg["rmse_mean"] == 2.0
    assert agg["rmse_std"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
    assert agg["mnlp_mean"] == 1.0
    assert agg["repeats"] == 2
    single = aggregate([MetricReport(1.0, 0.5)])
    assert single["rmse_std"] == 0.0
    with pytest.raises(ValueError):
        aggregate([])


def test_report_rows_round_trip(tmp_path):
    rows = [report_row("toy", "model", 1, 100, 64, r, 0.5 + r, 1.0, 2.5) for r in range(3)]
    path = tmp_path / "report.csv"
    write_report(path, rows)
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == list(REPORT_COLUMNS)
        read = list(reader)
    assert len(read) == 3
    assert read[1]["rmse"] == "1.5"
    assert read[2]["repeat"] == "2"
