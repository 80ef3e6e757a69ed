"""Test metrics and the experiment report row format."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

REPORT_COLUMNS = ("dataset", "method", "depth", "M", "n_pseudo",
                  "repeat", "rmse", "mnlp", "wall_seconds")


@dataclass
class MetricReport:
    rmse: float
    mnlp: float


def rmse(y_true, mu) -> float:
    """Root mean squared error."""
    y_true, mu = np.asarray(y_true, dtype=float), np.asarray(mu, dtype=float)
    if y_true.shape != mu.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError(f"need equal-length nonempty vectors, got {y_true.shape} and {mu.shape}")
    return float(np.sqrt(np.mean((y_true - mu) ** 2)))


def mnlp(y_true, mu, sigma2) -> float:
    """Mean negative log probability under per-point Gaussian predictions.

    ``sigma2`` is the full predictive variance of the observation, noise
    included; each point contributes 0.5 * ((y - mu)^2 / sigma2 + log sigma2
    + log 2 pi).
    """
    y_true = np.asarray(y_true, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if not (y_true.shape == mu.shape == sigma2.shape) or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("need equal-length nonempty vectors")
    if np.any(sigma2 <= 0):
        raise ValueError("predictive variance must be strictly positive")
    return float(0.5 * np.mean((y_true - mu) ** 2 / sigma2 + np.log(sigma2) + np.log(2.0 * np.pi)))


def aggregate(reports) -> dict:
    """Sample mean and standard deviation over repeats (std 0 for a single run)."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to aggregate")
    r = np.array([m.rmse for m in reports])
    n = np.array([m.mnlp for m in reports])
    std = (lambda a: float(np.std(a, ddof=1))) if len(reports) > 1 else (lambda a: 0.0)
    return {"rmse_mean": float(r.mean()), "rmse_std": std(r),
            "mnlp_mean": float(n.mean()), "mnlp_std": std(n),
            "repeats": len(reports)}


def report_row(dataset, method, depth, M, n_pseudo, repeat, rmse_value, mnlp_value,
               wall_seconds) -> dict:
    return {"dataset": dataset, "method": method, "depth": depth, "M": M,
            "n_pseudo": n_pseudo, "repeat": repeat, "rmse": rmse_value,
            "mnlp": mnlp_value, "wall_seconds": wall_seconds}


def write_report(path, rows, columns=REPORT_COLUMNS):
    """Write rows as CSV with a header; the columns default to the report's."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
