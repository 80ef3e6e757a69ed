"""Deterministic generators for the qualitative test functions.

The 1-D composite exhibits three kinds of nonstationarity at once (an abrupt
step, a flat tail, a frequency sweep); it is a fixture with a fully
documented formula, not a measured signal. On x in [0, 1]:

    f(x) = step(x) + chirp(x)
    step(x)  = 1 if x < 1/3, -1 if 1/3 <= x < 2/3, 0 otherwise
    chirp(x) = 0.5 * sin(2 * pi * (4 + 36 * x^2) * x)

The 2-D function is x1 * exp(-x1^2 - x2^2) on the box [-2, 6]^2, whose
interesting structure sits entirely in one corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

KINDS = ("steps_chirp_1d", "gramacy_2d")

DOMAINS = {"steps_chirp_1d": ((0.0,), (1.0,)), "gramacy_2d": ((-2.0, -2.0), (6.0, 6.0))}


@dataclass
class SyntheticSpec:
    kind: str
    n: int
    noise_std: float = 0.0
    seed: object = 0


def steps_chirp_1d(x):
    """The documented 1-D composite, vectorized over x."""
    x = np.asarray(x, dtype=float)
    step = np.where(x < 1.0 / 3.0, 1.0, np.where(x < 2.0 / 3.0, -1.0, 0.0))
    chirp = 0.5 * np.sin(2.0 * np.pi * (4.0 + 36.0 * x ** 2) * x)
    return step + chirp


def gramacy_2d(x1, x2):
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    return x1 * np.exp(-x1 ** 2 - x2 ** 2)


def gen(spec: SyntheticSpec) -> Dataset:
    """Sample inputs uniformly over the kind's domain and add target noise."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown synthetic kind {spec.kind!r}; expected one of {KINDS}")
    if spec.n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= spec.noise_std < np.inf:
        raise ValueError(f"noise_std is {spec.noise_std}, expected a finite nonnegative number")
    lo, hi = DOMAINS[spec.kind]
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(lo, hi, size=(spec.n, len(lo)))
    if spec.kind == "steps_chirp_1d":
        f = steps_chirp_1d(x[:, 0])
    else:
        f = gramacy_2d(x[:, 0], x[:, 1])
    y = f + spec.noise_std * rng.standard_normal(spec.n)
    columns = [f"x{i + 1}" for i in range(len(lo))]
    return Dataset(x, y, spec.kind, columns)


def write_csv(dataset: Dataset, path):
    """Emit a dataset as CSV loadable by the ingestion pipeline (target 'y')."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join([*dataset.columns, "y"]) + "\n")
        for row, target in zip(dataset.X, dataset.y):
            f.write(",".join(repr(float(v)) for v in [*row, target]) + "\n")
    return path
