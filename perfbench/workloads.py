"""The benchmark's workloads and the pipeline one job runs.

A job is one closed-loop pass of a user's session: generate data from the
job seed, split and standardize it, build a model, train it for a fixed
number of steps, predict on a generated batch, save and load the model and
predict again. Every call waits for the previous one. The library is only
reached through module attributes (``model_mod.predict_f``), so the
timing wrappers that ``spans.install`` patches onto those attributes see
every call the pipeline makes.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

data_mod = importlib.import_module("sswim.data")
metrics_mod = importlib.import_module("sswim.metrics")
model_mod = importlib.import_module("sswim.model")
synthetic_mod = importlib.import_module("sswim.synthetic")
# ``import sswim.train`` would give the function the package re-exports
train_mod = importlib.import_module("sswim.train")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # steps_chirp_1d or gramacy_2d from sswim.synthetic, or sum_sin_8d
    n: int  # rows before the train/test split
    noise_std: float
    depth: int
    M: int
    n_pseudo: int
    learning_rate: float
    steps: int  # Adam steps per job
    n_predict: int  # rows of the generated prediction batch
    rmse_ceiling: float  # test RMSE (standardized units) above this fails the run
    jobs: int  # jobs per run whose accuracy is scored; timing continues to --seconds
    roundtrips: int  # save/load round trips per job; more where one is cheap
    model_kwargs: tuple = ()  # extra build_model keywords as (name, value) pairs


TRAIN_FRACTION = 0.8
# The RMSE ceilings sit far above the spread of one job's accuracy, which
# after a few steps still depends mostly on the random features drawn at
# build time. Over 200 chirp_deep and 100 concrete_wide jobs of random
# seeds, test RMSE had mean 0.40 and 0.42, sd 0.05 and 0.06, and maxima
# 0.57 and 0.62, so a ceiling of 0.6 failed about one run in five on
# concrete_wide. 0.8 is over 3 sd above those maxima and still well below
# 1.0, the RMSE of predicting the training mean; gramacy_tall (mean 0.84,
# sd 0.02) keeps 1.0. The ceilings catch a broken model; the test_rmse
# bound catches an accuracy loss.
SETUP_REPS = 3  # set-ups per job; setup_s is the median over all of them
PREDICT_REPS = 3  # batch predictions per trained model


WORKLOADS = {w.name: w for w in (
    # Small matrices everywhere: per-call and tape overhead and small Choleskys
    # dominate, and depth 2 is the only path through warping.warp_gaussian.
    # Hyperparameters are those of the chirp acceptance test.
    Workload("chirp_deep", "steps_chirp_1d", n=400, noise_std=0.05, depth=2, M=100,
             n_pseudo=64, learning_rate=0.02, steps=8, n_predict=2000,
             rmse_ceiling=0.8, jobs=15, roundtrips=4,
             model_kwargs=(("lengthscale", 0.7), ("warp_lengthscale", 0.10),
                           ("noise_var", 0.02), ("warp_noise_var", 5e-3))),
    # The concrete dataset's shape (824 training rows, D=8, theta of 40,990):
    # the two 1280 x 512 warp pseudo-data fits dominate, and the model
    # document is several megabytes, so save/load is heavy. With the default
    # lengthscale of 1 the 8-D model is still worse than the mean after a
    # few steps; with the default noise variance of 0.1 its test MNLP swings
    # by 20-30% from seed to seed, against 6% at 0.3.
    Workload("concrete_wide", "sum_sin_8d", n=1030, noise_std=0.1, depth=1, M=256,
             n_pseudo=1280, learning_rate=0.01, steps=2, n_predict=1030,
             rmse_ceiling=0.8, jobs=5, roundtrips=3,
             model_kwargs=(("lengthscale", 1.5), ("noise_var", 0.3))),
    # 16,000 training rows but tiny warp fits: warp propagation, the top
    # expected features and the top Gram scale with N, so the tape holds
    # N x 2M arrays. Stands in for the large-N dataset shape.
    Workload("gramacy_tall", "gramacy_2d", n=20000, noise_std=0.1, depth=1, M=64,
             n_pseudo=64, learning_rate=0.01, steps=2, n_predict=20000,
             rmse_ceiling=1.0, jobs=3, roundtrips=12),
)}


def generate(kind, n, noise_std, seed):
    """Raw inputs and targets of one of the workload data kinds."""
    if kind == "sum_sin_8d":
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 8))
        y = np.sin(x).sum(axis=1) + noise_std * rng.standard_normal(n)
        return data_mod.Dataset(x, y, kind, [f"x{i + 1}" for i in range(8)])
    return synthetic_mod.gen(synthetic_mod.SyntheticSpec(kind, n, noise_std, seed))


def job_seeds(seed, job):
    """Integer seeds for data, split, model and prediction batch of one job."""
    return [int(s) for s in np.random.SeedSequence([seed, job]).generate_state(4)]


@dataclass
class Setup:
    train: object
    test: object
    batch: np.ndarray
    model: object


def set_up(w: Workload, seed, job) -> Setup:
    """Data generation, split/standardize and build_model: what setup_s times."""
    data_seed, split_seed, model_seed, batch_seed = job_seeds(seed, job)
    raw = generate(w.kind, w.n, w.noise_std, data_seed)
    train_raw, test_raw = data_mod.split(raw, TRAIN_FRACTION, split_seed)
    train, test, scaler = data_mod.standardize(train_raw, test_raw)
    batch = scaler.transform_x(generate(w.kind, w.n_predict, w.noise_std, batch_seed).X)
    model = model_mod.build_model(train.X, n_layers=w.depth, M=w.M, n_pseudo=w.n_pseudo,
                                  seed=model_seed, **dict(w.model_kwargs))
    return Setup(train, test, batch, model)


@dataclass
class JobResult:
    setup_s: list
    train_s: float
    predict_s: list
    roundtrip_s: list
    test_rmse: float
    test_mnlp: float
    objectives: list
    steps_attempted: int
    rollbacks: int
    failures: list  # names of failed output checks
    wall_s: float


def run_job(w: Workload, seed, job, out_dir) -> JobResult:
    """One full pass of the pipeline, timed phase by phase and checked."""
    started = time.perf_counter()
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        s = set_up(w, seed, job)
        setup_s.append(time.perf_counter() - t0)
    x, y = s.train.X, s.train.y

    config = train_mod.TrainConfig(steps=w.steps, learning_rate=w.learning_rate)
    t0 = time.perf_counter()
    model, trace = train_mod.train(s.model, x, y, config)
    train_s = time.perf_counter() - t0

    predict_s = []
    for _ in range(PREDICT_REPS):
        t0 = time.perf_counter()
        model_mod.predict_f(model, s.batch)
        predict_s.append(time.perf_counter() - t0)

    path = os.path.join(out_dir, f"{w.name}-{seed}-{job}.model.json")
    roundtrip_s = []
    for _ in range(w.roundtrips):
        t0 = time.perf_counter()
        model_mod.save(model, path)
        loaded = model_mod.load(path)
        roundtrip_s.append(time.perf_counter() - t0)
        os.remove(path)

    mu, var = model_mod.predict_f(model, s.test.X)
    test_rmse = metrics_mod.rmse(s.test.y, mu)
    test_mnlp = metrics_mod.mnlp(s.test.y, mu, var)
    mu_loaded, var_loaded = model_mod.predict_f(loaded, s.test.X)
    loaded_objective = model_mod.objective(loaded, x, y)

    objectives = [float(v) for v in trace.objectives]
    failures = []
    if not all(math.isfinite(v) for v in objectives):
        failures.append("non-finite objective in trace")
    if trace.diverged:
        failures.append("training diverged")
    if not objectives[-1] < objectives[0]:
        failures.append("final objective not below initial")
    if not (np.array_equal(mu, mu_loaded) and np.array_equal(var, var_loaded)):
        failures.append("loaded model predicts differently")
    if not math.isclose(loaded_objective, trace.best_objective, rel_tol=1e-9):
        failures.append("loaded model's objective differs from the trained one")
    if not test_rmse <= w.rmse_ceiling:
        failures.append(f"test_rmse {test_rmse:.4g} above ceiling {w.rmse_ceiling}")
    # every rollback halves the learning rate
    rollbacks = round(math.log2(w.learning_rate / trace.final_learning_rate))
    return JobResult(setup_s, train_s, predict_s, roundtrip_s, test_rmse, test_mnlp,
                     objectives, len(objectives) - 1, rollbacks, failures,
                     time.perf_counter() - started)
