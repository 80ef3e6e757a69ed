"""Optimization loop: traces, keep-best policy, divergence handling."""

import warnings

import numpy as np
import pytest

from sswim.metrics import rmse
from sswim.model import build_model, objective, predict_f
from sswim.train import MAX_CONSECUTIVE_REVERTS, TrainConfig, TrainTrace, train


def sine_data(seed, n=60, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 1))
    y = np.sin(3 * x[:, 0]) + noise * rng.standard_normal(n)
    return x, y


def small_model(x, seed=0, n_layers=1):
    return build_model(x, n_layers=n_layers, M=6, M_w=4, n_pseudo=4, seed=seed)


def test_config_defaults():
    config = TrainConfig()
    assert config.steps == 150
    assert config.learning_rate == 0.01
    assert config.keep_best is True


def test_config_validation():
    x, y = sine_data(0, n=10)
    model = small_model(x)
    for bad in (TrainConfig(steps=-1), TrainConfig(learning_rate=0.0),
                TrainConfig(learning_rate=np.nan), TrainConfig(learning_rate=np.inf)):
        with pytest.raises(ValueError):
            train(model, x, y, bad)


def test_steps_zero_is_a_noop():
    x, y = sine_data(1, n=20)
    model = small_model(x, seed=1)
    before = model.theta.copy()
    model, trace = train(model, x, y, TrainConfig(steps=0))
    np.testing.assert_array_equal(model.theta, before)
    assert len(trace.objectives) == 1
    assert trace.best_objective == trace.objectives[0]
    assert trace.best_step == 0 and not trace.diverged


def test_trace_lengths_and_test_metrics():
    x, y = sine_data(2, n=30)
    xt, yt = sine_data(3, n=15)
    model = small_model(x, seed=2)
    model, trace = train(model, x, y, TrainConfig(steps=5), test_data=(xt, yt))
    assert len(trace.objectives) == 6  # entry 0 is the initial model
    assert len(trace.test_rmse) == 6 and len(trace.test_mnlp) == 6
    assert np.all(np.isfinite(trace.test_rmse))
    assert np.all(np.isfinite(trace.test_mnlp))


def test_test_metrics_absent_without_test_data():
    x, y = sine_data(4, n=20)
    _, trace = train(small_model(x, seed=3), x, y, TrainConfig(steps=2))
    assert trace.test_rmse is None and trace.test_mnlp is None


def test_training_is_deterministic():
    x, y = sine_data(6, n=30)
    runs = []
    for _ in range(2):
        model = small_model(x, seed=4)
        model, trace = train(model, x, y, TrainConfig(steps=10))
        runs.append((model.theta.copy(), list(trace.objectives)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_keep_best_returns_best_checkpoint():
    x, y = sine_data(7, n=40)
    model = small_model(x, seed=5)
    model, trace = train(model, x, y, TrainConfig(steps=20))
    final = objective(model, x, y)
    assert final == trace.best_objective
    assert all(final <= obj for obj in trace.objectives)
    assert trace.objectives[trace.best_step] == trace.best_objective


def test_keep_best_off_returns_final_iterate():
    x, y = sine_data(8, n=40)
    model = small_model(x, seed=6)
    model, trace = train(model, x, y, TrainConfig(steps=20, keep_best=False))
    assert objective(model, x, y) == trace.objectives[-1]


def test_objective_improves_on_well_specified_data():
    x, y = sine_data(9, n=80, noise=0.05)
    model = build_model(x, n_layers=0, M=16, seed=7)
    model, trace = train(model, x, y, TrainConfig(steps=50))
    assert trace.best_objective < trace.objectives[0]


def test_stationary_recovery_of_smooth_signal():
    # well-specified case: trained stationary model nails sin(3x)
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (200, 1))
    y = np.sin(3 * x[:, 0]) + 0.05 * rng.standard_normal(200)
    xt = rng.uniform(-1, 1, (100, 1))
    yt = np.sin(3 * xt[:, 0]) + 0.05 * rng.standard_normal(100)
    model = build_model(x, n_layers=0, M=24, seed=8)
    model, _ = train(model, x, y, TrainConfig(steps=150))
    mu, _ = predict_f(model, xt)
    assert rmse(yt, mu) <= 2 * 0.05


def test_divergence_reverts_and_halves_learning_rate():
    x, y = sine_data(11, n=30)
    model = small_model(x, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the poisoned forward
        with pytest.warns(UserWarning, match="consecutive non-finite"):
            model, trace = train(model, x, y, TrainConfig(steps=20, learning_rate=1e6))
    assert trace.diverged
    assert len(trace.objectives) == 1 + MAX_CONSECUTIVE_REVERTS
    assert len(set(trace.objectives)) == 1  # every revert re-records the same point
    assert trace.final_learning_rate == 1e6 / 2 ** MAX_CONSECUTIVE_REVERTS
    assert trace.best_step == 0
    # the model is back at (the best seen) initial parameters and still usable
    assert objective(model, x, y) == trace.objectives[0]


def test_final_learning_rate_reported():
    x, y = sine_data(13, n=20)
    _, trace = train(small_model(x, seed=11), x, y, TrainConfig(steps=3, learning_rate=0.02))
    assert trace.final_learning_rate == 0.02


def test_trace_dataclass_defaults():
    trace = TrainTrace()
    assert trace.objectives == [] and trace.best_step == 0
    assert not trace.diverged
