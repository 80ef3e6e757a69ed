"""Optimization loop: traces, best-checkpoint return, divergence handling."""

import hashlib
import importlib
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import sswim.autodiff as ad
import sswim.model as model_module
from sswim.data import Dataset, split, standardize
from sswim.metrics import rmse
from sswim.model import apply_parameters, build_model, objective, predict_f
from sswim.train import MAX_CONSECUTIVE_REVERTS, TrainConfig, TrainTrace, train

# ``import sswim.train`` gives the function the package re-exports
train_module = importlib.import_module("sswim.train")


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


def test_divergence_reverts_and_halves_learning_rate(forward_passes):
    x, y = sine_data(11, n=30)
    model = small_model(x, seed=9)
    with pytest.warns(UserWarning, match="consecutive non-finite") as caught:
        model, trace = train(model, x, y, TrainConfig(steps=20, learning_rate=1e6))
    assert [w.category for w in caught] == [UserWarning]  # no numpy RuntimeWarning
    assert trace.diverged
    assert len(trace.objectives) == 1 + MAX_CONSECUTIVE_REVERTS
    assert len(set(trace.objectives)) == 1  # every revert re-records the same point
    assert trace.final_learning_rate == 1e6 / 2 ** MAX_CONSECUTIVE_REVERTS
    # one named cause per halving, and the warning quotes the last one
    assert len(trace.rejected) == MAX_CONSECUTIVE_REVERTS
    assert [step for step, _ in trace.rejected] == list(range(1, 1 + MAX_CONSECUTIVE_REVERTS))
    assert all(cause for _, cause in trace.rejected)
    assert str(caught[0].message).endswith(f"last: {trace.rejected[-1][1]}")
    assert trace.best_step == 0
    # the initial evaluation and one per rejected trial
    assert len(forward_passes) == 1 + MAX_CONSECUTIVE_REVERTS
    # the model is still at (the best seen) initial parameters and usable
    assert objective(model, x, y) == trace.objectives[0]


def test_ending_on_an_earlier_best_step_costs_no_forward_pass(forward_passes):
    x, y = sine_data(4, n=30)
    model, trace = train(small_model(x, seed=4), x, y, TrainConfig(steps=4, learning_rate=0.05))
    assert trace.best_step < 4 and trace.final_learning_rate == 0.05  # no step rejected
    assert len(forward_passes) == 1 + 4
    assert objective(model, x, y) == trace.best_objective


def test_each_evaluation_assembles_once(monkeypatch):
    # a candidate is a copy carrying its theta; only value_and_gradient
    # assembles, once per evaluation: the initial one and one per step
    x, y = sine_data(4, n=30)
    calls, assemble = [], model_module._assemble

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    model = small_model(x, seed=4)
    monkeypatch.setattr(model_module, "_assemble", counting)
    _, trace = train(model, x, y, TrainConfig(steps=2))
    assert trace.rejected == [] and len(calls) == 3


def array_digest(x, h=None):
    """SHA-256 over the bytes of every array in a tree of dataclasses, lists and tuples."""
    h = hashlib.sha256() if h is None else h
    if isinstance(x, np.ndarray):
        h.update(x.tobytes())
    elif isinstance(x, (list, tuple)):
        for v in x:
            array_digest(v, h)
    elif is_dataclass(x):
        for f in fields(x):
            array_digest(getattr(x, f.name), h)
    return h.hexdigest()


def test_trials_never_change_an_accepted_state(monkeypatch, forward_passes):
    # step 1 is rejected after its evaluation and step 2 is accepted; every
    # accepted state keeps its arrays, and the model ends on the best one's
    x, y = sine_data(14, n=30)
    accepted, evaluate = [], train_module.value_and_gradient

    def reject_step_1(model, x, y):
        out = evaluate(model, x, y)
        if len(forward_passes) == 2:
            raise ad.NonFiniteError("injected")
        accepted.append((replace(model), array_digest(model)))
        return out

    monkeypatch.setattr(train_module, "value_and_gradient", reject_step_1)
    model, trace = train(small_model(x, seed=12), x, y, TrainConfig(steps=2))
    assert trace.objectives[1] == trace.objectives[0] and trace.final_learning_rate == 0.005
    assert len(forward_passes) == 3 and len(accepted) == 2
    assert all(array_digest(state) == digest for state, digest in accepted)
    best = accepted[trace.best_step // 2][0]  # the state of step 0 or step 2
    assert all(getattr(model, f.name) is getattr(best, f.name) for f in fields(model))


def test_a_rejected_step_repeats_the_test_metrics_without_predicting(monkeypatch):
    # step 2 of 3 is rejected: four recorded points, three predictions
    x, y = sine_data(15, n=30)
    xt, yt = sine_data(16, n=20)
    evaluations, predictions = [], []
    evaluate, predict = train_module.value_and_gradient, train_module.predict_f

    def reject_step_2(model, x, y):
        evaluations.append(1)
        if len(evaluations) == 3:
            raise ad.NonFiniteError("injected")
        return evaluate(model, x, y)

    def counting_predict(model, x):
        predictions.append(1)
        return predict(model, x)

    monkeypatch.setattr(train_module, "value_and_gradient", reject_step_2)
    monkeypatch.setattr(train_module, "predict_f", counting_predict)
    _, trace = train(small_model(x, seed=13), x, y, TrainConfig(steps=3), (xt, yt))
    assert [step for step, _ in trace.rejected] == [2]
    assert len(predictions) == 3 and len(trace.test_rmse) == 4
    for series in (trace.objectives, trace.test_rmse, trace.test_mnlp):
        assert series[2] == series[1] and series[3] != series[2]


def test_final_learning_rate_reported():
    x, y = sine_data(13, n=20)
    _, trace = train(small_model(x, seed=11), x, y, TrainConfig(steps=3, learning_rate=0.02))
    assert trace.final_learning_rate == 0.02


def test_trace_dataclass_defaults():
    trace = TrainTrace()
    assert trace.objectives == [] and trace.best_step == 0
    assert not trace.diverged


def test_adam_overshoot_on_concrete_shape(monkeypatch):
    # The concrete-shaped benchmark job (D=8, theta of 40,990) at seed 6009,
    # job 5 ends its 2 steps above its initial objective. This is Adam's
    # second step overshooting a smooth valley, not a numerical fault: no
    # step is rolled back, no Cholesky needs its jitter retry, and the
    # objective along the second step dips below both ends.
    data_seed, split_seed, model_seed, _ = (
        int(s) for s in np.random.SeedSequence([6009, 5]).generate_state(4))
    rng = np.random.default_rng(data_seed)
    x = rng.standard_normal((1030, 8))
    y = np.sin(x).sum(axis=1) + 0.1 * rng.standard_normal(1030)
    train_set, test_set = split(Dataset(x, y, "sum_sin_8d", list(range(8))), 0.8, split_seed)
    train_set, _, _ = standardize(train_set, test_set)
    x, y = train_set.X, train_set.y
    model = build_model(x, n_layers=1, M=256, n_pseudo=1280, lengthscale=1.5,
                        noise_var=0.3, seed=model_seed)

    evaluated, factored, failed_factorizations = [], [], []
    evaluate, potrf = train_module.value_and_gradient, ad._potrf

    def recording_evaluate(m, *args):
        evaluated.append(m.theta)
        return evaluate(m, *args)

    def counting_potrf(a):
        factored.append(a.shape)
        try:
            return potrf(a)
        except np.linalg.LinAlgError:
            failed_factorizations.append(a.shape)
            raise

    monkeypatch.setattr(train_module, "value_and_gradient", recording_evaluate)
    monkeypatch.setattr(ad, "_potrf", counting_potrf)
    model, trace = train(model, x, y, TrainConfig(steps=2, learning_rate=0.01))

    np.testing.assert_allclose(trace.objectives, [771.8164980252639, 689.869519899049,
                                                  792.0548727452681], rtol=1e-6)
    assert trace.best_step == 1 and not trace.diverged
    assert trace.final_learning_rate == 0.01  # no rollback
    assert factored and failed_factorizations == []
    theta1, theta2 = evaluated[1:]  # evaluated[0] is the initial theta
    apply_parameters(model, theta1 + 0.4 * (theta2 - theta1))
    assert objective(model, x, y) < min(trace.objectives[1:])
