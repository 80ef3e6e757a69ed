"""Full-batch adaptive-moment training of the joint evidence objective.

Every step evaluates the objective and its gradient over the whole training
set and takes one Adam-style update (decay 0.9/0.999, epsilon 1e-8) on the
flat parameter vector. The trace records the objective after every step,
plus test RMSE/MNLP per step when a test set is supplied, and the best
parameters seen are checkpointed; by default the best checkpoint is what
the caller gets back, since the evidence is known to keep improving while
test error degrades on long runs.

A non-finite objective or a failed factorization rolls the optimizer back
to its last healthy state and halves the learning rate; five consecutive
rollbacks abandon the run with ``diverged`` set on the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .metrics import mnlp, rmse
from .model import SswimModel, apply_parameters, objective, predict_f, value_and_gradient

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MAX_CONSECUTIVE_REVERTS = 5


@dataclass
class TrainConfig:
    steps: int = 150
    learning_rate: float = 0.01
    keep_best: bool = True


@dataclass
class TrainTrace:
    objectives: list = field(default_factory=list)  # entry 0 is the initial model
    test_rmse: list = None
    test_mnlp: list = None
    best_step: int = 0
    best_objective: float = np.inf
    diverged: bool = False
    final_learning_rate: float = 0.0


def _validate(config: TrainConfig):
    if config.steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 < config.learning_rate < np.inf:
        raise ValueError("learning_rate must be positive and finite")


def train(model: SswimModel, x, y, config: TrainConfig, test_data=None):
    """Optimize the model in place; returns ``(model, trace)``.

    ``test_data`` is an optional ``(x_test, y_test)`` pair; when given, the
    trace carries test RMSE and MNLP for every recorded objective, enabling
    per-step overfitting analysis.
    """
    _validate(config)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    record = test_data is not None
    if record:
        x_test, y_test = (np.asarray(a, dtype=float) for a in test_data)

    trace = TrainTrace(test_rmse=[] if record else None,
                       test_mnlp=[] if record else None,
                       final_learning_rate=config.learning_rate)

    def record_point(value):
        trace.objectives.append(value)
        if record:
            mu, var = predict_f(model, x_test)
            trace.test_rmse.append(rmse(y_test, mu))
            trace.test_mnlp.append(mnlp(y_test, mu, var))

    if config.steps == 0:
        record_point(objective(model, x, y))
        trace.best_objective = trace.objectives[0]
        return model, trace

    theta = model.theta.copy()
    value, grad = value_and_gradient(model, x, y)
    record_point(value)
    best_value, best_theta, best_step = value, theta.copy(), 0

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lr = config.learning_rate
    t = 0
    consecutive = 0
    for step in range(1, config.steps + 1):
        saved = (m.copy(), v.copy(), t)
        t += 1
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        candidate = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        try:
            apply_parameters(model, candidate)
            new_value, new_grad = value_and_gradient(model, x, y)
            if not (np.isfinite(new_value) and np.all(np.isfinite(new_grad))):
                raise ad.NonFiniteError("non-finite objective or gradient")
        except (ad.NonFiniteError, ad.FactorizationError):
            m, v, t = saved
            lr *= 0.5
            consecutive += 1
            apply_parameters(model, theta)
            objective(model, x, y)  # restore coherent caches at the reverted point
            record_point(value)
            if consecutive >= MAX_CONSECUTIVE_REVERTS:
                trace.diverged = True
                warnings.warn("training stopped early: "
                              f"{consecutive} consecutive non-finite steps")
                break
            continue
        consecutive = 0
        theta, value, grad = candidate, new_value, new_grad
        record_point(value)
        if value < best_value:
            best_value, best_theta, best_step = value, theta.copy(), step

    trace.best_step, trace.best_objective = best_step, best_value
    trace.final_learning_rate = lr
    final_theta = best_theta if config.keep_best else theta
    if not np.array_equal(model.theta, final_theta):
        apply_parameters(model, final_theta)
        objective(model, x, y)
    return model, trace
