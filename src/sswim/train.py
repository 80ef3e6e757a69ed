"""Full-batch adaptive-moment training of the joint evidence objective.

Every step evaluates the objective and its gradient over the whole training
set and takes one Adam-style update (decay 0.9/0.999, epsilon 1e-8) on the
flat parameter vector. The trace records the objective after every step,
plus test RMSE/MNLP per step when a test set is supplied. The parameters
with the lowest objective seen are checkpointed, and that checkpoint is what
the caller gets back: the evidence is known to keep improving while test
error degrades on long runs, and a late step can overshoot.

Each candidate is evaluated on a shallow copy of the model (see
:mod:`sswim.model`), and only an accepted one is adopted, so no step is ever
undone by another forward pass. A non-finite objective or gradient, or a
failed factorization, rejects the step: the copy is dropped, the Adam
moments stay at the last accepted step, the learning rate halves and the
trace's ``rejected`` list records the step with its cause; five consecutive
rejections abandon the run with ``diverged`` set on the trace. Candidates
are evaluated with numpy's floating-point warnings off, since those checks,
not the warnings, decide a step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .metrics import mnlp, rmse
from .model import SswimModel, apply_parameters, predict_f, value_and_gradient

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MAX_CONSECUTIVE_REVERTS = 5


@dataclass
class TrainConfig:
    """Number of Adam steps (0 only evaluates) and the initial learning rate."""

    steps: int = 150
    learning_rate: float = 0.01


@dataclass
class TrainTrace:
    objectives: list = field(default_factory=list)  # entry 0 is the initial model
    test_rmse: list = None
    test_mnlp: list = None
    best_step: int = 0
    best_objective: float = np.inf
    diverged: bool = False
    rejected: list = field(default_factory=list)  # (step, cause) of each rejected step
    final_learning_rate: float = 0.0


def train(model: SswimModel, x, y, config: TrainConfig, test_data=None):
    """Optimize the model in place; returns ``(model, trace)``.

    Candidates are evaluated on copies; the model is left at the
    lowest-objective checkpoint, with the fitted state of that evaluation.
    ``test_data`` is an optional ``(x_test, y_test)`` pair; when given, the
    trace carries test RMSE and MNLP for every recorded objective, enabling
    per-step overfitting analysis.
    """
    if config.steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 < config.learning_rate < np.inf:
        raise ValueError("learning_rate must be positive and finite")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    record = test_data is not None
    if record:
        x_test, y_test = (np.asarray(a, dtype=float) for a in test_data)

    trace = TrainTrace(test_rmse=[] if record else None,
                       test_mnlp=[] if record else None)

    def record_point(value):
        trace.objectives.append(value)
        if record:
            mu, var = predict_f(model, x_test)
            trace.test_rmse.append(rmse(y_test, mu))
            trace.test_mnlp.append(mnlp(y_test, mu, var))

    value, grad = value_and_gradient(model, x, y)
    record_point(value)
    best_value, best, best_step = value, replace(model), 0

    m = np.zeros_like(model.theta)
    v = np.zeros_like(model.theta)
    lr = config.learning_rate
    t = 0
    consecutive = 0
    for step in range(1, config.steps + 1):
        m_next = BETA1 * m + (1.0 - BETA1) * grad
        v_next = BETA2 * v + (1.0 - BETA2) * grad * grad
        m_hat = m_next / (1.0 - BETA1 ** (t + 1))
        v_hat = v_next / (1.0 - BETA2 ** (t + 1))
        candidate = model.theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                trial = apply_parameters(replace(model), candidate)
                new_value, new_grad = value_and_gradient(trial, x, y)
                ad.check_finite(new_grad, "gradient")
        except (ad.NonFiniteError, ad.FactorizationError) as e:
            trace.rejected.append((step, str(e)))
            lr *= 0.5
            consecutive += 1
            record_point(value)  # the model is still at the last accepted step
            if consecutive >= MAX_CONSECUTIVE_REVERTS:
                trace.diverged = True
                warnings.warn("training stopped early: "
                              f"{consecutive} consecutive non-finite steps; last: {e}")
                break
            continue
        consecutive = 0
        m, v, t = m_next, v_next, t + 1
        vars(model).update(vars(trial))
        value, grad = new_value, new_grad
        record_point(value)
        if value < best_value:
            best_value, best, best_step = value, replace(model), step

    trace.best_step, trace.best_objective = best_step, best_value
    trace.final_learning_rate = lr
    vars(model).update(vars(best))
    return model, trace
