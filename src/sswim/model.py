"""Model assembly, joint objective, gradients, prediction, serialization.

The full model is a stack of warp layers feeding a top-level trigonometric
regressor: an input point is propagated to a Gaussian measure, the top
basis takes its expected feature map, and the feature weights are fit by
Bayesian linear regression. The training objective is the negative log
evidence of the targets under that construction, jointly over every
hyperparameter and every pseudo-training pair.

A model is its frozen frequency draws (``model.draws``, drawn once at
build time) plus a flat parameter vector ``model.theta``, whose segment
schema is read off the draws and ``n_pseudo``; positive quantities live in
theta as logarithms. Everything else is derived from those two. A model is
in one of two states: unfitted, holding theta alone (from ``build_model`` or
:func:`apply_parameters`, which installs theta and clears the fitted
fields), or fitted at its theta, holding the fitted warp stack, top basis
and top posterior, which carries the top noise variance (after
``objective``, ``value_and_gradient`` or ``load``). It is never stale:
``apply_parameters`` is the one place the fitted fields are cleared and
``_install`` the one place they are written. Every evaluation builds the
stack, fitted layer by layer, and the top basis from the draws and theta
(``_assemble``, inside ``_forward``) and reads nothing the model held
before. A fit returns new objects and mutates none, so ``train`` evaluates a
candidate theta on a shallow copy that carries it, ``replace(model,
theta=candidate)``, and no model is ever reverted. One assembly routine
serves both modes: handed the theta array it produces a plain numpy model,
handed a tape tensor a traced one, so the gradient differentiates exactly
the arithmetic the plain objective runs. Every Gram is factored exactly once
per evaluation. With no warp layer an input stays a point, so a depth-0
model is the plain sparse-spectrum GP and runs its feature map.
Prediction is row-separable and walks a batch in fixed chunks of
PREDICT_CHUNK_ROWS rows, so its temporaries do not grow with the batch. A
fitted or loaded model's first prediction inverts each of its 2 * depth + 1
Cholesky factors once, and each posterior keeps its inverse, so later
predictions and chunks pay only per-row work.

``save`` writes a fitted model as a version-3 JSON document holding each fact
once: a few JSON scalars, and theta, the frequency draws and the top
posterior's weights and Cholesky factor as base64 of their little-endian
float64 bytes, so a round trip is exact. ``load`` reads every size from the
draws' shapes and the top noise variance from theta, refits only the warp
layers, also reads version 2 and names the field of any malformed entry.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from collections import namedtuple
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import ssgp
from .features import FAMILIES, SpectralBasis, expected_feature_map, frequencies, make_basis
from .warp_stack import MAX_DEPTH, WarpStack, propagate
from .warping import WarpInit, WarpLayer, draw_warp_layer, refit

Segment = namedtuple("Segment", ("name", "start", "stop", "shape", "log"))

SCHEMA_VERSION = 3  # of the document save writes; load also reads version 2

# Rows per predict_f pass. At 4,096 a 20,000-row batch (M=64) peaks at about
# a fifth of the whole-batch pass's traced memory with bit-identical outputs;
# 1,024-row chunks changed the last bits of some predictions.
PREDICT_CHUNK_ROWS = 4096


@dataclass
class SswimModel:
    family: str
    draws: dict  # frozen (M, D) frequency draws by basis: "top", "layer{j}.g", "layer{j}.h"
    n_pseudo: int
    sigma_gamma: float
    seed: object
    theta: np.ndarray = None  # canonical flat parameter vector
    # fitted at theta by an evaluation or load (_install); None while unfitted
    stack: WarpStack = None
    top_basis: SpectralBasis = None
    top_post: ssgp.SsgpPosterior = None

    @property
    def input_dim(self):
        return self.draws["top"].shape[1]

    @property
    def depth(self):
        return len(self.draws) // 2  # a top draw and two per layer

    @cached_property
    def schema(self):
        """theta's segments, in packed order; a function of the draws and ``n_pseudo``."""
        return _build_schema(self.input_dim, self.depth, self.n_pseudo)


def _build_schema(d, n_layers, n_pseudo):
    specs = [
        ("top.lengthscales", (d,), True),
        ("top.amplitude", (), True),
        ("top.noise_var", (), True),
    ]
    for j in range(n_layers):
        for fn in ("g", "h"):
            specs += [
                (f"layer{j}.{fn}.lengthscales", (d,), True),
                (f"layer{j}.{fn}.amplitude", (), True),
                (f"layer{j}.{fn}.noise_var", (), True),
            ]
        for mat in ("Xg", "Yg", "Xh", "Yh"):
            specs.append((f"layer{j}.{mat}", (n_pseudo, d), False))
    segments, start = [], 0
    for name, shape, log in specs:
        size = math.prod(shape)
        segments.append(Segment(name, start, start + size, shape, log))
        start += size
    return tuple(segments)


def build_model(x_train, *, n_layers=1, M=100, M_w=None, n_pseudo=64,
                family="matern32", sigma_gamma=0.1, lengthscale=1.0,
                warp_lengthscale=None, amplitude=1.0, noise_var=0.1,
                warp_noise_var=1e-4, seed=0) -> SswimModel:
    """Draw a fresh model around the training inputs' bounding box.

    ``M_w`` (warp feature count) and ``warp_lengthscale`` default to the
    top-level M and lengthscale. Pseudo inputs are drawn uniformly over
    the box of ``x_train``; pseudo targets start near the identity warp
    with spread ``sigma_gamma``. Sampling is derived deterministically from
    ``seed``. theta packs the logarithms of the bases' hyperparameters and
    of the noise variances given here, and the drawn pseudo data. The model
    is unfitted: it holds theta alone, and nothing is assembled or fitted
    until it is evaluated.
    """
    x_train = np.asarray(x_train, dtype=float)
    if x_train.ndim != 2:
        raise ValueError("x_train must be a 2-D array")
    if not 0 <= n_layers <= MAX_DEPTH:
        raise ValueError(f"n_layers must be in 0..{MAX_DEPTH}")
    if not (0 < noise_var < np.inf and 0 < warp_noise_var < np.inf):
        raise ValueError("noise variances must be positive and finite")
    d = x_train.shape[1]
    m_w = M if M_w is None else M_w
    ell_w = lengthscale if warp_lengthscale is None else warp_lengthscale
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(1 + 3 * n_layers)
    data_min, data_max = x_train.min(axis=0), x_train.max(axis=0)

    def log_hypers(key, basis, noise):
        return {f"{key}.lengthscales": np.log(basis.lengthscales),
                f"{key}.amplitude": np.log(basis.amplitude), f"{key}.noise_var": np.log(noise)}

    top_basis = make_basis(family, M, d, children[0], lengthscale, amplitude)
    draws, values = {"top": top_basis.base_draws}, log_hypers("top", top_basis, float(noise_var))
    for j in range(n_layers):
        bases = [make_basis(family, m_w, d, children[k + 3 * j], ell_w, amplitude) for k in (1, 2)]
        init = WarpInit(n_pseudo, sigma_gamma, children[3 + 3 * j])
        layer = draw_warp_layer(data_min, data_max, init, bases, warp_noise_var, warp_noise_var)
        for fn, basis in zip("gh", bases):
            draws[f"layer{j}.{fn}"] = basis.base_draws
            values |= log_hypers(f"layer{j}.{fn}", basis, float(warp_noise_var))
        values |= {f"layer{j}.{mat}": getattr(layer, mat) for mat in ("Xg", "Yg", "Xh", "Yh")}
    model = SswimModel(family, draws, n_pseudo, sigma_gamma, seed)
    return apply_parameters(model, np.concatenate([np.ravel(values[s.name]) for s in model.schema]))


def apply_parameters(model: SswimModel, values) -> SswimModel:
    """Validate and install a flat parameter vector, leaving the model unfitted.

    The stack, top basis and top posterior are cleared, since they belonged
    to the old theta; nothing is assembled or fitted until the next
    :func:`objective` or :func:`value_and_gradient` derives them from the
    draws and the new theta. Only the model's fields are rebound, so
    applying to a shallow copy leaves the original as it was.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (model.schema[-1].stop,):
        raise ValueError(f"parameter vector has shape {values.shape}, "
                         f"schema expects ({model.schema[-1].stop},)")
    ad.check_finite(values, "parameter vector")
    model.theta = values.copy()
    model.stack = model.top_basis = model.top_post = None
    return model


def _assemble(model: SswimModel, theta):
    """Warp stack fitted at theta, top basis and top noise variance.

    Reads only the model's schema and draws. theta may be the plain
    parameter array or a tape tensor; the assembled structures hold values
    of the same kind. Each warp layer is fitted as it is built, and a failed
    fit names its layer and regressor ("warp layer j, g regressor: ...").
    """
    segments = {s.name: s for s in model.schema}

    def seg(name):
        s = segments[name]
        part = ad.reshape(ad.take(theta, slice(s.start, s.stop)), s.shape)
        return ad.exp(part) if s.log else part

    def basis(key):
        return SpectralBasis(model.draws[key], seg(key + ".lengthscales"),
                             seg(key + ".amplitude"))

    layers = []
    for j in range(model.depth):
        layer = WarpLayer(basis(f"layer{j}.g"), basis(f"layer{j}.h"),
                          seg(f"layer{j}.Xg"), seg(f"layer{j}.Yg"),
                          seg(f"layer{j}.Xh"), seg(f"layer{j}.Yh"),
                          seg(f"layer{j}.g.noise_var"), seg(f"layer{j}.h.noise_var"))
        try:
            layers.append(refit(layer))
        except (ad.FactorizationError, ad.NonFiniteError) as e:
            raise type(e)(f"warp layer {j}, {e}") from None
    return WarpStack(layers), basis("top"), seg("top.noise_var")


def _forward(model: SswimModel, theta, x, y):
    """Objective at theta, plain or traced, plus the fitted (stack, top_basis, post)."""
    stack, top_basis, top_noise = _assemble(model, theta)
    gi = propagate(stack, x)
    try:
        post = ssgp.fit_from_features(top_basis, expected_feature_map(top_basis, gi),
                                      y, top_noise)
    except (ad.FactorizationError, ad.NonFiniteError) as e:
        raise type(e)(f"top-level fit: {e}") from None
    return ssgp.posterior_nlml(post, y), (stack, top_basis, post)


def _detach(x):
    """Copy of a tree of dataclasses, lists and tuples with tensors replaced by values."""
    if isinstance(x, ad.Tensor):
        return x.value
    if isinstance(x, (list, tuple)):
        return type(x)(_detach(v) for v in x)
    if is_dataclass(x):
        values = {f.name: _detach(getattr(x, f.name)) for f in fields(x)}
        if isinstance(x, ssgp.SsgpPosterior):  # only a fit's own evidence reads these
            values["gram"] = values["proj_y"] = None
        return replace(x, **values)
    return x


def _install(model: SswimModel, fitted):
    """Write fitted (possibly traced) structures as numpy values; the one writer of them."""
    model.stack, model.top_basis, model.top_post = _detach(fitted)


def objective(model: SswimModel, x, y) -> float:
    """Joint negative log evidence at the model's current parameters.

    Side effect: assembles the model from its draws and theta and fits every
    warp posterior and the top posterior, leaving the model fitted at its
    theta and ready for prediction.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    value, fitted = _forward(model, model.theta, x, y)
    _install(model, fitted)
    return float(value)


def value_and_gradient(model: SswimModel, x, y):
    """Objective and its gradient in packed parameter order (one tape pass).

    Refreshes the model's fitted caches like :func:`objective` does. They are
    installed before the backward pass, which drops the values of the tape's
    interior nodes.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    theta_t = ad.Tensor(model.theta)
    value, fitted = _forward(model, theta_t, x, y)
    ad.check_finite(value, "objective")
    _install(model, fitted)
    value.backward()
    grad = theta_t.grad if theta_t.grad is not None else np.zeros_like(model.theta)
    return float(value.value), grad.reshape(-1).copy()


def fd_gradient(model: SswimModel, x, y, rel_step=1e-5):
    """Central-difference gradient over the packed parameters (slow path).

    The step for coordinate i is rel_step * max(1, |theta_i|). Each probe is
    evaluated on a shallow copy, so the model is left untouched. Public as
    the oracle that :func:`value_and_gradient` is tested against.
    """
    base = model.theta
    grad = np.empty_like(base)
    probe = base.copy()
    for i in range(base.size):
        h = rel_step * max(1.0, abs(base[i]))
        probe[i] = base[i] + h
        f_up = objective(apply_parameters(replace(model), probe), x, y)
        probe[i] = base[i] - h
        f_dn = objective(apply_parameters(replace(model), probe), x, y)
        probe[i] = base[i]
        grad[i] = (f_up - f_dn) / (2.0 * h)
    return grad


def _fitted_posterior(model: SswimModel) -> ssgp.SsgpPosterior:
    if model.top_post is None:
        raise RuntimeError("model has no fitted posterior; evaluate objective() or train first")
    return model.top_post


def _predict_chunks(model: SswimModel, xstar):
    """Yield ``(propagated inputs, mean, noise-inclusive variance)`` per row chunk.

    Rows are taken in order, PREDICT_CHUNK_ROWS at a time; an empty batch is
    one empty chunk and a single point one pass.
    """
    top_post = _fitted_posterior(model)
    xstar = np.asarray(xstar, dtype=float)
    chunks = [xstar] if xstar.ndim < 2 else (
        xstar[i:i + PREDICT_CHUNK_ROWS] for i in range(0, max(len(xstar), 1), PREDICT_CHUNK_ROWS))
    for chunk in chunks:
        gi = propagate(model.stack, chunk)
        mean, var = ssgp.predict(top_post, expected_feature_map(model.top_basis, gi))
        yield gi, mean, var + top_post.noise_var


def predict_f(model: SswimModel, xstar):
    """Predictive mean and noise-inclusive variance at new inputs.

    Prediction is row-separable, so a batch is walked in fixed chunks of
    PREDICT_CHUNK_ROWS rows and the chunk results are concatenated: the
    temporaries (features and the variance products) stay chunk-sized
    whatever the batch size.
    """
    means, variances = zip(*((mean, var) for _, mean, var in _predict_chunks(model, xstar)))
    if len(means) == 1:
        return means[0], variances[0]
    return np.concatenate(means), np.concatenate(variances)


# -- serialization -----------------------------------------------------------

_F8 = "<f8"  # key of a blob's base64 little-endian float64 bytes


def _blob(a):
    """Exact JSON form of a float array: its shape and its float64 bytes in base64."""
    a = np.ascontiguousarray(a, dtype=_F8)
    return {"shape": list(a.shape), _F8: base64.b64encode(a.tobytes()).decode("ascii")}


def _unblob(value, field):
    """Inverse of :func:`_blob`, checking the byte count against the shape."""
    shape = value.get("shape") if isinstance(value, dict) else None
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
            and isinstance(value.get(_F8), str)):
        raise ValueError(f"{field} is not an array blob {{\"shape\": [...], \"{_F8}\": ...}}")
    try:
        raw = base64.b64decode(value[_F8], validate=True)
    except binascii.Error:
        raise ValueError(f"{field} is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{field} holds {len(raw)} bytes, shape {tuple(shape)} "
                         f"needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype=_F8).reshape(shape).astype(float)


def _required(part, key, prefix=""):
    if not isinstance(part, dict) or key not in part:
        raise ValueError(f"missing field {prefix}{key}")
    return part[key]


def save(model: SswimModel, path):
    """Write a fitted model as a self-contained version-3 JSON document.

    Holds the family, ``n_pseudo``, the provenance scalars ``sigma_gamma``
    and ``seed``, the flat parameters, every basis's frozen draws, and the
    top posterior's weights and the Cholesky factor of its Gram (the
    posterior cannot be rebuilt without the training data, and predictions
    must survive a round trip). Every float array is a :func:`_blob`, so the
    document is exact and ``save`` of a loaded model reproduces the file byte
    for byte. An unfitted model raises ``RuntimeError`` and writes nothing.
    """
    post = _fitted_posterior(model)
    doc = {
        "format": "sswim-model",
        "version": SCHEMA_VERSION,
        "family": model.family,
        "n_pseudo": model.n_pseudo,
        "sigma_gamma": model.sigma_gamma,
        "seed": model.seed if type(model.seed) is int else str(model.seed),
        "theta": _blob(model.theta),
        "base_draws": {key: _blob(a) for key, a in model.draws.items()},
        "top_posterior": {"alpha": _blob(post.alpha), "factor": _blob(post.A_factor)},
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc))
    return path


def load(path) -> SswimModel:
    """Rebuild a model saved by :func:`save`; predictions round-trip exactly.

    Reads versions 3 and 2 (whose extra fields are ignored) through one
    reader; any other document raises ``ValueError``. Every field is checked
    before anything is fitted: a missing key, a blob whose bytes do not fill
    its shape, draws of the wrong shape or depth, a theta whose length
    disagrees with the draws and ``n_pseudo``, or a non-finite value raises
    ``ValueError`` naming the field, as does a theta whose warp layers cannot
    be fitted or whose top-level frequencies, amplitude or noise variance
    overflow. Only the warp Grams are factored; the top posterior keeps the
    stored factor and no Gram.
    """
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.loads(f.read())
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not a JSON document: {e}") from None
    if not (isinstance(doc, dict) and doc.get("format") == "sswim-model"
            and type(doc.get("version")) is int and doc["version"] in (2, SCHEMA_VERSION)):
        raise ValueError(f"{path} is not a version-{SCHEMA_VERSION} (or version-2) model document")
    try:
        return _from_document(doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _array(part, key, shape, prefix=""):
    """A checked float array field; ``shape=None`` leaves the shape to the caller."""
    field = prefix + key
    a = _unblob(_required(part, key, prefix), field)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{field} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{field} has non-finite values")
    return a


def _scalar(doc, key, ok, want):
    v = _required(doc, key)
    if not ok(v):
        raise ValueError(f"{key} is {v!r}, expected {want}")
    return v


def _from_document(doc) -> SswimModel:
    family = _scalar(doc, "family", lambda v: v in FAMILIES, f"one of {FAMILIES}")
    n_pseudo = _scalar(doc, "n_pseudo", lambda v: type(v) is int and v >= 1, "an integer >= 1")
    sigma_gamma = _scalar(doc, "sigma_gamma",
                          lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
    # save writes any other seed back as its str, so the round trip would change it
    seed = _scalar(doc, "seed", lambda v: type(v) in (int, str), "an integer or a string")
    draws = _draws(_required(doc, "base_draws"))
    model = SswimModel(family, draws, n_pseudo, sigma_gamma, seed)
    size = model.schema[-1].stop
    theta = _array(doc, "theta", None)
    if theta.shape != (size,):
        raise ValueError(f"theta has shape {theta.shape}; base_draws and n_pseudo {n_pseudo} "
                         f"give ({size},)")
    alpha, factor = _top_posterior(_required(doc, "top_posterior"), 2 * draws["top"].shape[0])
    apply_parameters(model, theta)
    try:
        with np.errstate(over="ignore"):  # the checks below reject an overflow
            stack, top, top_noise = _assemble(model, model.theta)
            # only the warp layers are refit, so a top-level overflow shows nowhere else
            for what, value in (("frequencies", frequencies(top)), ("amplitude", top.amplitude),
                                ("noise variance", top_noise)):
                ad.check_finite(value, f"the top level's {what}")
    except (ad.FactorizationError, ad.NonFiniteError) as e:
        raise ValueError(f"theta does not give a fittable model: {e}") from None
    post = ssgp.SsgpPosterior(alpha, factor, top_noise, gram=None, proj_y=None)
    _install(model, (stack, top, post))
    return model


def _draws(part) -> dict:
    """The checked draws: a top one, then a g and an h per layer shaped like ``layer0.g``."""
    def draw(key, rows=None, cols=None):
        a = _array(part, key, None, "base_draws.")
        if a.ndim != 2 or 0 in a.shape or (rows or a.shape[0], cols or a.shape[1]) != a.shape:
            raise ValueError(f"base_draws.{key} has shape {a.shape}, expected a non-empty "
                             f"({rows or 'any'}, {cols or 'any'}) matrix")
        return a

    draws = {"top": draw("top")}
    depth = len(part) // 2  # a top draw and two per layer; a missing one is named below
    if depth > MAX_DEPTH:
        raise ValueError(f"base_draws holds {len(part)} draws, more than {MAX_DEPTH} "
                         "warp layers have")
    for key in (f"layer{j}.{fn}" for j in range(depth) for fn in "gh"):
        rows = len(draws["layer0.g"]) if "layer0.g" in draws else None
        draws[key] = draw(key, rows, draws["top"].shape[1])
    return draws


def _top_posterior(part, n_feat):
    """The checked top posterior's weights and lower Cholesky factor."""
    if not isinstance(part, dict):
        raise ValueError("top_posterior is not an object holding alpha and factor; "
                         "only a fitted model is saved")
    prefix = "top_posterior."
    alpha = _array(part, "alpha", None, prefix)
    if alpha.ndim not in (1, 2) or alpha.shape[0] != n_feat:
        raise ValueError(f"{prefix}alpha has shape {alpha.shape}, "
                         f"expected ({n_feat},) or ({n_feat}, P)")
    factor = _array(part, "factor", (n_feat, n_feat), prefix)
    if np.any(np.triu(factor, 1)) or not np.all(np.diag(factor) > 0):
        raise ValueError(f"{prefix}factor is not a lower Cholesky factor")
    return alpha, factor
