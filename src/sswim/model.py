"""Model assembly, joint objective, gradients, prediction, serialization.

The full model is a stack of warp layers feeding a top-level trigonometric
regressor: an input point is propagated to a Gaussian measure, the top
basis takes its expected feature map, and the feature weights are fit by
Bayesian linear regression. The training objective is the negative log
evidence of the targets under that construction, jointly over every
hyperparameter and every pseudo-training pair.

Canonical trainable state is a flat parameter vector ``model.theta`` with a
fixed segment schema; positive quantities live in it as logarithms.
``_assemble`` derives the stack and bases from it and fits nothing; a fit
happens only in an evaluation (``objective``, ``value_and_gradient``) or in
``load``, so a model from ``build_model`` holds no posterior. An evaluation
rebinds a model's fields and never mutates the objects in them (``_install``
and ``apply_parameters`` only assign, and ``_fit_warps`` mutates only layers
that ``_assemble`` has just built), so a candidate theta is evaluated on a
shallow copy, ``apply_parameters(replace(model), theta)``, and no model is
ever reverted. One assembly routine serves both modes: handed the theta
array it produces a plain numpy model, handed a tape tensor a traced one,
so the gradient differentiates exactly the arithmetic the plain objective
runs. Every Gram is factored exactly once per evaluation. Prediction is
row-separable and walks a batch in fixed chunks of PREDICT_CHUNK_ROWS rows,
so its temporaries do not grow with the batch.

``save`` writes a version-2 JSON document: readable header scalars and
schema, and every float array (theta, frequency draws, the top posterior's
weights, projections and Cholesky factor) as base64 of its little-endian
float64 bytes, so a round trip is exact and ``load`` refits only the warp
layers. ``load`` reads version 2 only and names the field of any malformed
entry.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from collections import namedtuple
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import ssgp
from .features import FAMILIES, SpectralBasis, expected_feature_map, frequencies, make_basis
from .warp_stack import MAX_DEPTH, WarpStack, propagate
from .warping import WarpInit, WarpLayer, draw_warp_layer, refit

Segment = namedtuple("Segment", ("name", "start", "stop", "shape", "log"))

SCHEMA_VERSION = 2  # of the saved document, the only one load reads

# Rows per predict_f pass. At 4,096 a 20,000-row batch (M=64) peaks at about
# a fifth of the whole-batch pass's traced memory with bit-identical outputs;
# 1,024-row chunks changed the last bits of some predictions.
PREDICT_CHUNK_ROWS = 4096


@dataclass
class SswimModel:
    stack: WarpStack
    top_basis: SpectralBasis
    top_noise_var: object
    top_post: ssgp.SsgpPosterior = None
    theta: np.ndarray = None  # canonical flat parameter vector
    schema: tuple = ()
    n_pseudo: int = 0
    sigma_gamma: float = 0.1
    seed: object = 0

    @property
    def input_dim(self):
        return self.top_basis.D

    @property
    def depth(self):
        return self.stack.depth


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
    return tuple(segments), start


def build_model(x_train, *, n_layers=1, M=100, M_w=None, n_pseudo=64,
                family="matern32", sigma_gamma=0.1, lengthscale=1.0,
                warp_lengthscale=None, amplitude=1.0, noise_var=0.1,
                warp_noise_var=1e-4, seed=0) -> SswimModel:
    """Assemble a fresh model around the training inputs' bounding box.

    ``M_w`` (warp feature count) and ``warp_lengthscale`` default to the
    top-level M and lengthscale. Pseudo inputs are drawn uniformly over
    the box of ``x_train``; pseudo targets start near the identity warp
    with spread ``sigma_gamma``. Sampling is derived deterministically from
    ``seed``. The structures are derived from theta; nothing is fitted.
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
    top_basis = make_basis(family, M, d, children[0], lengthscale, amplitude)
    data_min, data_max = x_train.min(axis=0), x_train.max(axis=0)
    layers = []
    for j in range(n_layers):
        g_b = make_basis(family, m_w, d, children[1 + 3 * j], ell_w, amplitude)
        h_b = make_basis(family, m_w, d, children[2 + 3 * j], ell_w, amplitude)
        init = WarpInit(n_pseudo, sigma_gamma, children[3 + 3 * j])
        layers.append(draw_warp_layer(data_min, data_max, init, (g_b, h_b),
                                      warp_noise_var, warp_noise_var))

    def log_hypers(basis, noise):
        return [np.log(basis.lengthscales), np.log([basis.amplitude]), np.log([noise])]

    # the drawn values segment by segment, in _build_schema's order
    parts = log_hypers(top_basis, float(noise_var))
    for layer in layers:
        parts += (log_hypers(layer.g_basis, layer.g_noise_var)
                  + log_hypers(layer.h_basis, layer.h_noise_var)
                  + [a.ravel() for a in (layer.Xg, layer.Yg, layer.Xh, layer.Yh)])
    schema, _ = _build_schema(d, n_layers, n_pseudo)
    model = SswimModel(WarpStack(layers), top_basis, float(noise_var), schema=schema,
                       n_pseudo=n_pseudo, sigma_gamma=sigma_gamma, seed=seed)
    apply_parameters(model, np.concatenate(parts))
    model.stack, model.top_basis, model.top_noise_var = _assemble(model, model.theta)
    return model


def apply_parameters(model: SswimModel, values) -> SswimModel:
    """Validate and install a flat parameter vector; fits nothing.

    The top posterior is dropped and the other caches are stale until the
    next :func:`objective` or :func:`value_and_gradient`.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (model.schema[-1].stop,):
        raise ValueError(f"parameter vector has shape {values.shape}, "
                         f"schema expects ({model.schema[-1].stop},)")
    ad.check_finite(values, "parameter vector")
    model.theta = values.copy()
    model.top_post = None
    return model


def _assemble(model: SswimModel, theta):
    """Rebuild stack and top pieces with trainable values read from theta.

    theta may be the plain parameter array or a tape tensor; the assembled
    structures hold values of the same kind. Fits nothing (see _fit_warps).
    """
    segments = {s.name: s for s in model.schema}

    def seg(name):
        s = segments[name]
        part = ad.reshape(ad.take(theta, slice(s.start, s.stop)), s.shape)
        return ad.exp(part) if s.log else part

    def clone_basis(old, prefix):
        return SpectralBasis(old.family, old.M, old.D, old.base_draws,
                             seg(prefix + ".lengthscales"), seg(prefix + ".amplitude"))

    layers = []
    for j, old in enumerate(model.stack.layers):
        layers.append(WarpLayer(
            clone_basis(old.g_basis, f"layer{j}.g"),
            clone_basis(old.h_basis, f"layer{j}.h"),
            seg(f"layer{j}.Xg"), seg(f"layer{j}.Yg"),
            seg(f"layer{j}.Xh"), seg(f"layer{j}.Yh"),
            seg(f"layer{j}.g.noise_var"), seg(f"layer{j}.h.noise_var"),
        ))
    top_basis = clone_basis(model.top_basis, "top")
    return WarpStack(layers), top_basis, seg("top.noise_var")


def _fit_warps(assembled):
    """Fit in place the warp layers of an :func:`_assemble` result (evaluation and load)."""
    for j, layer in enumerate(assembled[0].layers):
        try:
            refit(layer)
        except (ad.FactorizationError, ad.NonFiniteError) as e:
            raise type(e)(f"warp layer {j}, {e}") from None
    return assembled


def _forward(model: SswimModel, theta, x, y):
    """Objective at theta plus the fitted (stack, top_basis, top_noise, post)."""
    stack, top_basis, top_noise = _fit_warps(_assemble(model, theta))
    gi = propagate(stack, x)
    try:
        post = ssgp.fit_from_features(top_basis, expected_feature_map(top_basis, gi),
                                      y, top_noise)
    except (ad.FactorizationError, ad.NonFiniteError) as e:
        raise type(e)(f"top-level fit: {e}") from None
    return ssgp.posterior_nlml(post), (stack, top_basis, top_noise, post)


def _detach(x):
    """Copy of a tree of dataclasses, lists and tuples with tensors replaced by values."""
    if isinstance(x, ad.Tensor):
        return x.value
    if isinstance(x, (list, tuple)):
        return type(x)(_detach(v) for v in x)
    if is_dataclass(x):
        values = {f.name: _detach(getattr(x, f.name)) for f in fields(x)}
        if isinstance(x, ssgp.SsgpPosterior):
            values["gram"] = None  # only a tape differentiates the Gram
        return replace(x, **values)
    return x


def _install(model: SswimModel, fitted):
    """Write a forward pass's (possibly traced) results back as numpy caches."""
    model.stack, model.top_basis, model.top_noise_var, model.top_post = _detach(fitted)


def objective(model: SswimModel, x, y) -> float:
    """Joint negative log evidence at the model's current parameters.

    Side effect: refits every warp posterior and the top posterior, leaving
    the model coherent for prediction.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    value, fitted = _forward(model, model.theta, x, y)
    _install(model, fitted)
    return float(value)


def value_and_gradient(model: SswimModel, x, y):
    """Objective and its gradient in packed parameter order (one tape pass).

    Refreshes the model's fitted caches like :func:`objective` does.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    theta_t = ad.Tensor(model.theta)
    value, fitted = _forward(model, theta_t, x, y)
    ad.check_finite(value, "objective")
    value.backward()
    grad = theta_t.grad if theta_t.grad is not None else np.zeros_like(model.theta)
    _install(model, fitted)
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


def _predict_chunks(model: SswimModel, xstar):
    """Yield ``(propagated inputs, mean, noise-inclusive variance)`` per row chunk.

    Rows are taken in order, PREDICT_CHUNK_ROWS at a time; a point, an empty
    batch or a batch that fits one chunk is a single pass over ``xstar``.
    """
    if model.top_post is None:
        raise RuntimeError("model has no fitted posterior; evaluate objective() or train first")
    xstar = np.asarray(xstar, dtype=float)
    if xstar.ndim < 2 or len(xstar) <= PREDICT_CHUNK_ROWS:
        chunks = [xstar]
    else:
        chunks = (xstar[i:i + PREDICT_CHUNK_ROWS]
                  for i in range(0, len(xstar), PREDICT_CHUNK_ROWS))
    for chunk in chunks:
        gi = propagate(model.stack, chunk)
        mean, var = ssgp.predict(model.top_post, expected_feature_map(model.top_basis, gi))
        yield gi, mean, var + model.top_noise_var


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


def _integer(part, key, lo, hi=None, prefix=""):
    v = _required(part, key, prefix)
    if type(v) is not int or v < lo or (hi is not None and v > hi):
        want = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"{prefix}{key} is {v!r}, expected an integer {want}")
    return v


def _number(part, key, prefix="", positive=False):
    v = _required(part, key, prefix)
    if type(v) not in (int, float) or not math.isfinite(v) or (positive and v <= 0):
        raise ValueError(f"{prefix}{key} is {v!r}, "
                         f"expected a finite{' positive' if positive else ''} number")
    return v


def _schema_rows(schema):
    return [[s.name, s.start, s.stop, list(s.shape), s.log] for s in schema]


def save(model: SswimModel, path):
    """Write the model as a self-contained version-2 JSON document.

    Holds the schema, flat parameters, every basis's frozen draws, and the
    fitted top posterior with the Cholesky factor of its Gram (the posterior
    cannot be rebuilt without the training data, and predictions must
    survive a round trip). Header scalars are JSON text; every float array
    is a :func:`_blob`, so the document is exact and ``save`` of a loaded
    model reproduces the file byte for byte.
    """
    draws = {"top": _blob(model.top_basis.base_draws)}
    for j, layer in enumerate(model.stack.layers):
        draws[f"layer{j}.g"] = _blob(layer.g_basis.base_draws)
        draws[f"layer{j}.h"] = _blob(layer.h_basis.base_draws)
    top_post = None
    if model.top_post is not None:
        p = model.top_post
        top_post = {
            "alpha": _blob(p.alpha),
            "factor": _blob(p.A_factor),
            "noise_var": float(p.noise_var),
            "n_data": int(p.n_data),
            "sq_norm_y": float(p.sq_norm_y),
            "proj_y": _blob(p.proj_y),
        }
    doc = {
        "format": "sswim-model",
        "version": SCHEMA_VERSION,
        "family": model.top_basis.family,
        "input_dim": model.top_basis.D,
        "M": model.top_basis.M,
        "M_w": model.stack.layers[0].g_basis.M if model.stack.layers else None,
        "n_layers": model.stack.depth,
        "n_pseudo": model.n_pseudo,
        "sigma_gamma": model.sigma_gamma,
        "seed": model.seed if isinstance(model.seed, int) else str(model.seed),
        "schema": _schema_rows(model.schema),
        "theta": _blob(model.theta),
        "base_draws": draws,
        "top_posterior": top_post,
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc))
    return path


def load(path) -> SswimModel:
    """Rebuild a model saved by :func:`save`; predictions round-trip exactly.

    Reads version 2 only; any other document raises ``ValueError``. Every
    field is checked before anything is fitted: a missing key, a blob whose
    bytes do not fill its shape, an array whose shape disagrees with the
    header, or a non-finite value raises ``ValueError`` naming the field, as
    does a theta whose warp layers cannot be fitted or whose top-level
    frequencies, amplitude or noise variance overflow. Only the warp Grams
    are factored; the top posterior keeps the stored factor and no Gram.
    """
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.loads(f.read())
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not a JSON document: {e}") from None
    if not (isinstance(doc, dict) and doc.get("format") == "sswim-model"
            and doc.get("version") == SCHEMA_VERSION):
        raise ValueError(f"{path} is not a version-{SCHEMA_VERSION} model document")
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


def _from_document(doc) -> SswimModel:
    family = _required(doc, "family")
    if family not in FAMILIES:
        raise ValueError(f"family is {family!r}, expected one of {FAMILIES}")
    d, m = _integer(doc, "input_dim", 1), _integer(doc, "M", 1)
    n_layers = _integer(doc, "n_layers", 0, MAX_DEPTH)
    n_pseudo = _integer(doc, "n_pseudo", 1)
    m_w = _integer(doc, "M_w", 1) if n_layers else None
    sigma_gamma, seed = _number(doc, "sigma_gamma"), _required(doc, "seed")
    schema, size = _build_schema(d, n_layers, n_pseudo)
    if _required(doc, "schema") != _schema_rows(schema):
        raise ValueError("schema does not match input_dim, n_layers and n_pseudo")
    theta = _array(doc, "theta", (size,))
    draws = _required(doc, "base_draws")

    def basis(key, n_freq):
        return SpectralBasis(family, n_freq, d,
                             _array(draws, key, (n_freq, d), "base_draws."),
                             np.ones(d), 1.0)

    top_basis = basis("top", m)
    blank = np.zeros((n_pseudo, d))
    layers = [WarpLayer(basis(f"layer{j}.g", m_w), basis(f"layer{j}.h", m_w),
                        blank, blank, blank, blank, 1.0, 1.0) for j in range(n_layers)]
    post = _required(doc, "top_posterior")
    post = None if post is None else _top_posterior(post, 2 * m)
    model = SswimModel(WarpStack(layers), top_basis, 1.0, None, np.empty(size), schema,
                       n_pseudo, sigma_gamma, seed)
    try:
        with np.errstate(over="ignore"):  # the checks below reject an overflow
            apply_parameters(model, theta)
            model.stack, model.top_basis, model.top_noise_var = _fit_warps(_assemble(model, theta))
            # only the warp layers are refit, so a top-level overflow shows nowhere else
            top = model.top_basis
            for what, value in (("frequencies", frequencies(top)), ("amplitude", top.amplitude),
                                ("noise variance", model.top_noise_var)):
                ad.check_finite(value, f"the top level's {what}")
    except (ad.FactorizationError, ad.NonFiniteError) as e:
        raise ValueError(f"theta does not give a fittable model: {e}") from None
    model.top_post = post
    return model


def _top_posterior(part, n_feat) -> ssgp.SsgpPosterior:
    """The checked top posterior, with no Gram."""
    prefix = "top_posterior."
    alpha = _array(part, "alpha", None, prefix)
    if alpha.ndim not in (1, 2) or alpha.shape[0] != n_feat:
        raise ValueError(f"{prefix}alpha has shape {alpha.shape}, "
                         f"expected ({n_feat},) or ({n_feat}, P)")
    proj_y = _array(part, "proj_y", alpha.shape, prefix)
    factor = _array(part, "factor", (n_feat, n_feat), prefix)
    if np.any(np.triu(factor, 1)) or not np.all(np.diag(factor) > 0):
        raise ValueError(f"{prefix}factor is not a lower Cholesky factor")
    return ssgp.SsgpPosterior(
        alpha=alpha, A_factor=factor,
        noise_var=_number(part, "noise_var", prefix, positive=True), gram=None,
        n_data=_integer(part, "n_data", 0, prefix=prefix),
        sq_norm_y=_number(part, "sq_norm_y", prefix), proj_y=proj_y)
