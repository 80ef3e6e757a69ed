"""Model assembly, joint objective, gradients, prediction, serialization.

The full model is a stack of warp layers feeding a top-level trigonometric
regressor: an input point is propagated to a Gaussian measure, the top
basis takes its expected feature map, and the feature weights are fit by
Bayesian linear regression. The training objective is the negative log
evidence of the targets under that construction, jointly over every
hyperparameter and every pseudo-training pair.

Canonical trainable state is a flat parameter vector ``model.theta`` with a
fixed segment schema; positive quantities live in it as logarithms. The
materialized stack, bases, and fitted posteriors are derived caches.
``build_model`` and ``load`` materialize them from theta once;
``apply_parameters`` only installs a new theta and drops the top posterior,
so the caches go stale until the next ``objective`` or
``value_and_gradient`` refreshes them, and ``predict_f`` refuses until
then. One assembly routine serves both modes: handed the theta array it
produces a plain numpy model, handed a tape tensor it produces a traced
one, so the gradient differentiates exactly the arithmetic the plain
objective runs. Every Gram is factored exactly once per assembly.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import ssgp
from .features import SpectralBasis, expected_feature_map, make_basis
from .warp_stack import MAX_DEPTH, WarpStack, propagate
from .warping import WarpInit, WarpLayer, init_warp_layer, refit

Segment = namedtuple("Segment", ("name", "start", "stop", "shape", "log"))

SCHEMA_VERSION = 1


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


@dataclass
class ParameterVector:
    values: np.ndarray
    schema: tuple


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
        size = int(np.prod(shape, dtype=int))
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
    with spread ``sigma_gamma``. All sampling is derived deterministically
    from ``seed``.
    """
    x_train = np.asarray(x_train, dtype=float)
    if x_train.ndim != 2:
        raise ValueError("x_train must be a 2-D array")
    if not 0 <= n_layers <= MAX_DEPTH:
        raise ValueError(f"n_layers must be in 0..{MAX_DEPTH}")
    if noise_var <= 0 or warp_noise_var <= 0:
        raise ValueError("noise variances must be strictly positive")
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
        layers.append(init_warp_layer(data_min, data_max, init, (g_b, h_b),
                                      warp_noise_var, warp_noise_var))
    stack = WarpStack(layers)
    schema, size = _build_schema(d, n_layers, n_pseudo)
    model = SswimModel(stack, top_basis, float(noise_var), None,
                       np.empty(size), schema, n_pseudo, sigma_gamma, seed)
    apply_parameters(model, _pack_state(schema, stack, top_basis, model.top_noise_var))
    # materialize everything from theta so canonical and derived state agree
    return _materialize(model)


def _field_value(stack, top_basis, top_noise_var, name):
    if name == "top.lengthscales":
        return top_basis.lengthscales
    if name == "top.amplitude":
        return top_basis.amplitude
    if name == "top.noise_var":
        return top_noise_var
    head, rest = name.split(".", 1)
    layer = stack.layers[int(head[len("layer"):])]
    if "." not in rest:
        return getattr(layer, rest)
    fn, field = rest.split(".")
    if field == "noise_var":
        return layer.g_noise_var if fn == "g" else layer.h_noise_var
    basis = layer.g_basis if fn == "g" else layer.h_basis
    return getattr(basis, field)


def _pack_state(schema, stack, top_basis, top_noise_var):
    theta = np.empty(schema[-1].stop if schema else 0)
    for seg in schema:
        v = np.asarray(_field_value(stack, top_basis, top_noise_var, seg.name),
                       dtype=float).reshape(-1)
        theta[seg.start:seg.stop] = np.log(v) if seg.log else v
    return theta


def pack_parameters(model: SswimModel) -> ParameterVector:
    return ParameterVector(model.theta.copy(), model.schema)


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
    structures hold values of the same kind, and all warp posteriors are
    refit on the way.
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
        layer = WarpLayer(
            clone_basis(old.g_basis, f"layer{j}.g"),
            clone_basis(old.h_basis, f"layer{j}.h"),
            seg(f"layer{j}.Xg"), seg(f"layer{j}.Yg"),
            seg(f"layer{j}.Xh"), seg(f"layer{j}.Yh"),
            seg(f"layer{j}.g.noise_var"), seg(f"layer{j}.h.noise_var"),
        )
        try:
            layers.append(refit(layer))
        except (ad.FactorizationError, ad.NonFiniteError) as e:
            raise type(e)(f"warp layer {j}, {e}") from None
    top_basis = clone_basis(model.top_basis, "top")
    return WarpStack(layers), top_basis, seg("top.noise_var")


def _materialize(model: SswimModel) -> SswimModel:
    """Build the stack and top pieces (not the top posterior) from theta."""
    model.stack, model.top_basis, model.top_noise_var = _assemble(model, model.theta)
    return model


def _forward(model: SswimModel, theta, x, y):
    """Objective at theta plus the fitted (stack, top_basis, top_noise, post)."""
    stack, top_basis, top_noise = _assemble(model, theta)
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
        return replace(x, **{f.name: _detach(getattr(x, f.name)) for f in fields(x)})
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


def gradient(model: SswimModel, x, y):
    return value_and_gradient(model, x, y)[1]


def fd_gradient(model: SswimModel, x, y, rel_step=1e-5):
    """Central-difference gradient over the packed parameters (slow path).

    The step for coordinate i is rel_step * max(1, |theta_i|). Restores the
    model's parameters and caches before returning.
    """
    base = pack_parameters(model).values
    grad = np.empty_like(base)
    probe = base.copy()
    for i in range(base.size):
        h = rel_step * max(1.0, abs(base[i]))
        probe[i] = base[i] + h
        apply_parameters(model, probe)
        f_up = objective(model, x, y)
        probe[i] = base[i] - h
        apply_parameters(model, probe)
        f_dn = objective(model, x, y)
        probe[i] = base[i]
        grad[i] = (f_up - f_dn) / (2.0 * h)
    apply_parameters(model, base)
    objective(model, x, y)
    return grad


def predict_f(model: SswimModel, xstar):
    """Predictive mean and noise-inclusive variance at new inputs."""
    if model.top_post is None:
        raise RuntimeError("model has no fitted posterior; evaluate objective() or train first")
    xstar = np.asarray(xstar, dtype=float)
    gi = propagate(model.stack, xstar)
    mean, var = ssgp.predict(model.top_post, expected_feature_map(model.top_basis, gi))
    return mean, var + model.top_noise_var


# -- serialization -----------------------------------------------------------


def save(model: SswimModel, path):
    """Write the model as a self-contained JSON document.

    Holds the schema, flat parameters, every basis's frozen draws, and the
    fitted top posterior (the posterior cannot be rebuilt without the
    training data, and predictions must survive a round trip).
    """
    draws = {"top": model.top_basis.base_draws.tolist()}
    for j, layer in enumerate(model.stack.layers):
        draws[f"layer{j}.g"] = layer.g_basis.base_draws.tolist()
        draws[f"layer{j}.h"] = layer.h_basis.base_draws.tolist()
    top_post = None
    if model.top_post is not None:
        p = model.top_post
        top_post = {
            "alpha": np.asarray(p.alpha).tolist(),
            "gram": np.asarray(p.gram).tolist(),
            "noise_var": float(p.noise_var),
            "n_data": int(p.n_data),
            "sq_norm_y": float(p.sq_norm_y),
            "proj_y": np.asarray(p.proj_y).tolist(),
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
        "schema": [[s.name, s.start, s.stop, list(s.shape), s.log] for s in model.schema],
        "theta": model.theta.tolist(),
        "base_draws": draws,
        "top_posterior": top_post,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def load(path) -> SswimModel:
    """Rebuild a model saved by :func:`save`; predictions round-trip exactly."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != "sswim-model" or doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"{path} is not a version-{SCHEMA_VERSION} model document")
    d, n_layers, n_pseudo = doc["input_dim"], doc["n_layers"], doc["n_pseudo"]
    family = doc["family"]

    def basis_from(key, m):
        return SpectralBasis(family, m, d, np.array(doc["base_draws"][key], dtype=float),
                             np.ones(d), 1.0)

    layers = []
    blank = np.zeros((n_pseudo, d))
    for j in range(n_layers):
        layers.append(WarpLayer(basis_from(f"layer{j}.g", doc["M_w"]),
                                basis_from(f"layer{j}.h", doc["M_w"]),
                                blank, blank, blank, blank, 1.0, 1.0))
    schema, size = _build_schema(d, n_layers, n_pseudo)
    theta = np.array(doc["theta"], dtype=float)
    if theta.shape != (size,):
        raise ValueError(f"{path}: parameter vector length {theta.shape[0]}, schema expects {size}")
    model = SswimModel(WarpStack(layers), basis_from("top", doc["M"]), 1.0, None,
                       np.empty(size), schema, n_pseudo, doc["sigma_gamma"], doc["seed"])
    _materialize(apply_parameters(model, theta))
    if doc["top_posterior"] is not None:
        p = doc["top_posterior"]
        gram = np.array(p["gram"], dtype=float)
        model.top_post = ssgp.SsgpPosterior(
            model.top_basis, np.array(p["alpha"], dtype=float), ad.chol_psd(gram),
            p["noise_var"], gram, p["n_data"], p["sq_norm_y"],
            np.array(p["proj_y"], dtype=float))
    return model
