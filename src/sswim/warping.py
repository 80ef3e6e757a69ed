"""Measure-valued input warps built from pairs of pseudo-trained regressors.

A warp layer sends a point x to the Gaussian law of

    m(x) = g(x) * x + h(x)        (elementwise product)

where g and h are independent multi-output trigonometric-feature regressors,
each fit analytically to its own free pseudo-training pairs (Xg, Yg) and
(Xh, Yh). Because g(x) and h(x) are Gaussian with isotropic covariance, the
law of m(x) is exactly Gaussian with diagonal covariance:

    mean_d = mu_g(x)_d * x_d + mu_h(x)_d
    var_d  = s_g(x) * x_d^2 + s_h(x)

with s_g, s_h the shared scalar predictive variances. For a Gaussian input
the output is no longer Gaussian; :func:`warp_gaussian` moment-matches it,
treating the input and the two regressor values as mutually independent and
evaluating g, h through the expected feature map. With zero input variance
it reduces bit-exactly to :func:`warp_point`.

The pseudo pairs are parameters of the enclosing model, not data: they are
initialized near the identity warp (targets around 1 for g, around 0 for h)
and trained by marginal likelihood.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ssgp
from .features import GaussianInput, SpectralBasis, expected_feature_map, feature_map


@dataclass
class WarpInit:
    """Initialization protocol for one layer's pseudo data."""

    n_pseudo: int
    sigma_gamma: float = 0.1  # spread of pseudo targets around the identity warp
    seed: object = 0


@dataclass
class WarpLayer:
    """One measure-valued warp: independent g and h regressors plus pseudo data."""

    g_basis: SpectralBasis
    h_basis: SpectralBasis
    Xg: object  # (N_g, D) pseudo inputs for g
    Yg: object  # (N_g, D) pseudo targets for g
    Xh: object  # (N_h, D) pseudo inputs for h
    Yh: object  # (N_h, D) pseudo targets for h
    g_noise_var: object
    h_noise_var: object
    g_post: ssgp.SsgpPosterior = None
    h_post: ssgp.SsgpPosterior = None

    @property
    def input_dim(self):
        return self.g_basis.D


def refit(layer: WarpLayer) -> WarpLayer:
    """Refit both posteriors from the layer's current pseudo data and bases.

    Must be called after mutating pseudo pairs, noise variances, or basis
    hyperparameters; the warp operations trust the caches. A failed fit is
    re-raised with the regressor ("g regressor: ...") named.
    """
    for fn in ("g", "h"):
        try:
            post = ssgp.fit(getattr(layer, fn + "_basis"), getattr(layer, "X" + fn),
                            getattr(layer, "Y" + fn), getattr(layer, fn + "_noise_var"))
        except (ad.FactorizationError, ad.NonFiniteError) as e:
            raise type(e)(f"{fn} regressor: {e}") from None
        setattr(layer, fn + "_post", post)
    return layer


def draw_warp_layer(data_min, data_max, init: WarpInit, bases,
                    g_noise_var=1e-4, h_noise_var=1e-4) -> WarpLayer:
    """Draw pseudo data near the identity warp; the layer is left unfitted.

    Pseudo inputs are uniform over the data box [data_min, data_max]; pseudo
    targets are N(1, sigma_gamma^2) for g and N(0, sigma_gamma^2) for h, so
    the initial warp stays close to m(x) = x. ``bases`` is the (g, h) pair of
    spectral bases.
    """
    g_basis, h_basis = bases
    data_min = np.asarray(data_min, dtype=float)
    data_max = np.asarray(data_max, dtype=float)
    d = g_basis.D
    if data_min.shape != (d,) or data_max.shape != (d,):
        raise ValueError(f"data box must be two length-{d} vectors")
    if h_basis.D != d:
        raise ValueError("g and h bases must share input dimensionality")
    if np.any(data_min > data_max):
        raise ValueError("data_min must be <= data_max elementwise")
    if init.n_pseudo < 1:
        raise ValueError("n_pseudo must be >= 1")
    if init.sigma_gamma < 0:
        raise ValueError("sigma_gamma must be nonnegative")
    degenerate = np.flatnonzero(data_min == data_max)
    if degenerate.size:
        warnings.warn(
            f"degenerate data box in coordinate(s) {degenerate.tolist()}; "
            "pseudo inputs there collapse to a single value"
        )
    rng = np.random.default_rng(init.seed)
    n = init.n_pseudo
    Xg = rng.uniform(data_min, data_max, size=(n, d))
    Xh = rng.uniform(data_min, data_max, size=(n, d))
    Yg = 1.0 + init.sigma_gamma * rng.standard_normal((n, d))
    Yh = init.sigma_gamma * rng.standard_normal((n, d))
    return WarpLayer(g_basis, h_basis, Xg, Yg, Xh, Yh, float(g_noise_var), float(h_noise_var))


def _spread(v, batched):
    # per-row scalar variance broadcast against (N, D) coordinates
    return ad.expand_last(v) if batched else v


def warp_point(layer: WarpLayer, x) -> GaussianInput:
    """Exact Gaussian law of g(x) * x + h(x) for deterministic x.

    x is (D,) or a batch (N, D); batches are warped row-wise.
    """
    g_mean, g_var = ssgp.predict(layer.g_post, feature_map(layer.g_basis, x))
    h_mean, h_var = ssgp.predict(layer.h_post, feature_map(layer.h_basis, x))
    batched = np.ndim(x) == 2
    s_g, s_h = _spread(g_var, batched), _spread(h_var, batched)
    mean = g_mean * x + h_mean
    var = s_g * ad.multiply(x, x) + s_h
    return GaussianInput(mean, var)


def warp_gaussian(layer: WarpLayer, gi: GaussianInput) -> GaussianInput:
    """Moment-matched Gaussian law of g(x) * x + h(x) for Gaussian x ~ gi.

    g and h are evaluated through the expected feature map of gi, and their
    means/variances then treated as deterministic; x, g, h are taken mutually
    independent. The output variance per coordinate is

        var_d = gi.var_d * s_g + gi.var_d * mu_g_d^2 + s_g * gi.mean_d^2 + s_h
    """
    mean, var = gi.mean, gi.var
    g_mean, g_var = ssgp.predict(layer.g_post, expected_feature_map(layer.g_basis, gi))
    h_mean, h_var = ssgp.predict(layer.h_post, expected_feature_map(layer.h_basis, gi))
    batched = np.ndim(mean) == 2
    s_g, s_h = _spread(g_var, batched), _spread(h_var, batched)
    out_mean = g_mean * mean + h_mean
    out_var = (var * s_g + var * ad.multiply(g_mean, g_mean)
               + s_g * ad.multiply(mean, mean) + s_h)
    return GaussianInput(out_mean, out_var)
