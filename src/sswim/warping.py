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
evaluating g, h through the expected feature map. Both operations share one
moment formula, in which a point is a Gaussian of zero variance, so with zero
input variance :func:`warp_gaussian` reduces bit-exactly to
:func:`warp_point`.

The pseudo pairs are parameters of the enclosing model, not data: they are
initialized near the identity warp (targets around 1 for g, around 0 for h)
and trained by marginal likelihood.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

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
    """A copy of the layer with both posteriors fit to its pseudo data and bases.

    The input layer is left as it is; the warp operations trust the returned
    copy's caches. A failed fit is re-raised with the regressor ("g regressor:
    ...") named.
    """
    posts = {}
    for fn in ("g", "h"):
        try:
            post = ssgp.fit(getattr(layer, fn + "_basis"), getattr(layer, "X" + fn),
                            getattr(layer, "Y" + fn), getattr(layer, fn + "_noise_var"))
        except (ad.FactorizationError, ad.NonFiniteError) as e:
            raise type(e)(f"{fn} regressor: {e}") from None
        posts[fn + "_post"] = post
    return replace(layer, **posts)


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


def _moments(layer: WarpLayer, features, mean, var=None) -> GaussianInput:
    """Gaussian law of g * x + h for x with this mean and variance (None: a point).

    ``features(basis)`` gives the (expected) features g and h are read at.
    The output variance per coordinate is

        var_d = var_d * s_g + var_d * mu_g_d^2 + s_g * mean_d^2 + s_h

    where the first two terms vanish for a point.
    """
    g_mean, s_g = ssgp.predict(layer.g_post, features(layer.g_basis))
    h_mean, s_h = ssgp.predict(layer.h_post, features(layer.h_basis))
    if np.ndim(mean) == 2:  # per-row scalar variances broadcast against (N, D)
        s_g, s_h = ad.expand_last(s_g), ad.expand_last(s_h)
    out_mean = g_mean * mean + h_mean
    out_var = s_g * ad.multiply(mean, mean)
    if var is not None:  # summed left to right as written above, for stable bits
        out_var = var * s_g + var * ad.multiply(g_mean, g_mean) + out_var
    return GaussianInput(out_mean, out_var + s_h)


def warp_point(layer: WarpLayer, x) -> GaussianInput:
    """Exact Gaussian law of g(x) * x + h(x) for deterministic x, (D,) or (N, D) rows."""
    return _moments(layer, lambda basis: feature_map(basis, x), x)


def warp_gaussian(layer: WarpLayer, gi: GaussianInput) -> GaussianInput:
    """Moment-matched Gaussian law of g(x) * x + h(x) for Gaussian x ~ gi.

    g and h are read through the expected feature map of gi; x, g and h are
    taken mutually independent.
    """
    return _moments(layer, lambda basis: expected_feature_map(basis, gi), gi.mean, gi.var)
