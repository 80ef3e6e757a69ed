"""Bayesian linear regression over trigonometric features.

With the feature scaling used by :mod:`sswim.features`, a standard-normal
prior on the weights makes the implied function prior an M-frequency
approximation of the base kernel, so this module is the exact inference core
for the sparse trigonometric model. Everything is phrased in terms of the
regularized feature Gram

    A = Phi^T Phi + noise_var * I          (Phi has one feature row per datum)

whose Cholesky factor, computed once per fit and kept on the posterior,
backs every solve, predictive variance and log-determinant. The one
explicit inverse is A^-1 as the gradient of log|A|, formed from the factor.
Multiple output columns share one factorization and a single noise
variance, giving each output the same scalar predictive variance.

The negative log evidence uses the weight-space identity

    0.5 * (y.y - b.(A^-1 b)) / noise_var + 0.5 * log|A|
        - (F/2) * log(noise_var) + (N/2) * log(2 pi noise_var)

with b = Phi^T y and F the feature count, which equals the dense N x N
Gaussian log-density exactly (up to factorization round-off).

All functions accept plain numpy arrays or autodiff tensors, so the training
objective reuses them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .features import SpectralBasis, feature_map


@dataclass
class SsgpPosterior:
    """Posterior over feature weights plus the terms evidence and refits reuse."""

    alpha: object  # (2M,) or (2M, P) posterior weight means A^-1 Phi^T Y
    A_factor: np.ndarray  # (2M, 2M) lower Cholesky factor of the Gram, the only one
    noise_var: object  # observation noise variance
    # (2M, 2M) the Gram A itself, the tape node traced solves differentiate; None
    # after model.load, whose document keeps only the factor that the plain
    # predict and posterior_nlml read
    gram: object
    n_data: int
    sq_norm_y: object  # sum of squared targets
    proj_y: object  # (2M,) or (2M, P) b = Phi^T Y

    @property
    def n_outputs(self):
        return 1 if np.ndim(self.alpha) == 1 else np.shape(self.alpha)[1]


def fit_from_features(basis, phi, y, noise_var) -> SsgpPosterior:
    """Condition the standard-normal weight prior on Y = Phi w + noise."""
    ad.check_finite(phi, "feature matrix")
    ad.check_finite(y, "targets")
    if not isinstance(noise_var, ad.Tensor) and noise_var <= 0:
        raise ValueError("noise_var must be strictly positive")
    n, n_feat = phi.shape
    y_shape = np.shape(y)
    if len(y_shape) not in (1, 2) or y_shape[0] != n:
        raise ValueError(f"targets have shape {y_shape}, expected ({n},) or ({n}, P)")
    if basis is not None and n_feat != basis.n_features:
        raise ValueError(f"feature matrix has {n_feat} columns, basis provides {basis.n_features}")
    gram = ad.transpose(phi) @ phi + noise_var * np.eye(n_feat)
    # inf noise or amplitude slips past the phi check but poisons the factor
    ad.check_finite(gram, "feature Gram")
    proj = ad.transpose(phi) @ y
    factor = ad.chol_psd(gram)
    alpha = ad.psd_solve(gram, factor, proj)
    sq_norm = ad.sum_(ad.multiply(y, y))
    return SsgpPosterior(alpha, factor, noise_var, gram, n, sq_norm, proj)


def fit(basis: SpectralBasis, x, y, noise_var) -> SsgpPosterior:
    """Fit from raw inputs; targets may be (N,) or (N, P)."""
    return fit_from_features(basis, feature_map(basis, x), y, noise_var)


def posterior_nlml(post: SsgpPosterior):
    """Negative log evidence of the data the posterior was fitted on.

    For multi-column targets this is the sum over the independent outputs,
    which share the Gram and its determinant.
    """
    n_feat = post.proj_y.shape[0]
    quad = post.sq_norm_y - ad.sum_(ad.multiply(post.proj_y, post.alpha))
    per_output = (
        0.5 * ad.psd_logdet(post.gram, post.A_factor)
        - 0.5 * n_feat * ad.log(post.noise_var)
        + 0.5 * post.n_data * ad.log(2.0 * np.pi * post.noise_var)
    )
    return 0.5 * quad / post.noise_var + post.n_outputs * per_output


def predict(post: SsgpPosterior, feat):
    """Predictive mean and latent variance at a feature vector or rows of them.

    The caller chooses the map: features of a point for deterministic inputs,
    expected features for Gaussian inputs. The variance is
    noise_var * feat.(A^-1 feat), shared by all output columns, from one
    triangular multiply by the inverse of the posterior's factor
    (``ad.psd_quad_diag``). It excludes the observation noise, which a caller
    adds for the variance of a new observation (as ``model.predict_f`` does).
    """
    mean = feat @ post.alpha
    return mean, post.noise_var * ad.psd_quad_diag(post.gram, post.A_factor, feat)
