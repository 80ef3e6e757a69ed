"""Bayesian linear regression over trigonometric features.

With the feature scaling used by :mod:`sswim.features`, a standard-normal
prior on the weights makes the implied function prior an M-frequency
approximation of the base kernel, so this module is the exact inference core
for the sparse trigonometric model. Everything is phrased in terms of the
regularized feature Gram

    A = Phi^T Phi + noise_var * I          (Phi has one feature row per datum)

with Phi^T Phi one tape node (``ad.gram``), whose Cholesky factor, computed
once per fit and kept on the posterior, backs every solve, predictive
variance and log-determinant. A predictive variance multiplies by the
factor's inverse, which the posterior forms on its first prediction and
keeps (``SsgpPosterior.factor_inverse``), so later predictions pay only
per-row work. The one other explicit inverse is A^-1 in the evidence's
gradient, formed from the factor.
Multiple output columns share one factorization and a single noise
variance, giving each output the same scalar predictive variance.

The negative log evidence uses the weight-space identity

    0.5 * (y.y - b.(A^-1 b)) / noise_var + 0.5 * log|A|
        - (F/2) * log(noise_var) + (N/2) * log(2 pi noise_var)

with b = Phi^T y and F the feature count, which equals the dense N x N
Gaussian log-density exactly (up to factorization round-off). It reads the
data only through (A, b, y.y), and it is one tape node over (A, b,
noise_var), ``ad.gaussian_evidence``, which takes log|A| as a plain value
from the factor (``ad.psd_logdet``) and folds its gradient into its own
adjoint. N and y.y are read from the targets, which
``posterior_nlml`` takes next to the posterior; the posterior keeps only
what prediction and that one evidence call read.

All functions accept plain numpy arrays or autodiff tensors, so the training
objective reuses them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .features import SpectralBasis, feature_map


@dataclass
class SsgpPosterior:
    """Posterior over feature weights, plus the Gram and Phi^T Y a fit's evidence reads.

    In a posterior a model holds, installed or loaded, ``gram`` and ``proj_y`` are None.
    """

    alpha: object  # (2M,) or (2M, P) posterior weight means A^-1 Phi^T Y
    A_factor: np.ndarray  # (2M, 2M) lower Cholesky factor of the Gram, the only one
    noise_var: object  # observation noise variance
    gram: object  # (2M, 2M) the Gram A, the tape node traced solves differentiate
    proj_y: object  # (2M,) or (2M, P) b = Phi^T Y

    @cached_property
    def factor_inverse(self) -> np.ndarray:
        """L^-1 of ``A_factor``, formed by one ``dtrtri`` on first use and kept.

        Not a field: ``dataclasses.replace`` and ``fields`` do not see it, so
        a copied posterior forms its own and ``model.save`` never writes it.
        """
        return ad.tri_inverse(self.A_factor)


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
    if n_feat != basis.n_features:
        raise ValueError(f"feature matrix has {n_feat} columns, basis provides {basis.n_features}")
    gram = ad.gram(phi) + noise_var * np.eye(n_feat)
    # inf noise or amplitude slips past the phi check but poisons the factor
    ad.check_finite(gram, "feature Gram")
    proj = ad.transpose(phi) @ y
    factor = ad.chol_psd(gram)
    alpha = ad.psd_solve(gram, factor, proj)
    return SsgpPosterior(alpha, factor, noise_var, gram, proj)


def fit(basis: SpectralBasis, x, y, noise_var) -> SsgpPosterior:
    """Fit from raw inputs; targets may be (N,) or (N, P)."""
    return fit_from_features(basis, feature_map(basis, x), y, noise_var)


def posterior_nlml(post: SsgpPosterior, y):
    """Negative log evidence of the targets ``y`` the posterior was fitted on.

    N, the output count and y.y are read from ``y``; the posterior must come
    straight from a fit, which keeps ``gram`` and ``proj_y``. For
    multi-column targets this is the sum over the independent outputs, which
    share the Gram and its determinant. The evidence is one tape node over
    the Gram, ``proj_y`` and the noise variance (``ad.gaussian_evidence``),
    which takes log|A| as the plain value ``ad.psd_logdet`` reads off the factor.
    """
    logdet = ad.psd_logdet(post.A_factor)
    return ad.gaussian_evidence(post.gram, post.A_factor, logdet, post.proj_y, post.alpha,
                                post.noise_var, y)


def predict(post: SsgpPosterior, feat):
    """Predictive mean and latent variance at a feature vector or rows of them.

    The caller chooses the map: features of a point for deterministic inputs,
    expected features for Gaussian inputs. The variance is
    noise_var * feat.(A^-1 feat), shared by all output columns, from one
    triangular multiply by the inverse of the posterior's factor
    (``ad.psd_quad_diag``), which the posterior's first prediction forms and
    later ones reuse. It excludes the observation noise, which a caller
    adds for the variance of a new observation (as ``model.predict_f`` does).
    """
    mean = feat @ post.alpha
    return mean, post.noise_var * ad.psd_quad_diag(post.gram, post.factor_inverse, feat)
