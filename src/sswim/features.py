"""Trigonometric random-feature maps for stationary kernels.

A :class:`SpectralBasis` holds a frozen (M, D) matrix of unit-scale frequency
draws, whose shape gives M and D, together with trainable lengthscales and an
output amplitude. The feature map of a point x is

    phi(x) = (amplitude / sqrt(M)) * [cos(w_1.x), ..., cos(w_M.x),
                                      sin(w_1.x), ..., sin(w_M.x)]

with effective frequencies w_m = base_draws[m] / lengthscales (elementwise),
so that phi(x).phi(x) = amplitude^2 for every x and phi(x).phi(x') is an
M-term estimate of the base kernel at x - x'.

For a Gaussian input N(mean, diag(var)) the expectation of each trigonometric
component is available in closed form: the deterministic feature at the mean,
damped by exp(-0.5 * sum_d w_d^2 var_d). :func:`expected_feature_map`
evaluates it and reduces bit-exactly to :func:`feature_map` when var is None or 0.

Both maps are one call to :func:`sswim.autodiff.trig_features`, so they
accept either numpy arrays or tape tensors, and a traced map is a single tape
node that keeps only its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

FAMILIES = ("matern32", "rbf")


@dataclass
class SpectralBasis:
    """Frozen frequency draws plus trainable lengthscales and amplitude."""

    base_draws: np.ndarray  # (M, D), fixed after sampling
    lengthscales: object  # (D,), strictly positive, trainable
    amplitude: object  # strictly positive output scale, trainable

    @property
    def M(self):
        """Number of frequencies; the feature dimension is 2M."""
        return self.base_draws.shape[0]

    @property
    def D(self):
        """Input dimensionality."""
        return self.base_draws.shape[1]

    @property
    def n_features(self):
        return 2 * self.M


@dataclass
class GaussianInput:
    """Diagonal Gaussian measure on the input space; var None is a point.

    ``mean`` and ``var`` are (D,) for a single measure or (N, D) for a batch
    of independent measures handled row-wise; var = 0 still reduces bit-exactly to a point.
    """

    mean: object
    var: object


def sample_frequencies(family: str, M: int, D: int, seed) -> np.ndarray:
    """Draw the (M, D) unit-scale frequency matrix for a kernel family.

    rbf draws are i.i.d. standard normal. matern32 draws are multivariate
    Student-t with 3 degrees of freedom: each row is a standard-normal vector
    scaled by sqrt(3 / chi2_3). Deterministic in ``seed``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    if M < 1 or D < 1:
        raise ValueError("M and D must be >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((M, D))
    if family == "matern32":
        chi2 = rng.chisquare(3.0, size=M)
        draws = draws * np.sqrt(3.0 / chi2)[:, None]
    return draws


def make_basis(family, M, D, seed, lengthscales=1.0, amplitude=1.0) -> SpectralBasis:
    """Sample a basis and attach initial hyperparameters."""
    ell = np.broadcast_to(np.asarray(lengthscales, dtype=float), (D,)).copy()
    if np.any(ell <= 0) or amplitude <= 0:
        raise ValueError("lengthscales and amplitude must be strictly positive")
    return SpectralBasis(sample_frequencies(family, M, D, seed), ell, float(amplitude))


def _check_dim(basis: SpectralBasis, x, name="x"):
    shape = np.shape(x)
    if not shape or shape[-1] != basis.D:
        raise ValueError(
            f"{name} has trailing dimension {shape[-1] if shape else 'scalar'}, "
            f"basis expects {basis.D}"
        )


def frequencies(basis: SpectralBasis):
    """Effective frequencies base_draws / lengthscales, shape (M, D)."""
    return basis.base_draws / basis.lengthscales


def feature_map(basis: SpectralBasis, x):
    """Features of deterministic inputs; x is (D,) or (N, D)."""
    _check_dim(basis, x)
    return ad.trig_features(x, frequencies(basis), basis.amplitude / np.sqrt(basis.M))


def expected_feature_map(basis: SpectralBasis, gi: GaussianInput):
    """Expectation of the feature map under a diagonal Gaussian input.

    Each cos/sin component is the deterministic feature at ``gi.mean`` damped
    by exp(-0.5 * var-weighted squared frequency norm). A point (var None) runs
    ``feature_map(basis, gi.mean)``'s arithmetic, and var = 0 is bit-equal to it.
    """
    _check_dim(basis, gi.mean, "mean")
    if gi.var is not None:
        _check_dim(basis, gi.var, "var")
        if not isinstance(gi.var, ad.Tensor) and np.any(np.less(gi.var, 0)):
            raise ValueError("input variance must be nonnegative")
    return ad.trig_features(gi.mean, frequencies(basis), basis.amplitude / np.sqrt(basis.M),
                            gi.var)
