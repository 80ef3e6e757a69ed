"""Trigonometric random-feature maps for stationary kernels.

A :class:`SpectralBasis` holds a frozen matrix of unit-scale frequency draws
together with trainable lengthscales and an output amplitude. The feature map
of a point x is

    phi(x) = (amplitude / sqrt(M)) * [cos(w_1.x), ..., cos(w_M.x),
                                      sin(w_1.x), ..., sin(w_M.x)]

with effective frequencies w_m = base_draws[m] / lengthscales (elementwise),
so that phi(x).phi(x) = amplitude^2 for every x and phi(x).phi(x') is an
M-term estimate of the base kernel at x - x'.

For a Gaussian input N(mean, diag(var)) the expectation of each trigonometric
component is available in closed form: the deterministic feature at the mean,
damped by exp(-0.5 * sum_d w_d^2 var_d). :func:`expected_feature_map`
evaluates it and reduces bit-exactly to :func:`feature_map` when var = 0.

All map evaluations dispatch through :mod:`sswim.autodiff`, so they accept
either numpy arrays or tape tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

FAMILIES = ("matern32", "rbf")


@dataclass
class SpectralBasis:
    """Frozen frequency draws plus trainable lengthscales and amplitude."""

    family: str
    M: int  # number of frequencies; the feature dimension is 2M
    D: int  # input dimensionality
    base_draws: np.ndarray  # (M, D), fixed after sampling
    lengthscales: object  # (D,), strictly positive, trainable
    amplitude: object  # strictly positive output scale, trainable

    @property
    def n_features(self):
        return 2 * self.M


@dataclass
class GaussianInput:
    """Diagonal Gaussian measure on the input space; var = 0 is a point mass.

    ``mean`` and ``var`` are (D,) for a single measure or (N, D) for a batch
    of independent measures handled row-wise.
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
    return SpectralBasis(family, M, D, sample_frequencies(family, M, D, seed), ell, float(amplitude))


def _check_dim(basis: SpectralBasis, x, name="x"):
    shape = x.shape if isinstance(x, ad.Tensor) else np.shape(x)
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
    x = x if isinstance(x, ad.Tensor) else np.asarray(x, dtype=float)
    _check_dim(basis, x)
    om = frequencies(basis)
    proj = x @ ad.transpose(om)
    scale = basis.amplitude / np.sqrt(basis.M)
    return scale * ad.cos_sin(proj)


def expected_feature_map(basis: SpectralBasis, gi: GaussianInput):
    """Expectation of the feature map under a diagonal Gaussian input.

    Each cos/sin component is the deterministic feature at ``gi.mean`` damped
    by exp(-0.5 * var-weighted squared frequency norm); with var = 0 the
    output is bit-equal to ``feature_map(basis, gi.mean)``.
    """
    mean = gi.mean if isinstance(gi.mean, ad.Tensor) else np.asarray(gi.mean, dtype=float)
    var = gi.var if isinstance(gi.var, ad.Tensor) else np.asarray(gi.var, dtype=float)
    _check_dim(basis, mean, "mean")
    _check_dim(basis, var, "var")
    if not isinstance(var, ad.Tensor) and np.any(var < 0):
        raise ValueError("input variance must be nonnegative")
    om = frequencies(basis)
    proj = mean @ ad.transpose(om)
    damp = ad.exp(-0.5 * (var @ ad.transpose(ad.multiply(om, om))))
    scale = basis.amplitude / np.sqrt(basis.M)
    return scale * (ad.concatenate([damp, damp], axis=-1) * ad.cos_sin(proj))
