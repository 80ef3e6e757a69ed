"""Sparse spectrum GP regression with learned measure-valued input warpings.

A stationary trigonometric-feature GP sits on top of a stack of warp
layers. Each layer is itself a pair of small sparse spectrum GPs that map
a point to a Gaussian measure over warped inputs; the top model consumes
those measures through expected feature maps. Everything is trained
jointly by gradient descent on the marginal likelihood.
"""

from .autodiff import FactorizationError, NonFiniteError
from .features import (FAMILIES, GaussianInput, SpectralBasis, expected_feature_map,
                       feature_map, frequencies, make_basis, sample_frequencies)
from .ssgp import SsgpPosterior, fit, fit_from_features, posterior_nlml, predict
from .warping import WarpInit, WarpLayer, draw_warp_layer, refit, warp_gaussian, warp_point
from .warp_stack import MAX_DEPTH, WarpStack, propagate
from .model import (SswimModel, apply_parameters, build_model, fd_gradient, load, objective,
                    predict_f, save, value_and_gradient)
from .train import TrainConfig, TrainTrace, train
from .data import (Dataset, Preprocessing, Scaler, load_csv, load_from_manifest,
                   load_manifest, split, standardize, subsample)
from .metrics import MetricReport, aggregate, mnlp, rmse, write_report
from .synthetic import KINDS, SyntheticSpec, gen, write_csv

__version__ = "0.1.0"

__all__ = [
    "FAMILIES", "KINDS", "MAX_DEPTH",
    "FactorizationError", "NonFiniteError",
    "SpectralBasis", "GaussianInput", "SsgpPosterior", "WarpInit", "WarpLayer",
    "WarpStack", "SswimModel", "TrainConfig", "TrainTrace",
    "Dataset", "Preprocessing", "Scaler", "MetricReport", "SyntheticSpec",
    "sample_frequencies", "make_basis", "frequencies", "feature_map",
    "expected_feature_map",
    "fit", "fit_from_features", "predict", "posterior_nlml",
    "draw_warp_layer", "refit", "warp_point", "warp_gaussian", "propagate",
    "build_model", "apply_parameters", "objective",
    "value_and_gradient", "fd_gradient", "predict_f", "save", "load",
    "train",
    "load_csv", "load_manifest", "load_from_manifest", "split", "standardize",
    "subsample",
    "rmse", "mnlp", "aggregate", "write_report",
    "gen", "write_csv",
]
