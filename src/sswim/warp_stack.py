"""Composition of warp layers, propagating Gaussian measures input-to-output.

An empty stack is the identity: a point stays a point mass. Otherwise the
first layer warps the point exactly and every later layer moment-matches the
Gaussian it receives, so uncertainty accumulates front to back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .features import GaussianInput
from .warping import warp_gaussian, warp_point

MAX_DEPTH = 3


@dataclass
class WarpStack:
    layers: list

    def __post_init__(self):
        dims = {layer.input_dim for layer in self.layers}
        if len(dims) > 1:
            raise ValueError(f"warp layers disagree on dimensionality: {sorted(dims)}")

    @property
    def depth(self):
        return len(self.layers)


def propagate(stack: WarpStack, x) -> GaussianInput:
    """Push a point (or batch of points) through every layer in order."""
    x = x if isinstance(x, ad.Tensor) else np.asarray(x, dtype=float)
    if not stack.layers:
        return GaussianInput(x, np.zeros(x.shape))
    gi = warp_point(stack.layers[0], x)
    for layer in stack.layers[1:]:
        gi = warp_gaussian(layer, gi)
    return gi
