"""Stacked warps: identity base case, composition order, uncertainty growth."""

import numpy as np
import pytest

from sswim import ssgp
from sswim.features import expected_feature_map, feature_map, make_basis
from sswim.warp_stack import MAX_DEPTH, WarpStack, propagate
from sswim.warping import WarpInit, draw_warp_layer, refit, warp_gaussian, warp_point


def layer(seed, D=2, M_w=5, n_pseudo=10, sigma_gamma=0.2, h_noise_var=1e-4):
    bases = (make_basis("rbf", M_w, D, seed=seed + 100),
             make_basis("rbf", M_w, D, seed=seed + 200))
    return refit(draw_warp_layer(np.zeros(D), np.ones(D),
                                 WarpInit(n_pseudo, sigma_gamma, seed=seed), bases,
                                 h_noise_var=h_noise_var))


def test_empty_stack_is_identity():
    stack = WarpStack([])
    x = np.array([0.4, -1.2])
    out = propagate(stack, x)
    np.testing.assert_array_equal(out.mean, x)
    np.testing.assert_array_equal(out.var, np.zeros(2))


def test_empty_stack_dirac_passthrough_end_to_end():
    basis = make_basis("rbf", 8, 2, seed=1)
    x = np.array([0.7, 0.2])
    gi = propagate(WarpStack([]), x)
    np.testing.assert_array_equal(expected_feature_map(basis, gi), feature_map(basis, x))


def test_single_layer_equals_warp_point():
    lay = layer(2)
    stack = WarpStack([lay])
    x = np.array([0.3, 0.8])
    out = propagate(stack, x)
    direct = warp_point(lay, x)
    np.testing.assert_array_equal(out.mean, direct.mean)
    np.testing.assert_array_equal(out.var, direct.var)


def test_two_layers_compose_in_order():
    l1, l2 = layer(3), layer(4)
    x = np.array([0.5, 0.1])
    out = propagate(WarpStack([l1, l2]), x)
    manual = warp_gaussian(l2, warp_point(l1, x))
    np.testing.assert_array_equal(out.mean, manual.mean)
    np.testing.assert_array_equal(out.var, manual.var)


def test_two_layer_nested_monte_carlo_oracle():
    l1, l2 = layer(5), layer(6)
    x = np.array([0.6, 0.4])
    out = propagate(WarpStack([l1, l2]), x)

    # sample the exact layer-1 law, then apply layer 2 with moments frozen at
    # the same expected-feature evaluation the module uses
    gi1 = warp_point(l1, x)
    g_mean, s_g = ssgp.predict(l2.g_post, expected_feature_map(l2.g_basis, gi1))
    h_mean, s_h = ssgp.predict(l2.h_post, expected_feature_map(l2.h_basis, gi1))
    rng = np.random.default_rng(7)
    n = 1_000_000
    x1 = gi1.mean + np.sqrt(gi1.var) * rng.standard_normal((n, 2))
    g = g_mean + np.sqrt(s_g) * rng.standard_normal((n, 2))
    h = h_mean + np.sqrt(s_h) * rng.standard_normal((n, 2))
    m = g * x1 + h

    se_mean = m.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(out.mean - m.mean(axis=0)), 4 * se_mean)
    sample_var = m.var(axis=0, ddof=1)
    centered = m - m.mean(axis=0)
    se_var = np.sqrt((np.mean(centered ** 4, axis=0) - sample_var ** 2) / n)
    np.testing.assert_array_less(np.abs(out.var - sample_var), 4 * se_var)


def test_variance_accumulates_with_depth():
    # growth needs mu_g near 1 (identity-like layers); far from it the
    # multiplicative shrinkage mu_g^2 < 1 can locally beat the added floor
    for seed in (10, 20, 30, 40, 50):
        l1 = layer(seed, n_pseudo=40, sigma_gamma=0.0)
        l2 = layer(seed + 1, n_pseudo=40, sigma_gamma=0.0)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.uniform(0, 1, 2)
            v1 = propagate(WarpStack([l1]), x).var
            v2 = propagate(WarpStack([l1, l2]), x).var
            assert np.all(v2 > v1)


def test_batched_propagate_matches_rows():
    l1, l2 = layer(9), layer(11)
    stack = WarpStack([l1, l2])
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, (6, 2))
    batch = propagate(stack, X)
    for i in range(6):
        single = propagate(stack, X[i])
        np.testing.assert_allclose(batch.mean[i], single.mean, rtol=1e-12)
        np.testing.assert_allclose(batch.var[i], single.var, rtol=1e-12)


def test_stack_rejects_mixed_dimensionality():
    with pytest.raises(ValueError, match="dimensionality"):
        WarpStack([layer(13, D=2), layer(14, D=3)])


def test_depth_property_and_limit():
    assert WarpStack([]).depth == 0
    assert WarpStack([layer(15)]).depth == 1
    assert MAX_DEPTH == 3
