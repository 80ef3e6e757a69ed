"""Warp layers: exact Gaussian output law, moment matching, pseudo-data init.

Monte Carlo oracles simulate the generative story directly (sample g and h,
form g*x + h) and check the module's closed-form moments against sample
moments with 4-standard-error bands.
"""

import warnings

import numpy as np
import pytest

from sswim import ssgp
from sswim.features import GaussianInput, expected_feature_map, feature_map, make_basis
from sswim.warping import (WarpInit, WarpLayer, draw_warp_layer, refit, warp_gaussian,
                           warp_point)


def make_bases(D, M_w=6, seed=0, lengthscales=1.0):
    return (make_basis("rbf", M_w, D, seed=seed, lengthscales=lengthscales),
            make_basis("rbf", M_w, D, seed=seed + 1, lengthscales=lengthscales))


def random_layer(seed, D=2, M_w=6, n_pseudo=12, sigma_gamma=0.3):
    return refit(draw_warp_layer(np.zeros(D), np.ones(D),
                                 WarpInit(n_pseudo, sigma_gamma, seed=seed),
                                 make_bases(D, M_w, seed=seed + 100)))


# -- initialization ----------------------------------------------------------


def test_init_zero_gamma_targets_are_exact():
    layer = draw_warp_layer(np.zeros(2), np.ones(2), WarpInit(8, sigma_gamma=0.0, seed=1),
                            make_bases(2))
    np.testing.assert_array_equal(layer.Yg, np.ones((8, 2)))
    np.testing.assert_array_equal(layer.Yh, np.zeros((8, 2)))


def test_init_identity_oracle():
    # dense pseudo coverage of constant targets makes the warp the identity
    M_w = 4
    layer = refit(draw_warp_layer(np.zeros(2), np.ones(2),
                                  WarpInit(8 * M_w, sigma_gamma=0.0, seed=2),
                                  make_bases(2, M_w=M_w, seed=5),
                                  g_noise_var=1e-8, h_noise_var=1e-8))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0, 1, 2)
        g_mean, _ = ssgp.predict(layer.g_post, feature_map(layer.g_basis, x))
        h_mean, _ = ssgp.predict(layer.h_post, feature_map(layer.h_basis, x))
        assert np.max(np.abs(g_mean - 1.0)) <= 1e-2
        assert np.max(np.abs(h_mean)) <= 1e-2
        out = warp_point(layer, x)
        assert np.max(np.abs(out.mean - x)) <= 2e-2
        assert np.all(out.var < 1e-2)


def test_init_is_deterministic():
    a = random_layer(7)
    b = random_layer(7)
    for field in ("Xg", "Yg", "Xh", "Yh"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    np.testing.assert_array_equal(a.g_post.alpha, b.g_post.alpha)
    np.testing.assert_array_equal(a.h_post.alpha, b.h_post.alpha)


def test_init_degenerate_box_warns_and_collapses():
    with pytest.warns(UserWarning, match=r"coordinate\(s\) \[1\]"):
        layer = draw_warp_layer(np.array([0.0, 0.5]), np.array([1.0, 0.5]),
                                WarpInit(6, seed=4), make_bases(2))
    np.testing.assert_array_equal(layer.Xg[:, 1], np.full(6, 0.5))
    np.testing.assert_array_equal(layer.Xh[:, 1], np.full(6, 0.5))


def test_init_validation():
    bases = make_bases(2)
    with pytest.raises(ValueError, match="data_min"):
        draw_warp_layer(np.ones(2), np.zeros(2), WarpInit(4), bases)
    with pytest.raises(ValueError, match="n_pseudo"):
        draw_warp_layer(np.zeros(2), np.ones(2), WarpInit(0), bases)
    with pytest.raises(ValueError, match="length-2"):
        draw_warp_layer(np.zeros(3), np.ones(3), WarpInit(4), bases)
    odd = (make_basis("rbf", 4, 2, seed=0), make_basis("rbf", 4, 3, seed=1))
    with pytest.raises(ValueError, match="dimensionality"):
        draw_warp_layer(np.zeros(2), np.ones(2), WarpInit(4), odd)


# -- warp_point --------------------------------------------------------------


def test_warp_point_zero_input_kills_multiplicative_branch():
    layer = random_layer(8)
    out = warp_point(layer, np.zeros(2))
    h_mean, h_var = ssgp.predict(layer.h_post, feature_map(layer.h_basis, np.zeros(2)))
    np.testing.assert_array_equal(out.mean, h_mean)
    np.testing.assert_array_equal(out.var, np.full(2, h_var))


def test_warp_point_monte_carlo_oracle():
    layer = random_layer(9)
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, 2)
    out = warp_point(layer, x)

    g_mean, s_g = ssgp.predict(layer.g_post, feature_map(layer.g_basis, x))
    h_mean, s_h = ssgp.predict(layer.h_post, feature_map(layer.h_basis, x))
    n = 1_000_000
    g = g_mean + np.sqrt(s_g) * rng.standard_normal((n, 2))
    h = h_mean + np.sqrt(s_h) * rng.standard_normal((n, 2))
    m = g * x + h

    se_mean = m.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(out.mean - m.mean(axis=0)), 4 * se_mean)
    sample_var = m.var(axis=0, ddof=1)
    se_var = sample_var * np.sqrt(2.0 / n)
    np.testing.assert_array_less(np.abs(out.var - sample_var), 4 * se_var)


def test_warp_point_batch_matches_rows():
    layer = random_layer(11)
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, (7, 2))
    batch = warp_point(layer, X)
    assert batch.mean.shape == (7, 2) and batch.var.shape == (7, 2)
    for i in range(7):
        single = warp_point(layer, X[i])
        np.testing.assert_allclose(batch.mean[i], single.mean, rtol=1e-12)
        np.testing.assert_allclose(batch.var[i], single.var, rtol=1e-12)


def test_warp_point_lipschitz_smoke():
    layer = random_layer(13)
    rng = np.random.default_rng(14)
    x = rng.uniform(0.2, 0.8, 2)
    base = warp_point(layer, x).mean
    slope = np.max(np.abs(warp_point(layer, x + 1e-3).mean - base)) / 1e-3
    for delta in (1e-4, 1e-5, 1e-6):
        moved = warp_point(layer, x + delta).mean
        assert np.max(np.abs(moved - base)) <= 3.0 * max(slope, 1.0) * delta


def test_variance_strictly_positive():
    layer = random_layer(15)
    rng = np.random.default_rng(16)
    for _ in range(20):
        out = warp_point(layer, rng.uniform(-0.5, 1.5, 2))
        assert np.all(out.var > 0)


# -- warp_gaussian -----------------------------------------------------------


def test_warp_gaussian_dirac_reduces_to_warp_point():
    layer = random_layer(17)
    rng = np.random.default_rng(18)
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        exact = warp_point(layer, x)
        matched = warp_gaussian(layer, GaussianInput(x, np.zeros(2)))
        np.testing.assert_array_equal(matched.mean, exact.mean)
        np.testing.assert_array_equal(matched.var, exact.var)


def test_warp_gaussian_zero_mean_specialization():
    layer = random_layer(19)
    v = np.array([0.04, 0.09])
    gi = GaussianInput(np.zeros(2), v)
    out = warp_gaussian(layer, gi)
    g_mean, s_g = ssgp.predict(layer.g_post, expected_feature_map(layer.g_basis, gi))
    h_mean, s_h = ssgp.predict(layer.h_post, expected_feature_map(layer.h_basis, gi))
    np.testing.assert_array_equal(out.mean, h_mean)
    np.testing.assert_allclose(out.var, v * (s_g + g_mean ** 2) + s_h, rtol=1e-12)


def test_warp_gaussian_monte_carlo_oracle():
    layer = random_layer(20)
    rng = np.random.default_rng(21)
    mean = rng.uniform(0, 1, 2)
    var = rng.uniform(0.01, 0.1, 2)
    gi = GaussianInput(mean, var)
    out = warp_gaussian(layer, gi)

    # moments frozen at their expected-feature values, all three factors independent
    g_mean, s_g = ssgp.predict(layer.g_post, expected_feature_map(layer.g_basis, gi))
    h_mean, s_h = ssgp.predict(layer.h_post, expected_feature_map(layer.h_basis, gi))
    n = 1_000_000
    x = mean + np.sqrt(var) * rng.standard_normal((n, 2))
    g = g_mean + np.sqrt(s_g) * rng.standard_normal((n, 2))
    h = h_mean + np.sqrt(s_h) * rng.standard_normal((n, 2))
    m = g * x + h

    se_mean = m.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(out.mean - m.mean(axis=0)), 4 * se_mean)
    sample_var = m.var(axis=0, ddof=1)
    # product variables are heavier-tailed than Gaussian; use the empirical
    # standard error of the variance from fourth moments
    centered = m - m.mean(axis=0)
    se_var = np.sqrt((np.mean(centered ** 4, axis=0) - sample_var ** 2) / n)
    np.testing.assert_array_less(np.abs(out.var - sample_var), 4 * se_var)


def test_hadamard_variance_diagonal_matches_dense_covariance():
    # the diagonal fast path s_g * x^2 + s_h against diag(x) Sigma diag(x) + Sigma_h
    rng = np.random.default_rng(22)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x = rng.standard_normal(d)
        s_g = float(rng.uniform(0.01, 2.0))
        s_h = float(rng.uniform(0.01, 2.0))
        dense = np.diag(x) @ (s_g * np.eye(d)) @ np.diag(x) + s_h * np.eye(d)
        fast = s_g * x ** 2 + s_h
        assert np.max(np.abs(np.diag(dense) - fast)) <= 1e-12
        off = dense - np.diag(np.diag(dense))
        assert np.max(np.abs(off)) <= 1e-12


def test_warp_point_variance_matches_dense_covariance():
    layer = random_layer(23)
    rng = np.random.default_rng(24)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        out = warp_point(layer, x)
        _, s_g = ssgp.predict(layer.g_post, feature_map(layer.g_basis, x))
        _, s_h = ssgp.predict(layer.h_post, feature_map(layer.h_basis, x))
        dense = np.diag(x) @ (s_g * np.eye(2)) @ np.diag(x) + s_h * np.eye(2)
        assert np.max(np.abs(out.var - np.diag(dense))) <= 1e-12


def test_refit_coherence_round_trip():
    layer = random_layer(25)
    x = np.array([0.3, 0.6])
    before = warp_point(layer, x)
    original = layer.Yg[0, 0]

    layer.Yg[0, 0] = original + 0.5
    refit(layer)
    changed = warp_point(layer, x)
    assert np.any(changed.mean != before.mean)

    layer.Yg[0, 0] = original
    refit(layer)
    restored = warp_point(layer, x)
    np.testing.assert_array_equal(restored.mean, before.mean)
    np.testing.assert_array_equal(restored.var, before.var)
