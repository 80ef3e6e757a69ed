"""Trigonometric feature maps: sampling laws, closed forms, Monte Carlo oracles."""

import numpy as np
import pytest

from sswim.features import (GaussianInput, SpectralBasis, expected_feature_map,
                            feature_map, frequencies, make_basis, sample_frequencies)


def dirac(x):
    return GaussianInput(x, np.zeros_like(x))


def expected_kernel(basis, a, b):
    return float(expected_feature_map(basis, a) @ expected_feature_map(basis, b))


def test_sample_frequencies_deterministic():
    a = sample_frequencies("rbf", 4, 2, seed=7)
    b = sample_frequencies("rbf", 4, 2, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4, 2)


def test_sample_frequencies_rbf_law_of_large_numbers():
    draws = sample_frequencies("rbf", 100_000, 1, seed=3)
    assert abs(draws.mean()) <= 4.0 / np.sqrt(100_000)
    assert abs(draws.var() - 1.0) <= 0.05


def test_sample_frequencies_matern32_heavy_tails():
    draws = sample_frequencies("matern32", 100_000, 1, seed=5).ravel()
    centered = draws - draws.mean()
    excess_kurtosis = np.mean(centered ** 4) / np.mean(centered ** 2) ** 2 - 3.0
    assert excess_kurtosis > 0.0


def test_sample_frequencies_validation():
    with pytest.raises(ValueError, match="family"):
        sample_frequencies("laplace", 4, 1, seed=0)
    with pytest.raises(ValueError):
        sample_frequencies("rbf", 0, 1, seed=0)
    with pytest.raises(ValueError):
        sample_frequencies("rbf", 4, 0, seed=0)


def test_make_basis_broadcasts_and_validates():
    basis = make_basis("rbf", 8, 3, seed=0, lengthscales=0.5)
    np.testing.assert_array_equal(basis.lengthscales, [0.5, 0.5, 0.5])
    assert basis.n_features == 16
    with pytest.raises(ValueError, match="positive"):
        make_basis("rbf", 8, 3, seed=0, lengthscales=-1.0)
    with pytest.raises(ValueError, match="positive"):
        make_basis("rbf", 8, 3, seed=0, amplitude=0.0)


def test_feature_map_zero_input():
    basis = make_basis("rbf", 16, 2, seed=1)
    phi = feature_map(basis, np.zeros(2))
    np.testing.assert_array_equal(phi[:16], np.full(16, 1.0 / np.sqrt(16)))
    np.testing.assert_array_equal(phi[16:], np.zeros(16))
    assert phi @ phi == pytest.approx(1.0, rel=1e-12)


def test_feature_map_norm_equals_amplitude_squared():
    rng = np.random.default_rng(2)
    basis = make_basis("matern32", 32, 3, seed=9, lengthscales=[0.3, 1.0, 2.5],
                       amplitude=1.7)
    for _ in range(10):
        phi = feature_map(basis, rng.standard_normal(3))
        assert phi @ phi == pytest.approx(1.7 ** 2, rel=1e-12)


def test_feature_map_single_frequency_analytic_case():
    basis = SpectralBasis("rbf", 1, 1, np.array([[1.0]]), np.array([1.0]), 1.0)
    phi = feature_map(basis, np.array([np.pi / 2]))
    np.testing.assert_allclose(phi, [0.0, 1.0], atol=1e-15)


def test_feature_map_batched_rows_match_single_points():
    rng = np.random.default_rng(4)
    basis = make_basis("rbf", 8, 2, seed=11)
    X = rng.standard_normal((5, 2))
    batch = feature_map(basis, X)
    assert batch.shape == (5, 16)
    for i in range(5):
        np.testing.assert_allclose(batch[i], feature_map(basis, X[i]), rtol=1e-12)


def test_feature_map_dimension_mismatch():
    basis = make_basis("rbf", 4, 3, seed=0)
    with pytest.raises(ValueError, match="trailing dimension"):
        feature_map(basis, np.zeros(2))


def test_lengthscale_covariance():
    # omega depends only on x / lengthscale, so (l, x) and (c*l, c*x) coincide
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2)
    for c in (0.1, 3.0, 17.0):
        a = make_basis("rbf", 16, 2, seed=3, lengthscales=[0.8, 1.4])
        b = make_basis("rbf", 16, 2, seed=3, lengthscales=[c * 0.8, c * 1.4])
        np.testing.assert_allclose(feature_map(a, x), feature_map(b, c * x), rtol=1e-12)


def test_doubling_lengthscales_halves_frequencies_exactly():
    a = make_basis("matern32", 16, 3, seed=21, lengthscales=[0.5, 1.0, 2.5])
    b = make_basis("matern32", 16, 3, seed=21, lengthscales=[1.0, 2.0, 5.0])
    np.testing.assert_array_equal(frequencies(b), frequencies(a) / 2.0)


def test_expected_feature_map_dirac_is_bit_equal():
    rng = np.random.default_rng(7)
    basis = make_basis("matern32", 12, 2, seed=13, lengthscales=[0.5, 2.0], amplitude=0.9)
    for _ in range(5):
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(expected_feature_map(basis, dirac(x)),
                                      feature_map(basis, x))


def test_expected_feature_map_zero_mean_symmetry():
    rng = np.random.default_rng(8)
    basis = make_basis("rbf", 10, 3, seed=17, amplitude=1.3)
    var = rng.uniform(0.1, 1.0, size=3)
    out = expected_feature_map(basis, GaussianInput(np.zeros(3), var))
    om = frequencies(basis)
    damp = np.exp(-0.5 * (om ** 2) @ var)
    np.testing.assert_allclose(out[:10], (1.3 / np.sqrt(10)) * damp, rtol=1e-12)
    np.testing.assert_array_equal(out[10:], np.zeros(10))


def test_expected_feature_map_monte_carlo_oracle():
    rng = np.random.default_rng(9)
    basis = make_basis("rbf", 3, 2, seed=19, lengthscales=[0.7, 1.2], amplitude=1.1)
    mean = rng.standard_normal(2)
    var = rng.uniform(0.05, 0.5, size=2)
    analytic = expected_feature_map(basis, GaussianInput(mean, var))

    n = 1_000_000
    samples = mean + np.sqrt(var) * rng.standard_normal((n, 2))
    proj = samples @ frequencies(basis).T
    scale = basis.amplitude / np.sqrt(basis.M)
    draws = scale * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)
    mc_mean = draws.mean(axis=0)
    mc_se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(analytic - mc_mean), 4.0 * mc_se)


def test_expected_feature_map_continuity_in_var():
    rng = np.random.default_rng(10)
    basis = make_basis("matern32", 20, 2, seed=23)
    x = rng.standard_normal(2)
    tiny = expected_feature_map(basis, GaussianInput(x, np.full(2, 1e-12)))
    exact = feature_map(basis, x)
    assert np.max(np.abs(tiny - exact)) <= 1e-8


def test_expected_feature_map_magnitude_monotone_in_var():
    rng = np.random.default_rng(11)
    basis = make_basis("rbf", 8, 2, seed=29)
    x = rng.standard_normal(2)
    var = rng.uniform(0.0, 0.3, size=2)
    base = np.abs(expected_feature_map(basis, GaussianInput(x, var)))
    for d in range(2):
        for bump in (0.1, 1.0):
            grown = var.copy()
            grown[d] += bump
            wider = np.abs(expected_feature_map(basis, GaussianInput(x, grown)))
            assert np.all(wider <= base + 1e-15)


def test_expected_feature_map_rejects_negative_var():
    basis = make_basis("rbf", 4, 1, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        expected_feature_map(basis, GaussianInput(np.zeros(1), np.array([-0.1])))


def test_expected_kernel_self_point_is_amplitude_squared():
    basis = make_basis("rbf", 16, 2, seed=31)
    a = dirac(np.array([0.3, -0.4]))
    assert expected_kernel(basis, a, a) == pytest.approx(1.0, rel=1e-12)


def test_expected_kernel_symmetry():
    rng = np.random.default_rng(12)
    basis = make_basis("matern32", 8, 2, seed=37)
    for _ in range(10):
        a = GaussianInput(rng.standard_normal(2), rng.uniform(0, 0.5, 2))
        b = GaussianInput(rng.standard_normal(2), rng.uniform(0, 0.5, 2))
        assert expected_kernel(basis, a, b) == pytest.approx(
            expected_kernel(basis, b, a), rel=1e-12, abs=1e-15)


def test_expected_kernel_uncertainty_shrinks_self_similarity():
    rng = np.random.default_rng(13)
    basis = make_basis("rbf", 16, 2, seed=41, amplitude=1.4)
    for _ in range(20):
        a = GaussianInput(rng.standard_normal(2), rng.uniform(0.01, 1.0, 2))
        assert expected_kernel(basis, a, a) < 1.4 ** 2


def test_rbf_kernel_approximation():
    # paired trig features estimate the exact rbf kernel to modest accuracy
    rng = np.random.default_rng(14)
    ell = np.array([0.7, 1.3])
    basis = make_basis("rbf", 4096, 2, seed=43, lengthscales=ell)
    for _ in range(100):
        x, z = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        approx = feature_map(basis, x) @ feature_map(basis, z)
        exact = np.exp(-0.5 * np.sum(((x - z) / ell) ** 2))
        assert abs(approx - exact) <= 0.05
