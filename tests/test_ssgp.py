"""Weight-space regression core against dense function-space oracles.

The oracles here are written independently in terms of the N x N kernel
matrix K = Phi Phi^T: predictive moments by direct solves against K + noise*I
and the evidence by the dense Gaussian log density. The module under test
works entirely in the 2M-dimensional weight space; agreement between the two
is the main correctness statement.
"""

import numpy as np
import pytest

import sswim.autodiff as ad
from sswim import ssgp
from sswim.features import SpectralBasis, feature_map, make_basis


def dense_predict(phi_train, y, noise_var, phi_star):
    """Function-space predictive moments from the dense Gram of the data."""
    G = phi_train @ phi_train.T + noise_var * np.eye(len(phi_train))
    k_star = phi_train @ phi_star
    sol = np.linalg.solve(G, k_star)
    mean = sol @ y
    var = phi_star @ phi_star - k_star @ sol
    return mean, var


def nlml(basis, phi, y, noise_var):
    return float(ssgp.posterior_nlml(ssgp.fit_from_features(basis, phi, y, noise_var)))


def dense_nlml(phi_train, y, noise_var):
    """Direct N x N Gaussian negative log density at zero mean."""
    n = len(phi_train)
    G = phi_train @ phi_train.T + noise_var * np.eye(n)
    sign, logdet = np.linalg.slogdet(G)
    assert sign > 0
    y = np.atleast_2d(y.T).T  # (N, P)
    total = 0.0
    for col in y.T:
        total += 0.5 * col @ np.linalg.solve(G, col) + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi)
    return total


def toy_problem(seed, n=30, M=8, D=2, p=1, family="rbf", noise_var=0.05):
    rng = np.random.default_rng(seed)
    basis = make_basis(family, M, D, seed=rng.integers(1 << 31),
                       lengthscales=rng.uniform(0.5, 2.0, D),
                       amplitude=rng.uniform(0.5, 1.5))
    x = rng.uniform(-1, 1, (n, D))
    y = rng.standard_normal((n, p)) if p > 1 else rng.standard_normal(n)
    return basis, x, y, noise_var


# -- fit ---------------------------------------------------------------------


def test_fit_hand_case_single_frequency():
    # one frequency, x = 0 gives phi = [1, 0]; with y = 2 and unit noise the
    # Gram is diag(2, 1) and the weight mean is [1, 0]
    basis = SpectralBasis("rbf", 1, 1, np.array([[1.0]]), np.array([1.0]), 1.0)
    post = ssgp.fit(basis, np.array([[0.0]]), np.array([2.0]), noise_var=1.0)
    np.testing.assert_allclose(post.gram, np.diag([2.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(post.A_factor @ post.A_factor.T, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(post.alpha, [1.0, 0.0], atol=1e-15)


def test_posterior_invariants():
    basis, x, y, noise_var = toy_problem(0, n=25, M=10)
    post = ssgp.fit(basis, x, y, noise_var)
    recon = post.A_factor @ post.A_factor.T
    assert np.max(np.abs(recon - post.gram)) <= 1e-8 * np.max(np.abs(post.gram))
    proj = feature_map(basis, x).T @ y
    residual = post.gram @ post.alpha - proj
    assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(proj))


def test_fit_prior_reversion_at_huge_noise():
    basis, x, y, _ = toy_problem(1, n=20, M=8)
    post = ssgp.fit(basis, x, y, noise_var=1e12)
    rng = np.random.default_rng(2)
    feat = feature_map(basis, rng.uniform(-1, 1, (10, 2)))
    mean, _ = ssgp.predict(post, feat)
    assert np.max(np.abs(mean)) <= 1e-4


def test_fit_matches_dense_oracle():
    basis, x, y, noise_var = toy_problem(3, n=40, M=16, D=2)
    post = ssgp.fit(basis, x, y, noise_var)
    phi = feature_map(basis, x)
    rng = np.random.default_rng(4)
    for _ in range(10):
        xs = rng.uniform(-1, 1, 2)
        fs = feature_map(basis, xs)
        mean, var = ssgp.predict(post, fs)
        # latent variance in weight space is noise_var * f A^-1 f
        want_mean, want_var = dense_predict(phi, y, noise_var, fs)
        assert mean == pytest.approx(want_mean, rel=1e-8, abs=1e-12)
        assert var == pytest.approx(want_var, rel=1e-8, abs=1e-12)


def test_fit_is_deterministic():
    basis, x, y, noise_var = toy_problem(5)
    a = ssgp.fit(basis, x, y, noise_var)
    b = ssgp.fit(basis, x, y, noise_var)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.A_factor, b.A_factor)


def test_fit_validation_errors():
    basis, x, y, _ = toy_problem(6, n=10, M=4)
    with pytest.raises(ValueError, match="noise_var"):
        ssgp.fit(basis, x, y, noise_var=0.0)
    with pytest.raises(ad.NonFiniteError, match="feature matrix"):
        ssgp.fit_from_features(basis, np.full((3, 8), np.nan), np.zeros(3), 0.1)
    with pytest.raises(ad.NonFiniteError, match="targets"):
        ssgp.fit_from_features(basis, np.zeros((3, 8)), np.array([1.0, np.inf, 0.0]), 0.1)
    with pytest.raises(ValueError, match="targets have shape"):
        ssgp.fit_from_features(basis, np.zeros((3, 8)), np.zeros(4), 0.1)
    with pytest.raises(ValueError, match="basis provides"):
        ssgp.fit_from_features(basis, np.zeros((3, 6)), np.zeros(3), 0.1)


# -- predict -----------------------------------------------------------------


def test_predict_zero_features():
    basis, x, y, noise_var = toy_problem(7, n=10, M=4)
    post = ssgp.fit(basis, x, y, noise_var)
    mean, var = ssgp.predict(post, np.zeros(8))
    assert mean == 0.0
    assert var == 0.0


def test_predict_interpolates_at_tiny_noise():
    rng = np.random.default_rng(8)
    basis = make_basis("rbf", 16, 1, seed=9, lengthscales=0.5)
    x = rng.uniform(0, 3, (20, 1))  # N=20 <= 2M=32
    y = np.sin(x[:, 0])
    post = ssgp.fit(basis, x, y, noise_var=1e-8)
    mean, _ = ssgp.predict(post, feature_map(basis, x))
    assert np.max(np.abs(mean - y)) <= 1e-3


def test_predict_variance_positive_for_nonzero_features():
    basis, x, y, noise_var = toy_problem(9, n=15, M=6)
    post = ssgp.fit(basis, x, y, noise_var)
    rng = np.random.default_rng(10)
    for _ in range(20):
        feat = feature_map(basis, rng.uniform(-2, 2, 2))
        _, var = ssgp.predict(post, feat)
        assert var > 0


def test_predict_variance_nonnegative_on_near_singular_gram():
    # repeated inputs, N < 2M and noise 1e-14 leave the Gram near singular
    rng = np.random.default_rng(13)
    basis = make_basis("rbf", 20, 1, seed=14, lengthscales=0.3)
    x = np.repeat(rng.uniform(0, 1, (4, 1)), 3, axis=0)
    post = ssgp.fit(basis, x, np.sin(x[:, 0]), noise_var=1e-14)
    assert np.linalg.cond(post.gram) > 1e10
    xs = np.concatenate([x, rng.uniform(-1, 2, (200, 1))])
    _, var = ssgp.predict(post, feature_map(basis, xs))
    assert np.all(np.isfinite(var)) and np.all(var >= 0)


def test_predict_multi_output_shares_variance():
    basis, x, y, noise_var = toy_problem(12, n=20, M=8, p=3)
    post = ssgp.fit(basis, x, y, noise_var)
    feat = feature_map(basis, np.array([0.1, -0.2]))
    mean, var = ssgp.predict(post, feat)
    assert mean.shape == (3,)
    assert np.ndim(var) == 0
    phi = feature_map(basis, x)
    for p in range(3):
        want_mean, want_var = dense_predict(phi, y[:, p], noise_var, feat)
        assert mean[p] == pytest.approx(want_mean, rel=1e-8, abs=1e-12)
        assert var == pytest.approx(want_var, rel=1e-8)


# -- evidence ----------------------------------------------------------------


def test_nlml_zero_targets_closed_form():
    basis, x, _, noise_var = toy_problem(13, n=12, M=4)
    phi = feature_map(basis, x)
    got = nlml(basis, phi, np.zeros(12), noise_var)
    gram = phi.T @ phi + noise_var * np.eye(8)
    want = (0.5 * np.linalg.slogdet(gram)[1] - 4 * np.log(noise_var)
            + 6 * np.log(2 * np.pi * noise_var))
    assert got == pytest.approx(want, rel=1e-12)


def test_nlml_permutation_invariant():
    basis, x, y, noise_var = toy_problem(14, n=18, M=6)
    phi = feature_map(basis, x)
    base = nlml(basis, phi, y, noise_var)
    rng = np.random.default_rng(15)
    for _ in range(5):
        perm = rng.permutation(18)
        assert abs(nlml(basis, phi[perm], y[perm], noise_var) - base) <= 1e-10


def test_nlml_matches_dense_oracle():
    basis, x, y, noise_var = toy_problem(16, n=20, M=4)
    phi = feature_map(basis, x)
    assert nlml(basis, phi, y, noise_var) == pytest.approx(
        dense_nlml(phi, y, noise_var), abs=1e-6)


def test_nlml_prefers_residual_scale_noise():
    # evidence should favor a noise level near the residual variance over one
    # 100x larger, on data the basis can actually represent
    rng = np.random.default_rng(17)
    basis = make_basis("rbf", 24, 1, seed=18, lengthscales=0.8)
    x = rng.uniform(-2, 2, (100, 1))
    y = np.sin(2 * x[:, 0]) + 0.05 * rng.standard_normal(100)
    phi = feature_map(basis, x)
    post = ssgp.fit(basis, x, y, 0.05 ** 2)
    mean, _ = ssgp.predict(post, phi)
    resid_var = float(np.var(y - mean))
    assert nlml(basis, phi, y, resid_var) < nlml(basis, phi, y, 100 * resid_var)


def test_weight_function_space_duality():
    # many random small instances, multi-output included
    rng = np.random.default_rng(19)
    for case in range(50):
        n = int(rng.integers(5, 41))
        M = int(rng.integers(2, 33))
        D = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        family = ("rbf", "matern32")[case % 2]
        noise_var = float(rng.uniform(0.01, 0.5))
        basis = make_basis(family, M, D, seed=int(rng.integers(1 << 31)),
                           lengthscales=rng.uniform(0.4, 2.0, D))
        x = rng.uniform(-1, 1, (n, D))
        y = rng.standard_normal((n, p)) if p > 1 else rng.standard_normal(n)
        phi = feature_map(basis, x)
        post = ssgp.fit(basis, x, y, noise_var)

        xs = rng.uniform(-1, 1, D)
        fs = feature_map(basis, xs)
        mean, var = ssgp.predict(post, fs)
        dense_means = []
        for col in (y.T if p > 1 else [y]):
            m, v = dense_predict(phi, col, noise_var, fs)
            dense_means.append(m)
        dense_mean = np.array(dense_means) if p > 1 else dense_means[0]
        assert np.max(np.abs(np.asarray(mean) - dense_mean)) <= 1e-6
        assert abs(var - v) <= 1e-6

        want = dense_nlml(phi, y, noise_var)
        assert abs(float(ssgp.posterior_nlml(post)) - want) <= 1e-6
