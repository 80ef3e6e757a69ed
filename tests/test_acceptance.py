"""Acceptance gate: one test per advertised guarantee, at its stated tolerance.

A verbose run reads as a pass/fail scorecard for the package contract. Checks
that need UCI CSV files skip with the expected path when the files are absent;
drop the named file under data/ to activate them.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import sswim.autodiff as ad
from sswim import ssgp
from sswim.cli import main
from sswim.data import load_from_manifest, split, standardize, subsample
from sswim.features import (FAMILIES, GaussianInput, SpectralBasis,
                            expected_feature_map, feature_map, make_basis)
from sswim.metrics import mnlp, rmse
from sswim.model import build_model, fd_gradient, objective, predict_f, value_and_gradient
from sswim.synthetic import SyntheticSpec, gen
from sswim.train import TrainConfig, train
from sswim.warp_stack import WarpStack, propagate
from sswim.warping import WarpInit, draw_warp_layer, refit, warp_point

ROOT = Path(__file__).resolve().parents[1]


def _dataset_or_skip(name):
    csv_path = ROOT / "data" / f"{name}.csv"
    if not csv_path.exists():
        pytest.skip(f"{csv_path} not present; place the {name} CSV there to run this check")
    return load_from_manifest(ROOT / "manifests" / f"{name}.manifest")


def _fresh(child):
    # rebuild the same spawn-stream so both methods see identical seeds
    return np.random.SeedSequence(child.entropy, spawn_key=child.spawn_key)


def test_01_expected_features_match_monte_carlo():
    started = time.perf_counter()
    n = 1_000_000
    rng = np.random.default_rng(101)
    for case in range(50):
        family = FAMILIES[case % 2]
        D = int(rng.integers(1, 4))
        M = int(rng.integers(2, 6))
        basis = make_basis(family, M, D, seed=int(rng.integers(1 << 30)),
                           lengthscales=rng.uniform(0.4, 2.0, D),
                           amplitude=float(rng.uniform(0.5, 2.0)))
        gi = GaussianInput(rng.normal(0.0, 1.0, D), rng.uniform(0.05, 1.5, D))
        want = expected_feature_map(basis, gi)
        z = gi.mean + np.sqrt(gi.var) * rng.standard_normal((n, D))
        feats = feature_map(basis, z)
        se = feats.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(want - feats.mean(axis=0)) <= 4.0 * se)
    assert time.perf_counter() - started < 120.0


def test_02_single_warp_moments_match_monte_carlo():
    started = time.perf_counter()
    n = 1_000_000
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        D = int(rng.integers(1, 4))
        layer = refit(draw_warp_layer(
            -np.ones(D), 2.0 * np.ones(D),
            WarpInit(int(rng.integers(4, 12)), sigma_gamma=0.3, seed=seed),
            (make_basis("rbf", 6, D, seed=seed + 900),
             make_basis("rbf", 6, D, seed=seed + 901))))
        x = rng.uniform(-1.0, 2.0, D)
        out = warp_point(layer, x)
        g_mean, g_var = ssgp.predict(layer.g_post, feature_map(layer.g_basis, x))
        h_mean, h_var = ssgp.predict(layer.h_post, feature_map(layer.h_basis, x))
        g = g_mean + np.sqrt(g_var) * rng.standard_normal((n, D))
        h = h_mean + np.sqrt(h_var) * rng.standard_normal((n, D))
        m = g * x + h
        se_mean = m.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(out.mean - m.mean(axis=0)) <= 4.0 * se_mean)
        sample_var = m.var(axis=0, ddof=1)
        # linear in Gaussians, so the output is Gaussian: chi-square error law
        se_var = sample_var * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(out.var - sample_var) <= 4.0 * se_var)
    assert time.perf_counter() - started < 120.0


def test_03_two_layer_propagation_matches_nested_monte_carlo():
    n = 200_000
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        D = int(rng.integers(1, 3))

        def mk(s):
            return refit(draw_warp_layer(
                np.zeros(D), np.ones(D), WarpInit(8, sigma_gamma=0.25, seed=s),
                (make_basis("rbf", 5, D, seed=s + 50),
                 make_basis("rbf", 5, D, seed=s + 60))))

        stack = WarpStack([mk(seed * 2 + 1), mk(seed * 2 + 2)])
        x = rng.uniform(0.0, 1.0, D)
        out = propagate(stack, x)

        # sample the exact layer-1 law, then layer 2 with moments frozen at
        # the same expected-feature evaluation the module uses
        gi1 = warp_point(stack.layers[0], x)
        l2 = stack.layers[1]
        g_mean, s_g = ssgp.predict(l2.g_post, expected_feature_map(l2.g_basis, gi1))
        h_mean, s_h = ssgp.predict(l2.h_post, expected_feature_map(l2.h_basis, gi1))
        x1 = gi1.mean + np.sqrt(gi1.var) * rng.standard_normal((n, D))
        g = g_mean + np.sqrt(s_g) * rng.standard_normal((n, D))
        h = h_mean + np.sqrt(s_h) * rng.standard_normal((n, D))
        m = g * x1 + h

        se_mean = m.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(out.mean - m.mean(axis=0)) <= 4.0 * se_mean)
        sample_var = m.var(axis=0, ddof=1)
        centered = m - m.mean(axis=0)
        se_var = np.sqrt((np.mean(centered ** 4, axis=0) - sample_var ** 2) / n)
        assert np.all(np.abs(out.var - sample_var) <= 4.0 * se_var)


def test_04_weight_space_matches_dense_function_space():
    rng = np.random.default_rng(4040)
    for case in range(50):
        N = int(rng.integers(3, 41))
        M = int(rng.integers(1, 33))
        D = int(rng.integers(1, 4))
        P = int(rng.integers(1, 3))
        basis = make_basis(FAMILIES[case % 2], M, D, seed=int(rng.integers(1 << 30)),
                           lengthscales=rng.uniform(0.5, 2.0, D),
                           amplitude=float(rng.uniform(0.5, 1.5)))
        x = rng.normal(0.0, 1.0, (N, D))
        y = rng.normal(0.0, 1.0, (N, P))
        noise_var = float(rng.uniform(0.05, 0.5))
        post = ssgp.fit(basis, x, y, noise_var)

        xs = rng.normal(0.0, 1.0, (7, D))
        mu, var = ssgp.predict(post, feature_map(basis, xs))

        phi = feature_map(basis, x)
        phis = feature_map(basis, xs)
        K = phi @ phi.T + noise_var * np.eye(N)
        cross = phis @ phi.T
        mu_dense = cross @ np.linalg.solve(K, y)
        var_dense = np.sum(phis * phis, axis=1) - np.sum(
            cross * np.linalg.solve(K, cross.T).T, axis=1)
        assert np.max(np.abs(mu - mu_dense)) <= 1e-6
        assert np.max(np.abs(var - var_dense)) <= 1e-6

        sign, logdet = np.linalg.slogdet(K)
        quad = np.sum(y * np.linalg.solve(K, y))
        nlml_dense = 0.5 * quad + P * (0.5 * logdet + 0.5 * N * np.log(2.0 * np.pi))
        assert abs(ssgp.posterior_nlml(post, y) - nlml_dense) <= 1e-6


def test_05_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    x = rng.uniform(-1.0, 1.0, (12, 2))
    y = np.sin(x @ np.array([1.3, -0.7]))[:, None]
    model = build_model(x, n_layers=1, M=8, M_w=8, n_pseudo=4, seed=3)
    g = value_and_gradient(model, x, y)[1]
    fd = fd_gradient(model, x, y)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-6)
    assert np.max(np.abs(g - fd) / denom) <= 1e-4


def test_06_depth_zero_reduces_to_stationary_baseline():
    rng = np.random.default_rng(66)
    x = rng.uniform(-1.0, 1.0, (25, 1))
    y = np.sin(2.5 * x) + 0.05 * rng.standard_normal((25, 1))
    model = build_model(x, n_layers=0, M=10, lengthscale=0.8, noise_var=0.05, seed=5)
    segments = {s.name: (s.start, s.stop, s.shape) for s in model.schema}

    def plain_value_and_grad(theta):
        theta_t = ad.Tensor(theta)

        def seg(name):
            start, stop, shape = segments[name]
            return ad.exp(ad.reshape(ad.take(theta_t, slice(start, stop)), shape))

        basis = SpectralBasis(model.draws["top"], seg("top.lengthscales"),
                              seg("top.amplitude"))
        post = ssgp.fit_from_features(basis, feature_map(basis, x), y,
                                      seg("top.noise_var"))
        value = ssgp.posterior_nlml(post, y)
        value.backward()
        return float(value.value), theta_t.grad.reshape(-1)

    # shared starting point
    theta = model.theta.copy()
    value, grad = plain_value_and_grad(theta)
    assert abs(objective(model, x, y) - value) <= 1e-12

    # independent optimizer replay with the advertised Adam constants
    steps, lr, b1, b2, eps = 20, 0.01, 0.9, 0.999, 1e-8
    trajectory = [value]
    best_value, best_theta = value, theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, steps + 1):
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        value, grad = plain_value_and_grad(theta)
        trajectory.append(value)
        if value < best_value:
            best_value, best_theta = value, theta.copy()

    _, trace = train(model, x, y, TrainConfig(steps=steps, learning_rate=lr))
    assert np.max(np.abs(np.asarray(trace.objectives) - np.asarray(trajectory))) <= 1e-12
    assert abs(trace.best_objective - best_value) <= 1e-12

    # trained predictions agree with a stationary refit at the kept parameters
    ls, amp, nv = (np.exp(best_theta[slice(*segments[k][:2])])
                   for k in ("top.lengthscales", "top.amplitude", "top.noise_var"))
    basis = SpectralBasis(model.top_basis.base_draws, ls, amp.item())
    post = ssgp.fit(basis, x, y, nv.item())
    xs = np.linspace(-1.0, 1.0, 15)[:, None]
    mean, var = predict_f(model, xs)
    want_mean, want_var = ssgp.predict(post, feature_map(basis, xs))
    assert np.max(np.abs(mean - want_mean)) <= 1e-12
    assert np.max(np.abs(var - (want_var + nv.item()))) <= 1e-12


def test_07_depth_one_beats_stationary_on_chirp():
    started = time.perf_counter()
    dataset = gen(SyntheticSpec("steps_chirp_1d", 400, noise_std=0.05, seed=0))

    def run(child, depth):
        split_seed, model_seed = child.spawn(2)
        train_raw, test_raw = split(dataset, 0.8, split_seed)
        train_set, test_set, _ = standardize(train_raw, test_raw)
        model = build_model(train_set.X, n_layers=depth, M=100, n_pseudo=64,
                            lengthscale=0.7, warp_lengthscale=0.10,
                            noise_var=0.02, warp_noise_var=5e-3, seed=model_seed)
        model, _ = train(model, train_set.X, train_set.y,
                         TrainConfig(steps=150, learning_rate=0.02))
        mu, _ = predict_f(model, test_set.X)
        return rmse(test_set.y, mu)

    flat, warped = [], []
    for child in np.random.SeedSequence(0).spawn(10):
        flat.append(run(_fresh(child), 0))
        warped.append(run(_fresh(child), 1))
    assert np.mean(warped) <= 0.75 * np.mean(flat)
    assert time.perf_counter() - started < 600.0


def test_08_concrete_desk_scale_accuracy():
    dataset = _dataset_or_skip("concrete")
    started = time.perf_counter()
    scores, nlps = [], []
    for child in np.random.SeedSequence(0).spawn(10):
        split_seed, model_seed = child.spawn(2)
        train_raw, test_raw = split(dataset, 0.8, split_seed)
        train_set, test_set, _ = standardize(train_raw, test_raw)
        model = build_model(train_set.X, n_layers=1, M=256, n_pseudo=1280,
                            seed=model_seed)
        model, _ = train(model, train_set.X, train_set.y, TrainConfig(steps=150))
        mu, var = predict_f(model, test_set.X)
        scores.append(rmse(test_set.y, mu))
        nlps.append(mnlp(test_set.y, mu, var))
    assert np.mean(scores) <= 0.36
    assert np.all(np.isfinite(nlps))
    assert time.perf_counter() - started < 2700.0


def test_09_airfoil_depth_benefit():
    dataset = _dataset_or_skip("airfoil")

    def run(child, depth):
        split_seed, model_seed = child.spawn(2)
        train_raw, test_raw = split(dataset, 0.8, split_seed)
        train_set, test_set, _ = standardize(train_raw, test_raw)
        model = build_model(train_set.X, n_layers=depth, M=100, n_pseudo=64,
                            seed=model_seed)
        model, _ = train(model, train_set.X, train_set.y, TrainConfig(steps=150))
        mu, _ = predict_f(model, test_set.X)
        return rmse(test_set.y, mu)

    flat, warped = [], []
    for child in np.random.SeedSequence(0).spawn(10):
        flat.append(run(_fresh(child), 0))
        warped.append(run(_fresh(child), 1))
    assert np.mean(warped) < np.mean(flat)


def test_10_large_dataset_smoke():
    names = ("ct_slice", "supercond", "protein", "buzz", "song")
    present = [n for n in names if (ROOT / "data" / f"{n}.csv").exists()]
    if not present:
        missing = ", ".join(str(ROOT / "data" / f"{n}.csv") for n in names)
        pytest.skip(f"none of the large CSVs are present: {missing}")
    for name in present:
        dataset = subsample(load_from_manifest(ROOT / "manifests" / f"{name}.manifest"),
                            5000, seed=0)
        train_raw, test_raw = split(dataset, 0.8, 0)
        train_set, test_set, _ = standardize(train_raw, test_raw)
        model = build_model(train_set.X, n_layers=1, M=32, n_pseudo=16, seed=0)
        model, trace = train(model, train_set.X, train_set.y, TrainConfig(steps=2))
        assert not trace.diverged
        assert np.all(np.isfinite(trace.objectives))


def test_10_pipeline_on_a_generated_large_csv(tmp_path):
    # test_10's pipeline through a manifest, on a generated 20-column CSV
    # with a constant column, a dropped column and a log1p target
    rng = np.random.default_rng(10)
    n, d = 12_000, 17
    x = rng.standard_normal((n, d))
    columns = {f"x{j}": x[:, j] for j in range(d)}
    columns |= {"flat": np.full(n, 3.0), "row_id": np.arange(n),
                "count": np.expm1(2.0 + np.sin(x[:, :4]).sum(axis=1) + 0.1 * x[:, 4] ** 2)}
    np.savetxt(tmp_path / "big.csv", np.column_stack(list(columns.values())), delimiter=",",
               header=",".join(columns), comments="")
    manifest = tmp_path / "big.manifest"
    manifest.write_text("path = big.csv\ntarget = count\n"
                        "drop_columns = row_id\ntarget_transform = log1p\n")
    with pytest.warns(UserWarning, match=r"dropping constant column\(s\) \['flat'\]"):
        full = load_from_manifest(manifest)
    assert full.columns == [f"x{j}" for j in range(d)] and len(full) == n
    np.testing.assert_allclose(full.y, np.log1p(columns["count"]), rtol=1e-12)
    dataset = subsample(full, 5000, seed=0)
    assert dataset.X.shape == (5000, d)
    train_raw, test_raw = split(dataset, 0.8, 0)
    train_set, test_set, _ = standardize(train_raw, test_raw)
    model = build_model(train_set.X, n_layers=1, M=32, n_pseudo=16, seed=0)
    model, trace = train(model, train_set.X, train_set.y, TrainConfig(steps=2))
    assert not trace.diverged
    assert np.all(np.isfinite(trace.objectives))
    mean, var = predict_f(model, test_set.X)
    assert mean.shape == var.shape == (1000,)
    assert np.all(np.isfinite(mean)) and np.all(var > 0)


def test_11_overfit_trace_protocol_on_concrete(tmp_path):
    _dataset_or_skip("concrete")
    steps, repeats = 25, 2
    code = main(["overfit-trace", "--manifest", str(ROOT / "manifests" / "concrete.manifest"),
                 "--depth", "1", "--M", "64", "--n-pseudo", "64",
                 "--steps", str(steps), "--repeats", str(repeats),
                 "--output-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "concrete_overfit_trace.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == steps * repeats
    for r in range(repeats):
        indices = [int(row["step"]) for row in rows if row["repeat"] == str(r)]
        assert indices == list(range(1, steps + 1))
    for row in rows:
        for col in ("objective", "test_rmse", "test_mnlp"):
            assert np.isfinite(float(row[col]))
