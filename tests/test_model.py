"""Joint model: parameter packing, objective oracles, gradients, serialization.

The heavyweight check is an independently coded straight-line evaluation of
the full objective (dense numpy only, no caches, no shared helpers) compared
against the module's value on small random instances.
"""

import base64
import json
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import sswim.autodiff as ad
import sswim.model as model_module
from sswim import ssgp
from sswim.features import SpectralBasis, expected_feature_map, feature_map
from sswim.model import (PREDICT_CHUNK_ROWS, SswimModel, _build_schema, apply_parameters,
                         build_model, fd_gradient, load, objective, predict_f, save,
                         value_and_gradient)
from sswim.train import TrainConfig, train
from sswim.warp_stack import propagate


def toy_data(seed, n=15, d=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = np.sin(x).sum(axis=1) + 0.1 * rng.standard_normal(n)
    return x, y


def straight_line_objective(model, x, y):
    """Independent full-objective evaluation in plain numpy.

    Re-derives everything from the model's materialized state: pseudo
    regressions, measure propagation, expected features, and the negative
    log evidence, with no calls into the package.
    """

    def feats(basis, pts):
        om = basis.base_draws / basis.lengthscales
        proj = pts @ om.T
        scale = basis.amplitude / np.sqrt(basis.M)
        return scale * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)

    def efeats(basis, mean, var):
        om = basis.base_draws / basis.lengthscales
        proj = mean @ om.T
        damp = np.exp(-0.5 * var @ (om ** 2).T)
        scale = basis.amplitude / np.sqrt(basis.M)
        return scale * np.concatenate([damp * np.cos(proj), damp * np.sin(proj)], axis=1)

    def regress(basis, X, Y, noise_var, F):
        Phi = feats(basis, X)
        A = Phi.T @ Phi + noise_var * np.eye(2 * basis.M)
        alpha = np.linalg.solve(A, Phi.T @ Y)
        mu = F @ alpha
        s = noise_var * np.sum(F * np.linalg.solve(A, F.T).T, axis=1)
        return mu, s

    mean, var = x, np.zeros_like(x)
    for j, layer in enumerate(model.stack.layers):
        if j == 0:
            Fg, Fh = feats(layer.g_basis, mean), feats(layer.h_basis, mean)
        else:
            Fg = efeats(layer.g_basis, mean, var)
            Fh = efeats(layer.h_basis, mean, var)
        mu_g, s_g = regress(layer.g_basis, layer.Xg, layer.Yg, layer.g_noise_var, Fg)
        mu_h, s_h = regress(layer.h_basis, layer.Xh, layer.Yh, layer.h_noise_var, Fh)
        s_g, s_h = s_g[:, None], s_h[:, None]
        mean, var = (mu_g * mean + mu_h,
                     var * s_g + var * mu_g ** 2 + s_g * mean ** 2 + s_h)

    F = efeats(model.top_basis, mean, var)
    nv = model.top_post.noise_var
    n, m2 = len(y), 2 * model.top_basis.M
    A = F.T @ F + nv * np.eye(m2)
    b = F.T @ y
    quad = y @ y - b @ np.linalg.solve(A, b)
    return (0.5 * quad / nv + 0.5 * np.linalg.slogdet(A)[1]
            - 0.5 * m2 * np.log(nv) + 0.5 * n * np.log(2 * np.pi * nv))


# -- parameter vector --------------------------------------------------------


def test_pack_apply_round_trip():
    x, _ = toy_data(0, n=20, d=2)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=5, seed=3)
    before = model.theta.copy()
    apply_parameters(model, before)
    np.testing.assert_array_equal(model.theta, before)
    # a perturbed vector survives the round trip too
    perturbed = before + 0.01 * np.arange(before.size)
    apply_parameters(model, perturbed)
    np.testing.assert_array_equal(model.theta, perturbed)


FITTED_FIELDS = ("stack", "top_basis", "top_post")


def test_apply_parameters_assembles_the_model_from_theta():
    # apply_parameters installs theta and clears the fit; the next objective
    # assembles every structure from the draws and that theta
    x, y = toy_data(3, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=6)
    objective(model, x, y)
    before = replace(model)
    theta = model.theta + 0.05 * np.cos(np.arange(model.theta.size))
    apply_parameters(model, theta)
    assert all(getattr(model, name) is None for name in FITTED_FIELDS)
    value = objective(model, x, y)
    seg = {s.name: theta[s.start:s.stop].reshape(s.shape) for s in model.schema}
    top = model.top_basis
    np.testing.assert_array_equal(top.lengthscales, np.exp(seg["top.lengthscales"]))
    assert top.amplitude == np.exp(seg["top.amplitude"])
    assert model.top_post.noise_var == np.exp(seg["top.noise_var"])
    assert top.base_draws is model.draws["top"]
    for j, layer in enumerate(model.stack.layers):
        for name in ("Xg", "Yg", "Xh", "Yh"):
            np.testing.assert_array_equal(getattr(layer, name), seg[f"layer{j}.{name}"])
        for fn in ("g", "h"):
            basis = getattr(layer, fn + "_basis")
            np.testing.assert_array_equal(basis.lengthscales,
                                          np.exp(seg[f"layer{j}.{fn}.lengthscales"]))
            assert basis.base_draws is model.draws[f"layer{j}.{fn}"]
            assert getattr(layer, fn + "_noise_var") == np.exp(seg[f"layer{j}.{fn}.noise_var"])
            assert getattr(layer, fn + "_post") is not None
    # a shallow copy taken before keeps its fit at the old theta
    assert before.top_post is not None and before.stack.layers[0].g_post is not None
    assert not np.array_equal(before.stack.layers[0].Xg, model.stack.layers[0].Xg)
    # the draws and theta alone determine the model: a copy still holding
    # the old fit evaluates the new theta to the same value
    assert objective(replace(before, theta=theta), x, y) == value


@pytest.mark.parametrize("depth", [0, 2])
def test_unfitted_model_holds_theta_alone(depth):
    x, y = toy_data(4, n=12, d=2)
    model = build_model(x, n_layers=depth, M=4, M_w=3, n_pseudo=4, seed=6)
    assert all(getattr(model, name) is None for name in FITTED_FIELDS)
    assert (model.input_dim, model.depth) == (2, depth)
    objective(model, x, y)
    assert all(getattr(model, name) is not None for name in FITTED_FIELDS)
    assert len(model.stack.layers) == depth and model.top_basis.D == 2
    apply_parameters(model, model.theta + 0.01)
    assert all(getattr(model, name) is None for name in FITTED_FIELDS)
    assert (model.input_dim, model.depth) == (2, depth)


def test_only_evaluations_and_load_assemble(tmp_path, monkeypatch):
    x, y = toy_data(5, n=12, d=2)
    calls, assemble = [], model_module._assemble

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(model_module, "_assemble", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return len(calls), out

    n_built, model = count(build_model, x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=6)
    assert n_built == 0
    assert count(apply_parameters, model, model.theta + 0.01)[0] == 0
    assert count(objective, model, x, y)[0] == 1
    assert count(value_and_gradient, model, x, y)[0] == 1
    assert count(predict_f, model, x)[0] == 0
    path = save(model, tmp_path / "model.json")
    assert count(load, path)[0] == 1


def test_assemble_returns_every_warp_layer_fitted():
    x, _ = toy_data(5, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=6)
    stack, _, _ = model_module._assemble(model, model_module._split(model, model.theta))
    assert len(stack.layers) == 2
    for layer in stack.layers:
        assert layer.g_post is not None and layer.h_post is not None


def test_schema_is_read_off_the_draws_not_stored(tmp_path):
    assert [f.name for f in fields(SswimModel)] == [
        "family", "draws", "n_pseudo", "sigma_gamma", "seed",
        "theta", "stack", "top_basis", "top_post"]
    x, y = toy_data(1, n=10, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=5, seed=0)
    want = _build_schema(2, 2, 5)
    assert model.schema == want
    objective(model, x, y)
    assert load(save(model, tmp_path / "model.json")).schema == want
    assert replace(model, theta=model.theta + 0.01).schema == want


def test_schema_covers_expected_segments():
    x, _ = toy_data(1, n=10, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=5, seed=0)
    names = [s.name for s in model.schema]
    assert names[:3] == ["top.lengthscales", "top.amplitude", "top.noise_var"]
    for j in range(2):
        for piece in ("g.lengthscales", "g.amplitude", "g.noise_var",
                      "h.lengthscales", "h.amplitude", "h.noise_var",
                      "Xg", "Yg", "Xh", "Yh"):
            assert f"layer{j}.{piece}" in names
    # positives are log-stored: applying the packed vector reproduces values
    assert model.theta.size == model.schema[-1].stop


def test_apply_parameters_validation():
    x, _ = toy_data(2, n=10)
    model = build_model(x, n_layers=0, M=4, seed=0)
    with pytest.raises(ValueError, match="schema expects"):
        apply_parameters(model, np.zeros(2))
    bad = model.theta.copy()
    bad[0] = np.nan
    with pytest.raises(ad.NonFiniteError, match="parameter vector"):
        apply_parameters(model, bad)


def test_build_model_validation():
    x, _ = toy_data(3, n=10)
    with pytest.raises(ValueError, match="2-D"):
        build_model(np.zeros(5))
    with pytest.raises(ValueError, match="n_layers"):
        build_model(x, n_layers=4)
    for bad in ({"noise_var": 0.0}, {"noise_var": np.nan}, {"warp_noise_var": np.inf}):
        with pytest.raises(ValueError, match="noise"):
            build_model(x, **bad)


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
def test_build_model_names_a_bad_x_train(bad, depth):
    x, _ = toy_data(3, n=10, d=2)
    if bad == "empty":
        x = x[:0]
    else:
        x[4, 1] = np.nan if bad == "nan" else -np.inf
    with pytest.raises(ValueError, match=rf"x_train of shape \({len(x)}, 2\)"):
        build_model(x, n_layers=depth, M=4, M_w=3, n_pseudo=4)


def test_build_model_accepts_seed_sequence():
    x, _ = toy_data(4, n=12)
    a = build_model(x, n_layers=1, M=4, M_w=3, n_pseudo=4, seed=5)
    b = build_model(x, n_layers=1, M=4, M_w=3, n_pseudo=4,
                    seed=np.random.SeedSequence(5))
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.draws["top"], b.draws["top"])


# -- objective ---------------------------------------------------------------


def test_objective_depth0_equals_plain_ssgp():
    x, y = toy_data(5, n=25)
    model = build_model(x, n_layers=0, M=8, seed=1)
    value = objective(model, x, y)  # which leaves the top basis and noise on the model
    plain = ssgp.posterior_nlml(ssgp.fit_from_features(
        model.top_basis, feature_map(model.top_basis, x), y, model.top_post.noise_var), y)
    assert value == plain


def test_depth0_gradient_runs_the_point_feature_map(monkeypatch):
    # with no warp layer the inputs stay points, so the top features take
    # the undamped path of feature_map
    x, y = toy_data(5, n=25)
    model = build_model(x, n_layers=0, M=8, seed=1)
    variances, trig_features = [], ad.trig_features

    def spy(x, om, scale, var=None):
        variances.append(var)
        return trig_features(x, om, scale, var)

    monkeypatch.setattr(ad, "trig_features", spy)
    value_and_gradient(model, x, y)
    assert variances == [None]


def test_objective_is_deterministic():
    x, y = toy_data(6, n=20)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=6, seed=2)
    assert objective(model, x, y) == objective(model, x, y)


def test_objective_matches_straight_line_oracle():
    x, y = toy_data(7, n=15, d=1)
    model = build_model(x, n_layers=1, M=4, M_w=4, n_pseudo=3, seed=3)
    got = objective(model, x, y)
    want = straight_line_objective(model, x, y)
    assert got == pytest.approx(want, abs=1e-8)


def test_objective_oracle_depth2():
    x, y = toy_data(8, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=4)
    got = objective(model, x, y)
    want = straight_line_objective(model, x, y)
    assert got == pytest.approx(want, abs=1e-8)


def test_objective_finite_at_initialization():
    for d, n_layers in ((1, 1), (2, 2), (3, 3)):
        x, y = toy_data(9 + d, n=30, d=d)
        model = build_model(x, n_layers=n_layers, M=8, M_w=6, n_pseudo=8, seed=d)
        assert np.isfinite(objective(model, x, y))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf noise variance below
def test_objective_names_failing_component():
    x, y = toy_data(13, n=10)
    model = build_model(x, n_layers=1, M=4, M_w=3, n_pseudo=4, seed=5)
    with pytest.raises(ad.NonFiniteError, match="top-level fit"):
        objective(model, x, np.full_like(y, np.nan))
    theta = model.theta.copy()
    theta[next(s.start for s in model.schema if s.name == "layer0.h.noise_var")] = 800.0
    apply_parameters(model, theta)
    with pytest.raises(ad.NonFiniteError, match="warp layer 0, h regressor: "):
        objective(model, x, y)


# -- gradient ----------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, (12, 2))
    y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(12)
    model = build_model(x, n_layers=1, M=8, M_w=8, n_pseudo=4, seed=6)
    grad = value_and_gradient(model, x, y)[1]
    fd = fd_gradient(model, x, y, rel_step=1e-5)
    assert grad.shape == fd.shape == model.theta.shape
    np.testing.assert_array_less(np.abs(grad - fd),
                                 np.maximum(1e-4 * np.abs(fd), 1e-6))


@settings(max_examples=10)
@given(depth=st.integers(0, 3), d=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_gradient_matches_finite_differences_at_every_depth(depth, d, seed):
    # depths 2 and 3 run the moment-matched warp_gaussian variance adjoints
    x, y = toy_data(seed, n=12, d=d)
    model = build_model(x, n_layers=depth, M=6, M_w=6, n_pseudo=4, seed=seed)
    grad = value_and_gradient(model, x, y)[1]
    fd = fd_gradient(model, x, y, rel_step=1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * max(1.0, np.max(np.abs(fd)))


def test_gradient_mode_value_agreement():
    x, y = toy_data(15, n=12)
    model = build_model(x, n_layers=1, M=4, M_w=4, n_pseudo=3, seed=7)
    value, grad = value_and_gradient(model, x, y)
    assert value == objective(model, x, y)
    assert np.all(np.isfinite(grad))


def test_value_and_gradient_leaves_the_model_fitted_like_objective():
    # the fitted structures are installed before the backward pass drops the
    # tape's interior values; depth 2 takes the warp_gaussian path too
    x, y = toy_data(15, n=12, d=2)
    traced = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=3, seed=7)
    plain = replace(traced)
    value_and_gradient(traced, x, y)
    objective(plain, x, y)
    xs = np.random.default_rng(3).uniform(-1.5, 1.5, (20, 2))
    for got, want in zip(predict_f(traced, xs), predict_f(plain, xs)):
        assert got.tobytes() == want.tobytes()


def test_fd_gradient_leaves_the_model_untouched(forward_passes):
    x, y = toy_data(16, n=10)
    model = build_model(x, n_layers=1, M=4, M_w=3, n_pseudo=3, seed=8)
    objective(model, x, y)
    before = {f.name: getattr(model, f.name) for f in fields(model)}
    theta = model.theta.copy()
    forward_passes.clear()
    fd_gradient(model, x, y, rel_step=1e-5)
    # two probes per coordinate and no other pass
    assert len(forward_passes) == 2 * model.theta.size
    assert all(getattr(model, name) is value for name, value in before.items())
    np.testing.assert_array_equal(model.theta, theta)


def posteriors(x):
    """Every posterior in a tree of dataclasses, lists and tuples."""
    if isinstance(x, ssgp.SsgpPosterior):
        return [x]
    if isinstance(x, (list, tuple)):
        return [p for v in x for p in posteriors(v)]
    if is_dataclass(x):
        return [p for f in fields(x) for p in posteriors(getattr(x, f.name))]
    return []


def test_evaluations_leave_no_gram_on_the_model(tmp_path):
    # a held posterior is its weights, factor and noise variance; the Gram
    # and Phi^T y serve only the fit's own evidence
    x, y = toy_data(17, n=12)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=3, seed=10)
    for evaluate in (objective, value_and_gradient,
                     lambda m, x, y: train(m, x, y, TrainConfig(steps=2)),
                     lambda m, x, y: load(save(m, tmp_path / "model.json"))):
        held = evaluate(model, x, y)
        held = held if isinstance(held, type(model)) else model
        found = posteriors(held)
        assert len(found) == 1 + 2 * held.depth
        assert all(p.gram is None and p.proj_y is None for p in found)
        assert not isinstance(held.top_post.noise_var, ad.Tensor)


def test_gradient_stationary_in_preoptimized_noise_coordinate():
    x, y = toy_data(17, n=20)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=4, seed=9)
    idx = next(s.start for s in model.schema if s.name == "top.noise_var")
    base = model.theta.copy()

    def along(t):
        probe = base.copy()
        probe[idx] = t
        apply_parameters(model, probe)
        return objective(model, x, y)

    best = minimize_scalar(along, bounds=(base[idx] - 6, base[idx] + 6),
                           method="bounded", options={"xatol": 1e-12})
    probe = base.copy()
    probe[idx] = best.x
    apply_parameters(model, probe)
    assert abs(value_and_gradient(model, x, y)[1][idx]) <= 1e-4


@pytest.mark.xfail(strict=True, reason="trigonometric features are almost-periodic rather than local, so a pseudo input far outside the data box still moves the warp surface inside it and keeps a nonzero gradient")
def test_gradient_vanishes_for_distant_pseudo_input():
    rng = np.random.default_rng(18)
    x = rng.uniform(0, 1, (15, 1))
    y = np.sin(3 * x[:, 0])
    model = build_model(x, n_layers=1, M=6, M_w=6, n_pseudo=4, seed=10,
                        lengthscale=0.2)
    seg = next(s for s in model.schema if s.name == "layer0.Xg")
    probe = model.theta.copy()
    probe[seg.start] = 50.0  # far outside [0, 1]
    apply_parameters(model, probe)
    assert abs(value_and_gradient(model, x, y)[1][seg.start]) <= 1e-6


# -- identity-warp equivalence ----------------------------------------------


def plain_ssgp_value_and_grad(model, x, y):
    """Trace only the stationary regressor through the tape, no warp code."""
    # one tape leaf per segment; the gradient is theirs in packed order
    leaves = {s.name: ad.Tensor(model.theta[s.start:s.stop].reshape(s.shape))
              for s in model.schema}
    seg = {name: ad.exp(leaf) for name, leaf in leaves.items()}
    basis = SpectralBasis(model.draws["top"], seg["top.lengthscales"], seg["top.amplitude"])
    post = ssgp.fit_from_features(basis, feature_map(basis, x), y, seg["top.noise_var"])
    value = ssgp.posterior_nlml(post, y)
    value.backward()
    return float(value.value), np.concatenate([leaf.grad.ravel() for leaf in leaves.values()])


def test_depth0_model_is_plain_ssgp_end_to_end():
    x, y = toy_data(19, n=30)
    model = build_model(x, n_layers=0, M=8, seed=11)
    want_value, want_grad = plain_ssgp_value_and_grad(model, x, y)
    value, grad = value_and_gradient(model, x, y)
    assert abs(value - want_value) <= 1e-12
    assert np.max(np.abs(grad - want_grad)) <= 1e-12

    post = ssgp.fit(model.top_basis, x, y, model.top_post.noise_var)
    xs = np.linspace(-1, 1, 9)[:, None]
    mean, var = predict_f(model, xs)
    want_mean, want_var = ssgp.predict(post, feature_map(model.top_basis, xs))
    np.testing.assert_allclose(mean, want_mean, atol=1e-12)
    np.testing.assert_allclose(var, want_var + model.top_post.noise_var, atol=1e-12)


# -- factorizations -----------------------------------------------------------


def test_one_factorization_per_gram(tmp_path, monkeypatch):
    x, y = toy_data(24, n=12, d=2)
    calls = []
    counted = ad.chol_psd

    def counting(A):
        calls.append(1)
        return counted(A)

    monkeypatch.setattr(ad, "chol_psd", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return len(calls), out

    n_built, model = count(build_model, x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=16)
    assert n_built == 0  # a fit happens only in an evaluation or in load
    n_grams = 1 + 2 * model.depth
    assert count(apply_parameters, model, model.theta + 0.01)[0] == 0
    assert count(objective, model, x, y)[0] == n_grams
    assert count(predict_f, model, x)[0] == 0
    assert count(value_and_gradient, model, x, y)[0] == n_grams
    path = save(model, tmp_path / "model.json")
    # the document keeps the top factor, so load refits only the warp Grams
    assert count(load, path)[0] == 2 * model.depth


def test_one_triangular_inverse_per_posterior(tmp_path, monkeypatch):
    # a posterior inverts its factor on its first prediction and keeps the
    # inverse; a held or saved model carries no inverse as a field
    x, y = toy_data(24, n=12, d=2)
    calls = []
    inverse = ad.dtrtri

    def counting(L, **kwargs):
        calls.append(1)
        return inverse(L, **kwargs)

    monkeypatch.setattr(ad, "dtrtri", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return len(calls), out

    n_built, model = count(build_model, x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=16)
    assert n_built == 0
    n_posteriors = 1 + 2 * model.depth
    assert count(apply_parameters, model, model.theta + 0.01)[0] == 0
    # one per warp variance on the tape and the top evidence's A^-1
    assert count(value_and_gradient, model, x, y)[0] == n_posteriors
    before = save(model, tmp_path / "before.json").read_bytes()
    n_first, first = count(predict_f, model, x)
    n_again, again = count(predict_f, model, x)
    assert (n_first, n_again) == (n_posteriors, 0)
    for cached, uncached in zip(again, first):
        assert np.array_equal(cached, uncached)
    path = save(model, tmp_path / "after.json")
    assert path.read_bytes() == before
    n_loaded, loaded = count(load, path)
    assert n_loaded == 0
    assert count(predict_f, loaded, x)[0] == n_posteriors
    assert count(predict_f, loaded, x)[0] == 0
    assert [f.name for f in fields(ssgp.SsgpPosterior)] == [
        "alpha", "A_factor", "noise_var", "gram", "proj_y"]


@pytest.mark.parametrize("depth, limit", [(0, 15), (1, 67), (2, 125)])
def test_tape_nodes_per_gradient_at_the_chirp_shape(depth, limit, monkeypatch):
    # test_07's shape: each fit's Gram is one node and the top evidence
    # another, where separate transpose, matmul and scalar nodes need 51 and
    # 127; plain inputs (data, identity matrices) are not nodes, where lifting
    # them onto the tape as constants made 25, 99 and 177; each theta segment
    # is its own leaf, where cutting one flat theta leaf apart (a take and a
    # reshape node per segment) made 19, 81 and 149
    x, y = toy_data(25, n=320, d=1)
    model = build_model(x, n_layers=depth, M=100, n_pseudo=64, seed=7)
    sizes = []
    backward = ad.Tensor.backward

    def counting(root):
        sizes.append(len(ad._topo_order(root)))
        return backward(root)

    monkeypatch.setattr(ad.Tensor, "backward", counting)
    value_and_gradient(model, x, y)
    assert len(sizes) == 1 and sizes[0] <= limit


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_gradient_tape_has_one_leaf_per_theta_segment(depth, monkeypatch):
    # the tape starts at theta's named segments, not at one flat theta that
    # it cuts apart again, and the gradient is their gradients packed
    x, y = toy_data(26, n=12, d=2)
    model = build_model(x, n_layers=depth, M=4, M_w=3, n_pseudo=4, seed=8)
    splits, tape_leaves = [], []
    split, backward = model_module._split, ad.Tensor.backward

    def recording_split(*args):
        splits.append(split(*args))
        return splits[-1]

    def recording_backward(root):
        tape_leaves.extend(node for node in ad._topo_order(root) if not node.parents)
        return backward(root)

    monkeypatch.setattr(model_module, "_split", recording_split)
    monkeypatch.setattr(ad.Tensor, "backward", recording_backward)
    _, grad = value_and_gradient(model, x, y)
    (leaves,) = splits
    assert list(leaves) == [s.name for s in model.schema]
    assert len(tape_leaves) == len(model.schema)
    assert {id(t) for t in tape_leaves} == {id(t) for t in leaves.values()}
    for s in model.schema:
        assert leaves[s.name].grad.shape == s.shape
    grads = {name: leaf.grad for name, leaf in leaves.items()}
    np.testing.assert_array_equal(model_module._join(model, grads), grad)


@pytest.mark.parametrize("depth, limit", [(1, 9.5), (2, 14.5)])
def test_gradient_tape_memory_in_feature_arrays(depth, limit):
    # the traced peak of one value_and_gradient, counted in N x 2M float64
    # feature arrays: about 8.6 (depth 1) and 13.2 (depth 2) with fused
    # feature nodes and a backward that frees each array after its last
    # reader, about 10.7 and 15.4 when the backward kept interior values
    # and S = A^-1 F^T beside V, about 23 and 42 with neither
    n, M = 4000, 32
    x, y = toy_data(23, n=n, d=2)
    model = build_model(x, n_layers=depth, M=M, n_pseudo=16, seed=5)
    tracemalloc.start()
    try:
        value_and_gradient(model, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * 2 * M * 8) <= limit


def test_one_row_sized_solve_per_predictive_variance(monkeypatch):
    # N = 12 rows differs from every feature count, pseudo count and output
    # count, so a triangular multiply whose right-hand side has N columns is
    # one of the row-sized products behind the 2 * depth + 1 predictive
    # variances
    x, y = toy_data(25, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=17)
    n_rows, n_variances = x.shape[0], 2 * model.depth + 1
    products, inverses = [], []

    def counting(name, fn, per_call, rhs):
        def wrapped(*args, **kwargs):
            if np.ndim(args[rhs]) == 2 and np.shape(args[rhs])[1] == n_rows:
                products.extend([name] * per_call)
            return fn(*args, **kwargs)
        return wrapped

    def counting_inverse(L, inverse=ad.dtrtri, **kwargs):
        inverses.append(L)
        return inverse(L, **kwargs)

    monkeypatch.setattr(ad, "dtrmm", counting("trmm", ad.dtrmm, 1, rhs=2))
    # cho_solve is a forward and a backward triangular solve
    monkeypatch.setattr(ad, "cho_solve", counting("cho", ad.cho_solve, 2, rhs=1))
    monkeypatch.setattr(ad, "dtrtri", counting_inverse)
    value_and_gradient(model, x, y)
    # the top variance is not on the training tape; the top Gram's
    # log-determinant adjoint takes the one inverse that serves no variance
    assert products == ["trmm"] * 2 * (n_variances - 1)
    assert len(inverses) == (n_variances - 1) + 1
    products.clear()
    inverses.clear()
    predict_f(model, x)
    assert products == ["trmm"] * n_variances
    assert len(inverses) == n_variances


def test_one_row_sized_product_per_predictive_variance_and_chunk(monkeypatch):
    # two full chunks and a 12-row tail are three passes, each taking the
    # 2 * depth + 1 products of one pass, all chunk-sized; the posteriors'
    # factors are inverted once, in the first chunk, and never again
    x, y = toy_data(25, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=17)
    objective(model, x, y)
    xs = np.random.default_rng(4).uniform(-1, 1, (2 * PREDICT_CHUNK_ROWS + 12, 2))
    n_variances = 2 * model.depth + 1
    calls = {"trmm": [], "trtri": [], "cho": []}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name].append(np.shape(args[-1])[-1])  # the right-hand side's columns
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ad, "dtrmm", counting("trmm", ad.dtrmm))
    monkeypatch.setattr(ad, "dtrtri", counting("trtri", ad.dtrtri))
    monkeypatch.setattr(ad, "cho_solve", counting("cho", ad.cho_solve))
    predict_f(model, xs)
    chunks = [PREDICT_CHUNK_ROWS, PREDICT_CHUNK_ROWS, 12]
    assert calls["trmm"] == [rows for rows in chunks for _ in range(n_variances)]
    assert len(calls["trtri"]) == n_variances
    assert calls["cho"] == []
    for name in calls:
        calls[name].clear()
    predict_f(model, xs)
    assert calls["trmm"] == [rows for rows in chunks for _ in range(n_variances)]
    assert calls["trtri"] == [] and calls["cho"] == []


# -- prediction --------------------------------------------------------------


def test_predict_requires_fitted_posterior():
    x, y = toy_data(20, n=10)
    model = build_model(x, n_layers=0, M=4, seed=12)
    with pytest.raises(RuntimeError, match="objective"):
        predict_f(model, x)
    objective(model, x, y)
    mean, var = predict_f(model, x)
    assert mean.shape == (10,) and var.shape == (10,)


def test_predict_variance_includes_noise_floor():
    x, y = toy_data(21, n=25)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=6, seed=13)
    objective(model, x, y)
    _, var = predict_f(model, np.linspace(-2, 2, 50)[:, None])
    assert np.all(var >= model.top_post.noise_var)


@pytest.mark.parametrize("depth", [0, 1])
def test_predict_rejects_inputs_of_more_than_two_dimensions(depth):
    x, y = toy_data(32, n=12, d=2)
    model = build_model(x, n_layers=depth, M=4, M_w=3, n_pseudo=4, seed=20)
    objective(model, x, y)
    xs = np.random.default_rng(4).uniform(-1, 1, (2, 3, 2))
    with pytest.raises(ValueError, match=r"shape \(2, 3, 2\)"):
        predict_f(model, xs)
    mean, var = predict_f(model, xs.reshape(6, 2))
    assert mean.shape == var.shape == (6,)
    mean, var = predict_f(model, xs[0, 0])
    assert mean.shape == var.shape == ()


@pytest.mark.parametrize("outputs", [1, 2])
def test_predict_in_row_chunks_matches_one_pass(outputs):
    x, y = toy_data(31, n=40, d=2)
    if outputs == 2:
        y = np.column_stack([y, np.cos(x[:, 0])])
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=19)
    objective(model, x, y)
    rows = 5 * PREDICT_CHUNK_ROWS // 2  # two full chunks and a half one
    xs = np.random.default_rng(3).uniform(-1.2, 1.2, (rows, 2))
    mean, var = predict_f(model, xs)
    assert mean.shape == (rows,) + np.shape(y)[1:] and var.shape == (rows,)
    # bit for bit the chunk slices' predictions, concatenated
    parts = [predict_f(model, xs[i:i + PREDICT_CHUNK_ROWS])
             for i in range(0, rows, PREDICT_CHUNK_ROWS)]
    np.testing.assert_array_equal(mean, np.concatenate([m for m, _ in parts]))
    np.testing.assert_array_equal(var, np.concatenate([v for _, v in parts]))
    # and to rounding the whole batch in one pass
    one_mean, one_var = ssgp.predict(
        model.top_post, expected_feature_map(model.top_basis, propagate(model.stack, xs)))
    np.testing.assert_allclose(mean, one_mean, rtol=1e-12)
    np.testing.assert_allclose(var, one_var + model.top_post.noise_var, rtol=1e-12)
    # a point and an empty batch keep their shapes
    point_mean, point_var = predict_f(model, xs[0])
    assert np.shape(point_mean) == np.shape(y)[1:] and np.shape(point_var) == ()
    empty_mean, empty_var = predict_f(model, xs[:0])
    assert empty_mean.shape == (0,) + np.shape(y)[1:] and empty_var.shape == (0,)


def test_prediction_memory_bounded_by_the_chunk():
    # the traced peak of predict_f less its outputs, counted in
    # PREDICT_CHUNK_ROWS x 2M float64 feature arrays: about 3.1 at one chunk
    # of rows and at four; a one-pass prediction needs about 12.3 at four
    M = 32
    x, y = toy_data(23, n=500, d=2)
    model = build_model(x, n_layers=1, M=M, n_pseudo=16, seed=5)
    objective(model, x, y)
    xs = np.random.default_rng(1).uniform(-1, 1, (4 * PREDICT_CHUNK_ROWS, 2))
    peaks = []
    for rows in (PREDICT_CHUNK_ROWS, 4 * PREDICT_CHUNK_ROWS):
        tracemalloc.start()
        try:
            mean, var = predict_f(model, xs[:rows])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((peak - mean.nbytes - var.nbytes) / (PREDICT_CHUNK_ROWS * 2 * M * 8))
    assert peaks[0] <= 4
    assert peaks[1] <= 1.25 * peaks[0]


# -- serialization -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    x, y = toy_data(22, n=20)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=5, seed=14)
    objective(model, x, y)
    path = tmp_path / "model.json"
    save(model, path)
    clone = load(path)
    np.testing.assert_array_equal(clone.theta, model.theta)

    xs = np.linspace(-1.5, 1.5, 20)[:, None]
    mean, var = predict_f(model, xs)
    mean2, var2 = predict_f(clone, xs)
    assert np.max(np.abs(mean - mean2)) <= 1e-12
    assert np.max(np.abs(var - var2)) <= 1e-12


def test_save_refuses_an_unfitted_model(tmp_path):
    x, _ = toy_data(23, n=10)
    model = build_model(x, n_layers=1, M=4, M_w=3, n_pseudo=4, seed=15)
    path = tmp_path / "fresh.json"
    with pytest.raises(RuntimeError, match="no fitted posterior"):
        save(model, path)
    assert not path.exists()


def test_load_restores_the_frozen_draws_bit_for_bit(tmp_path):
    x, y = toy_data(25, n=12, d=2)
    model = build_model(x, n_layers=2, M=5, M_w=3, n_pseudo=4, seed=18)
    objective(model, x, y)
    clone = load(save(model, tmp_path / "model.json"))
    assert clone.family == model.family
    assert list(clone.draws) == ["top", "layer0.g", "layer0.h", "layer1.g", "layer1.h"]
    for key, draws in model.draws.items():
        assert clone.draws[key].shape == draws.shape
        assert clone.draws[key].tobytes() == draws.tobytes()
    assert clone.top_basis.base_draws is clone.draws["top"]


def test_fresh_model_holds_no_fit_and_assembles_what_load_does(tmp_path):
    x, y = toy_data(24, n=12, d=2)
    model = build_model(x, n_layers=2, M=4, M_w=3, n_pseudo=4, seed=17)
    assert posteriors(model) == []
    fitted = replace(model)
    objective(fitted, x, y)
    clone = load(save(fitted, tmp_path / "model.json"))
    assert objective(clone, x, y) == objective(model, x, y)


def test_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="model document"):
        load(path)


def test_saved_document_holds_exact_blobs_and_the_factor(tmp_path):
    x, y = toy_data(26, n=20)
    model = build_model(x, n_layers=1, M=6, M_w=4, n_pseudo=5, seed=19)
    objective(model, x, y)
    doc = json.loads(save(model, tmp_path / "model.json").read_text())
    assert list(doc) == ["format", "version", "family", "n_pseudo", "sigma_gamma", "seed",
                         "theta", "base_draws", "top_posterior"]
    assert doc["version"] == 3
    post = doc["top_posterior"]
    assert list(post) == ["alpha", "factor"] and post["factor"]["shape"] == [12, 12]
    raw = base64.b64decode(post["factor"]["<f8"])
    factor = np.frombuffer(raw, dtype="<f8").reshape(12, 12)
    np.testing.assert_array_equal(factor, model.top_post.A_factor)
    clone = load(tmp_path / "model.json")
    assert clone.top_post.gram is None
    np.testing.assert_array_equal(clone.top_post.A_factor, model.top_post.A_factor)
    xs = np.linspace(-1.5, 1.5, 11)[:, None]
    for got, want in zip(predict_f(clone, xs), predict_f(model, xs)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=25)
@given(depth=st.integers(0, 3), d=st.integers(1, 3), rows=st.integers(2, 12),
       M=st.integers(1, 6), M_w=st.integers(1, 4), n_pseudo=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_save_load_save_is_byte_identical(tmp_path_factory, depth, d, rows, M, M_w,
                                          n_pseudo, seed):
    x, y = toy_data(seed, n=rows, d=d)
    model = build_model(x, n_layers=depth, M=M, M_w=M_w, n_pseudo=n_pseudo, seed=seed)
    objective(model, x, y)
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    first = save(model, tmp_path / "first.json")
    second = save(load(first), tmp_path / "second.json")
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_unknown_version(tmp_path):
    x, y = toy_data(28, n=10)
    model = build_model(x, n_layers=0, M=4, seed=21)
    objective(model, x, y)
    path = save(model, tmp_path / "model.json")
    doc = json.loads(path.read_text())
    for version in (1, 4):  # the old nested-list format and a future one
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"is not a version-3 \(or version-2\) model document"):
            load(path)


def test_load_reads_a_version_2_document_through_the_same_reader(tmp_path):
    # version 2 also stored the sizes, the schema rows and the top
    # posterior's noise variance and evidence terms; load ignores them
    x, y = toy_data(29, n=14, d=2)
    model = build_model(x, n_layers=2, M=5, M_w=3, n_pseudo=4, seed=22)
    objective(model, x, y)
    path = save(model, tmp_path / "model.json")
    v3_bytes = path.read_bytes()
    doc = json.loads(v3_bytes)
    doc.update(version=2, input_dim=2, M=5, M_w=3, n_layers=2,
               schema=[[s.name, s.start, s.stop, list(s.shape), s.log] for s in model.schema])
    doc["top_posterior"].update(noise_var=float(model.top_post.noise_var), n_data=len(y),
                                sq_norm_y=float(y @ y), proj_y=doc["top_posterior"]["alpha"])
    path.write_text(json.dumps(doc))
    clone = load(path)
    xs = np.random.default_rng(3).uniform(-1, 1, (9, 2))
    for got, want in zip(predict_f(clone, xs), predict_f(model, xs)):
        np.testing.assert_array_equal(got, want)
    assert objective(clone, x, y) == objective(model, x, y)
    assert save(clone, tmp_path / "again.json").read_bytes() == v3_bytes
