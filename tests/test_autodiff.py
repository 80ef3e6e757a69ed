"""Gradient checks for the reverse-mode tape.

Every operator's vector-Jacobian product is compared against central finite
differences of a scalarized output (random fixed projection), so the tests do
not depend on any closed-form adjoint being re-derived here.
"""

import weakref

import numpy as np
import pytest

import sswim.autodiff as ad


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f at x (elementwise)."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def tape_grad(f, x):
    t = ad.Tensor(np.array(x, dtype=float))
    out = f(t)
    out.backward()
    return t.grad


def check_scalarized(f, x, rtol=1e-6, atol=1e-8, eps=1e-6):
    """Compare tape gradient of x -> f(x) against finite differences."""
    got = tape_grad(f, x)
    want = numeric_grad(lambda v: float(ad._as_value(f(ad.Tensor(v)))), x, eps=eps)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def scalarize(expr, proj=1.0):
    """Reduce an array-valued tape expression to a scalar via a fixed projection.

    The scalar is the inner product of the flattened expression with the
    projection broadcast to its shape; the default projection sums it.
    """
    weights = np.broadcast_to(proj, np.shape(expr)).ravel()
    return ad.matmul(ad.reshape(expr, (weights.size,)), weights)


# -- elementwise ops --------------------------------------------------------


def test_elementwise_unary_gradients():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.3, 2.0, size=(3, 4))
    proj = rng.standard_normal((3, 4))
    check_scalarized(lambda t: scalarize(ad.exp(t), proj), x)


def composed_trig_features(x, om, scale, var=None):
    """The feature expression one numpy call at a time; the fused node must match it bit for bit.

    With t = tan(theta / 2) and amplitude a, cos and sin are f - a and t f
    for f = 2a / (1 + t^2).
    """
    t = np.tan(0.5 * (x @ om.T))
    amp2 = 2.0 * scale
    if var is not None:
        amp2 = np.exp(-0.5 * (var @ (om * om).T)) * amp2
    f = amp2 / (1.0 + t * t)
    return np.concatenate([f - 0.5 * amp2, t * f], axis=-1)


def unit_features(theta):
    """cos and sin of a 1-D array of angles through ``trig_features`` at scale 1."""
    out = ad.trig_features(np.asarray(theta, dtype=float)[:, None], np.ones((1, 1)), 1.0)
    return out[:, 0], out[:, 1]


def test_trig_features_match_numpy_cos_and_sin():
    # 2 ulp at 1; the tangent form stays within 1.5 ulp of libm
    bound = 4.5e-16
    rng = np.random.default_rng(7)
    # the doubles nearest k pi/2 and (2k + 1) pi, rounded from extended precision
    half_pi = np.longdouble("1.57079632679489661923132169163975144")
    k = np.arange(-2000, 2001)
    for theta in (rng.uniform(-1e6, 1e6, 100_000), rng.uniform(-np.pi, np.pi, 100_000),
                  (k * half_pi).astype(float), ((4 * k + 2) * half_pi).astype(float)):
        c, s = unit_features(theta)
        assert np.max(np.abs(c - np.cos(theta))) <= bound
        assert np.max(np.abs(s - np.sin(theta))) <= bound
    tiny = np.array([1e-10, -1e-10, 3e-200])
    c, s = unit_features(tiny)
    assert np.all(c == 1.0)
    np.testing.assert_allclose(s, np.sin(tiny), rtol=1e-15, atol=0)


def test_trig_features_of_inf_warn_and_nan_propagates():
    with pytest.warns(RuntimeWarning, match="invalid value"):
        c, s = unit_features([np.inf, -np.inf])
    assert np.all(np.isnan(c)) and np.all(np.isnan(s))
    c, s = unit_features([np.nan, 0.5])
    assert np.isnan(c[0]) and np.isnan(s[0])
    assert np.isfinite(c[1]) and np.isfinite(s[1])


@pytest.mark.parametrize("rows", [None, 5], ids=["point", "batch"])
@pytest.mark.parametrize("damped", [False, True], ids=["plain", "damped"])
def test_trig_features_value_and_gradients(rows, damped):
    rng = np.random.default_rng(1)
    shape = (3,) if rows is None else (rows, 3)
    x, om = rng.uniform(-1.5, 1.5, shape), rng.standard_normal((4, 3))
    scale = np.array(0.7)
    var = rng.uniform(0.05, 0.8, shape) if damped else None
    want = composed_trig_features(x, om, scale, var)
    assert ad.trig_features(x, om, scale, var).tobytes() == want.tobytes()
    traced = ad.trig_features(ad.Tensor(x), ad.Tensor(om), ad.Tensor(scale),
                              None if var is None else ad.Tensor(var))
    assert traced.value.tobytes() == want.tobytes()

    proj = rng.standard_normal(want.shape)
    args = {"x": x, "om": om, "scale": scale, "var": var}
    for name in [k for k, v in args.items() if v is not None]:
        def f(t, name=name):
            return scalarize(ad.trig_features(**{**args, name: t}), proj)
        check_scalarized(f, args[name])


def test_trig_features_scale_gradient_survives_zero_scale():
    # an amplitude that underflows to 0 zeroes the output, not the gradient
    rng = np.random.default_rng(2)
    x, om = rng.uniform(-1.5, 1.5, (5, 2)), rng.standard_normal((3, 2))
    var, proj = rng.uniform(0.1, 0.5, (5, 2)), rng.standard_normal((5, 6))
    for v in (None, var):
        scale = ad.Tensor(np.array(0.0))
        out = scalarize(ad.trig_features(x, om, scale, v), proj)
        out.backward()
        want = np.sum(proj * composed_trig_features(x, om, 1.0, v))
        assert np.isfinite(scale.grad) and scale.grad == pytest.approx(want, rel=1e-12)


def test_binary_op_gradients_both_arguments():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 2.0, size=(2, 3))
    b = rng.uniform(0.5, 2.0, size=(2, 3))
    proj = rng.standard_normal((2, 3))
    for op in (ad.add, ad.multiply, ad.divide):
        check_scalarized(lambda t, op=op: scalarize(op(t, b), proj), a)
        check_scalarized(lambda t, op=op: scalarize(op(a, t), proj), b)


def test_broadcasting_unbroadcasts_gradients():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3))
    col = rng.uniform(0.5, 1.5, size=(4, 1))
    row = rng.uniform(0.5, 1.5, size=3)
    scalar = np.array(1.7)
    proj = rng.standard_normal((4, 3))
    check_scalarized(lambda t: scalarize(ad.multiply(a, t), proj), col)
    check_scalarized(lambda t: scalarize(ad.add(a, t), proj), row)
    check_scalarized(lambda t: scalarize(ad.multiply(a, t), proj), scalar)
    # gradient shapes mirror the operand shapes exactly
    assert tape_grad(lambda t: scalarize(ad.multiply(a, t), proj), col).shape == (4, 1)
    assert tape_grad(lambda t: scalarize(ad.add(a, t), proj), row).shape == (3,)


def test_operator_overloads_and_reflected_forms():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.5, 2.0, size=4)
    proj = rng.standard_normal(4)

    def f(t):
        e = 2.0 + t
        e = e + t * 3.0
        e = e / 2.0
        e = 1.0 / (t + 3.0) + e
        e = t * t * e
        return scalarize(e, proj)

    check_scalarized(f, x)


def test_numpy_does_not_consume_tensors():
    # __array_ufunc__ = None forces reflected operators, keeping results on the tape
    t = ad.Tensor(np.ones(3))
    out = np.array([1.0, 2.0, 3.0]) * t
    assert isinstance(out, ad.Tensor)
    out2 = np.float64(2.0) + t
    assert isinstance(out2, ad.Tensor)


def spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def dispatch_cases():
    """Every operation as (function of array arguments, those arguments)."""
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.2, 1.5, size=(3, 4)), rng.uniform(0.2, 1.5, size=(3, 4))
    A = spd(rng, 4)
    L = np.linalg.cholesky(A)
    return {
        "add": (ad.add, (x, y)),
        "multiply": (ad.multiply, (x, y)),
        "divide": (ad.divide, (x, y)),
        "exp": (ad.exp, (x,)),
        "trig_features": (ad.trig_features, (x, y[:2], np.array(0.8))),
        "trig_features damped": (ad.trig_features, (x, y[:2], np.array(0.8), 0.3 * y)),
        "matmul 2-D @ 2-D": (ad.matmul, (x, y.T)),
        "matmul 1-D @ 2-D": (ad.matmul, (x[0], y.T)),
        "matmul 2-D @ 1-D": (ad.matmul, (x, y[0])),
        "matmul 1-D @ 1-D": (ad.matmul, (x[0], y[0])),
        "transpose": (ad.transpose, (x,)),
        "gram": (ad.gram, (x,)),
        "reshape": (lambda a: ad.reshape(a, (2, 6)), (x,)),
        "expand_last": (ad.expand_last, (x,)),
        "take": (lambda a: ad.take(a, np.array([2, 0, 2])), (x,)),
        "psd_solve": (lambda a, b: ad.psd_solve(a, L, b), (A, y.T)),
        "psd_quad_diag": (lambda a, f: ad.psd_quad_diag(a, ad.tri_inverse(L), f), (A, x)),
        "gaussian_evidence": (
            lambda a, b, s: ad.gaussian_evidence(a, L, 1.3, b, y[1], s, x[:, 0]),
            (A, y[0], np.array(0.7))),
    }


def traced_subsets(n):
    """Every argument position traced, then each one alone beside plain others."""
    return [range(n)] + ([[i] for i in range(n)] if n > 1 else [])


def traced(args, positions):
    return [ad.Tensor(a) if i in positions else a for i, a in enumerate(args)]


@pytest.mark.parametrize("name", sorted(dispatch_cases()))
def test_every_op_gives_plain_values_bit_identical_to_traced(name):
    op, args = dispatch_cases()[name]
    plain = op(*args)
    assert not isinstance(plain, ad.Tensor)
    want = np.asarray(plain)
    for positions in traced_subsets(len(args)):
        out = op(*traced(args, positions))
        assert isinstance(out, ad.Tensor)
        assert out.shape == want.shape and out.value.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(dispatch_cases()))
def test_every_op_gradient_is_bit_identical_whichever_inputs_are_traced(name):
    # one VJP serves every input: an input's gradient must not depend on
    # which of the others are traced (the per-input gradients themselves are
    # checked against finite differences by each op's own test)
    op, args = dispatch_cases()[name]
    proj = np.random.default_rng(8).standard_normal(np.shape(op(*args)))
    grads = {}
    for positions in traced_subsets(len(args)):
        inputs = traced(args, positions)
        scalarize(op(*inputs), proj).backward()
        for i in positions:
            assert inputs[i].grad.shape == np.shape(args[i])
            grads.setdefault(i, inputs[i].grad.tobytes())
            assert inputs[i].grad.tobytes() == grads[i]


# -- structural ops ---------------------------------------------------------


def test_matmul_gradients_all_rank_combinations():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 4))
    B = rng.standard_normal((4, 2))
    u = rng.standard_normal(3)
    v = rng.standard_normal(4)
    pAB = rng.standard_normal((3, 2))
    for left, right, proj in (
        (A, B, pAB),                        # 2-D @ 2-D
        (u, A, rng.standard_normal(4)),     # 1-D @ 2-D
        (A, v, rng.standard_normal(3)),     # 2-D @ 1-D
        (v, v.copy(), np.array(1.0)),       # 1-D @ 1-D
    ):
        check_scalarized(lambda t, r=right, p=proj: scalarize(ad.matmul(t, r), p), left)
        check_scalarized(lambda t, l=left, p=proj: scalarize(ad.matmul(l, t), p), right)


def test_matmul_rejects_higher_rank():
    t = ad.Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="1-D/2-D"):
        ad.matmul(t, t)


def test_transpose_reshape_expand_last():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5))
    p1 = rng.standard_normal((5, 3))
    p2 = rng.standard_normal(15)
    p3 = rng.standard_normal((3, 5, 1))
    check_scalarized(lambda t: scalarize(ad.transpose(t), p1), x)
    check_scalarized(lambda t: scalarize(ad.reshape(t, (15,)), p2), x)
    check_scalarized(lambda t: scalarize(ad.expand_last(t), p3), x)
    assert ad.expand_last(x).shape == (3, 5, 1)


def test_gram_value_and_gradient():
    rng = np.random.default_rng(21)
    phi, proj = rng.standard_normal((6, 3)), rng.standard_normal((3, 3))
    assert ad.gram(phi).tobytes() == (phi.T @ phi).tobytes()
    check_scalarized(lambda t: scalarize(ad.gram(t), proj), phi)


def test_take_accumulates_repeated_indices():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    idx = np.array([0, 2, 2, 3])
    t = ad.Tensor(x)
    out = scalarize(ad.take(t, idx))
    out.backward()
    np.testing.assert_array_equal(t.grad, [1.0, 0.0, 2.0, 1.0])


def test_take_slices():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(8)
    proj = rng.standard_normal(3)
    check_scalarized(lambda t: scalarize(ad.take(t, slice(2, 5)), proj), x)


def test_reuse_of_a_node_accumulates_gradient():
    t = ad.Tensor(np.array([1.5, -0.5]))
    out = scalarize(t * t + t)  # d/dx (x^2 + x) = 2x + 1
    out.backward()
    np.testing.assert_allclose(t.grad, 2.0 * t.value + 1.0)


def test_plain_inputs_are_never_parents():
    t, s = ad.Tensor(np.array([0.5, 2.0])), ad.Tensor(np.array(0.3))
    x = np.array([1.5, -1.0])
    assert ad.multiply(t, x).parents == (t,)
    assert ad.multiply(x, t).parents == (t,)
    assert ad.trig_features(x, np.ones((3, 2)), s, t).parents == (s, t)
    assert ad.psd_solve(np.eye(2), np.eye(2), t).parents == (t,)


def test_backward_skips_constant_leaves():
    # plain arrays an operation reads (data, a constant matrix) never join
    # the tape: the parameter is its only leaf, every node's VJP runs once,
    # and the parameter's gradient is unaffected
    rng = np.random.default_rng(30)
    x, c = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    A = 2.0 * np.eye(3) + 0.1
    L = np.linalg.cholesky(A)

    def f(t):
        return (scalarize(c * ad.exp(x * t))
                + scalarize(ad.psd_quad_diag(A, ad.tri_inverse(L), x * t))
                + scalarize(ad.matmul(x, t)))

    t = ad.Tensor(rng.standard_normal(3))
    out = f(t)
    order = ad._topo_order(out)
    assert [n for n in order if not n.parents] == [t]
    assert all(isinstance(p, ad.Tensor) for n in order for p in n.parents)
    ran = []

    def recording(node, vjp):
        def wrapped(g):
            ran.append(node)
            return vjp(g)
        return wrapped

    ops = [n for n in order if n.parents]
    for node in ops:
        node.vjp = recording(node, node.vjp)
    out.backward()
    assert sorted(map(id, ran)) == sorted(map(id, ops))
    want = numeric_grad(lambda v: float(f(v)), t.value)
    np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-8)


def test_backward_keeps_gradients_only_on_leaves():
    t = ad.Tensor(np.array([0.5, 2.0]))
    mid = ad.exp(t)
    out = scalarize(mid * t)
    out.backward()
    assert mid.grad is None and out.grad is None
    np.testing.assert_allclose(t.grad, np.exp(t.value) * (1.0 + t.value), rtol=1e-15)


def test_backward_is_one_shot():
    t = ad.Tensor(np.array([0.5, 2.0]))
    mid = ad.exp(t)
    out = scalarize(mid * t)
    out.backward()
    with pytest.raises(ad.TapeConsumedError, match="already ran"):
        out.backward()
    # a second output over the consumed part of the tape cannot backpropagate either
    with pytest.raises(RuntimeError, match="already ran"):
        scalarize(mid).backward()


def test_backward_drops_interior_values():
    t = ad.Tensor(np.array([0.5, 2.0]))
    c = np.array([1.5, -1.0])
    mid = ad.exp(t * c)
    out = scalarize(mid * t)
    order = ad._topo_order(out)
    interior = [n for n in order if n.parents and n is not out]
    assert mid in interior and len(interior) >= 3
    out.backward()
    assert all(n.value is None for n in interior)
    # the root and the one leaf, the parameter, keep theirs; c never joined the tape
    assert out.value == pytest.approx(np.sum(np.exp(t.value * c) * t.value), rel=1e-15)
    assert [n for n in order if not n.parents] == [t]
    assert t.value is not None
    for read in (lambda: mid.shape, lambda: mid.ndim, lambda: ad.exp(mid), lambda: mid + 1.0):
        with pytest.raises(ad.TapeConsumedError, match="already ran"):
            read()
    assert repr(mid) == "Tensor(consumed)"


def closure_arrays(fn, found=None):
    """Every ndarray a function's closure holds, following nested closures."""
    found = {} if found is None else found
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            found[id(v)] = v
        elif callable(v):
            closure_arrays(v, found)
    return found


def test_backward_frees_what_the_vjps_captured():
    rng = np.random.default_rng(31)
    A = spd(rng, 4)
    t = ad.Tensor(rng.standard_normal((6, 4)))
    quad = ad.psd_quad_diag(A, ad.tri_inverse(ad.chol_psd(A)), t)
    out = scalarize(quad)
    # L^-1 and V = L^-1 F^T, whose buffer the pass overwrites with
    # S = A^-1 F^T, live only in the VJP's closure, not on the tape
    on_tape = {id(n.value) for n in ad._topo_order(out)}
    captured = [v for k, v in closure_arrays(quad.vjp).items() if k not in on_tape]
    assert captured
    refs = [weakref.ref(v) for v in captured]
    del captured
    out.backward()
    assert quad.vjp is None and out.vjp is None
    assert all(r() is None for r in refs)
    assert t.grad.flags.c_contiguous  # laid out like F, for the feature adjoints downstream
    np.testing.assert_allclose(t.grad, 2.0 * np.linalg.solve(A, t.value.T).T, rtol=1e-12)


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        t.backward()


def test_deep_chain_does_not_overflow_recursion():
    t = ad.Tensor(np.array(1.0))
    out = t
    for _ in range(20000):
        out = out * 1.0
    out.backward()
    assert t.grad == pytest.approx(1.0)


def test_shape_accessors():
    t = ad.Tensor(np.array([[2.0]]))
    assert t.shape == (1, 1)
    assert t.ndim == 2


# -- Cholesky-backed linear algebra -----------------------------------------


def test_psd_solve_matches_numpy():
    rng = np.random.default_rng(11)
    A = spd(rng, 5)
    B = rng.standard_normal((5, 3))
    L = ad.chol_psd(A)
    np.testing.assert_allclose(ad.psd_solve(A, L, B), np.linalg.solve(A, B), rtol=1e-10)
    b = rng.standard_normal(5)
    np.testing.assert_allclose(ad.psd_solve(A, L, b), np.linalg.solve(A, b), rtol=1e-10)


def test_psd_solve_gradients():
    rng = np.random.default_rng(12)
    A = spd(rng, 4)
    B = rng.standard_normal((4, 2))
    proj = rng.standard_normal((4, 2))
    L = ad.chol_psd(A)

    def solve_sym(t, rhs):
        sym = ad.multiply(0.5, ad.add(t, ad.transpose(t)))  # keep A symmetric
        return ad.psd_solve(sym, ad.chol_psd(sym), rhs)

    check_scalarized(lambda t: scalarize(solve_sym(t, B), proj), A, rtol=1e-5, atol=1e-7)
    check_scalarized(lambda t: scalarize(ad.psd_solve(A, L, t), proj), B)
    # 1-D right-hand side
    b = rng.standard_normal(4)
    pb = rng.standard_normal(4)
    check_scalarized(lambda t: scalarize(solve_sym(t, b), pb), A, rtol=1e-5, atol=1e-7)
    check_scalarized(lambda t: scalarize(ad.psd_solve(A, L, t), pb), b)


def test_psd_solve_adjoints_share_one_solve(monkeypatch):
    rng = np.random.default_rng(17)
    A, B = ad.Tensor(spd(rng, 4)), ad.Tensor(rng.standard_normal((4, 2)))
    out = scalarize(ad.psd_solve(A, ad.chol_psd(A), B))
    calls = []
    counted = ad.cho_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(ad, "cho_solve", counting)
    out.backward()
    assert len(calls) == 1
    np.testing.assert_allclose(B.grad, np.linalg.solve(A.value, np.ones((4, 2))), rtol=1e-12)


def test_psd_solve_backward_passes_a_non_finite_cotangent_on():
    # a NaN cotangent must come out as a NaN gradient, which the caller's
    # finite check rejects, not as an error from inside the backward pass
    rng = np.random.default_rng(19)
    A, B = ad.Tensor(spd(rng, 4)), ad.Tensor(rng.standard_normal((4, 2)))
    weights = np.ones((4, 2))
    weights[1, 0] = np.nan
    out = scalarize(ad.psd_solve(A, ad.chol_psd(A), B), weights)
    with np.errstate(invalid="ignore"):
        out.backward()
    assert np.isnan(A.grad).any() and np.isnan(B.grad).any()
    with pytest.raises(ad.NonFiniteError, match="gradient"):
        ad.check_finite(B.grad, "gradient")


def test_psd_quad_diag_matches_dense():
    rng = np.random.default_rng(18)
    for rows, n in ((7, 5), (400, 6)):  # a short batch and a tall one, rows >> n
        A = spd(rng, n)
        L_inv = ad.tri_inverse(ad.chol_psd(A))
        F = rng.standard_normal((rows, n))
        want = np.diag(F @ np.linalg.inv(A) @ F.T)
        np.testing.assert_allclose(ad.psd_quad_diag(A, L_inv, F), want, rtol=1e-12)
        assert ad.psd_quad_diag(A, L_inv, F[2]) == pytest.approx(want[2], rel=1e-12)
        traced = ad.psd_quad_diag(ad.Tensor(A), L_inv, ad.Tensor(F)).value
        assert np.array_equal(traced, ad.psd_quad_diag(A, L_inv, F))


def test_psd_quad_diag_gradients():
    rng = np.random.default_rng(19)
    A = spd(rng, 4)
    L_inv = ad.tri_inverse(ad.chol_psd(A))

    def quad_sym(t, F):
        sym = ad.multiply(0.5, ad.add(t, ad.transpose(t)))
        return ad.psd_quad_diag(sym, ad.tri_inverse(ad.chol_psd(sym)), F)

    for F, proj in ((rng.standard_normal((6, 4)), rng.standard_normal(6)),
                    (rng.standard_normal(4), np.array(1.3))):
        check_scalarized(lambda t, F=F, p=proj: scalarize(quad_sym(t, F), p), A,
                         rtol=1e-5, atol=1e-7)
        check_scalarized(lambda t, p=proj: scalarize(ad.psd_quad_diag(A, L_inv, t), p), F)


def test_psd_quad_diag_backward_leaves_its_inputs_unchanged():
    # the pass forms S = L^-T V in place over V, which must be the node's own
    # buffer, never F's or the caller's kept L^-1
    rng = np.random.default_rng(20)
    A = spd(rng, 5)
    L_inv = ad.tri_inverse(ad.chol_psd(A))
    F = rng.standard_normal((9, 5))
    for f in (F, np.asfortranarray(F), F[3]):
        inputs = (A, L_inv, f)
        before = [a.tobytes() for a in inputs]
        a_t, f_t = ad.Tensor(A), ad.Tensor(f)
        scalarize(ad.psd_quad_diag(a_t, L_inv, f_t)).backward()
        assert [a.tobytes() for a in inputs] == before
        assert a_t.value is A and f_t.value is f
        f2 = np.atleast_2d(f)
        want_F = 2.0 * np.linalg.solve(A, f2.T).T
        np.testing.assert_allclose(f_t.grad, want_F.reshape(f.shape), rtol=1e-12)
        np.testing.assert_allclose(a_t.grad, -0.25 * want_F.T @ want_F, rtol=1e-12, atol=1e-15)


def test_psd_logdet_matches_slogdet():
    rng = np.random.default_rng(13)
    A = spd(rng, 4)
    assert ad.psd_logdet(ad.chol_psd(A)) == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)


def evidence(phi, y, noise_var):
    """The negative log evidence of y as ``ssgp`` builds it from the feature matrix phi."""
    A = ad.gram(phi) + noise_var * np.eye(np.shape(phi)[1])
    L = ad.chol_psd(A)
    b = ad.transpose(phi) @ y
    return ad.gaussian_evidence(A, L, ad.psd_logdet(L), b,
                                ad.psd_solve(A, L, b), noise_var, y)


@pytest.mark.parametrize("outputs", [None, 2], ids=["1-D", "P=2"])
def test_gaussian_evidence_matches_dense_density_and_finite_differences(outputs):
    rng = np.random.default_rng(22)
    n, n_feat = 7, 4
    phi = rng.standard_normal((n, n_feat))
    y = rng.standard_normal(n if outputs is None else (n, outputs))
    noise_var = np.array(0.3)
    # each output column is an independent N(0, phi phi^T + noise_var I) draw
    K, Y = phi @ phi.T + noise_var * np.eye(n), y.reshape(n, -1)
    dense = 0.5 * (np.sum(Y * np.linalg.solve(K, Y))
                   + Y.shape[1] * (np.linalg.slogdet(K)[1] + n * np.log(2.0 * np.pi)))
    assert evidence(phi, y, noise_var) == pytest.approx(dense, rel=1e-12)
    for s in (noise_var, ad.Tensor(noise_var)):  # noise variance plain, then traced
        check_scalarized(lambda t, s=s: evidence(t, y, s), phi)
    check_scalarized(lambda t: evidence(phi, y, t), noise_var)


def test_chol_psd_is_lower_triangular_and_matches_numpy():
    rng = np.random.default_rng(23)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    near_singular = Q @ np.diag([1.0, 0.5, 0.1, -1e-13]) @ Q.T
    near_singular = 0.5 * (near_singular + near_singular.T)
    jittered = near_singular + 1e-10 * np.trace(near_singular) / 4 * np.eye(4)
    for A, factored in ((spd(rng, 60), None), (near_singular, jittered)):
        L = ad.chol_psd(A)
        assert not np.any(np.triu(L, 1))
        want = np.linalg.cholesky(A if factored is None else factored)
        assert np.max(np.abs(L - want)) <= 1e-13 * np.max(np.abs(want))


def test_chol_psd_of_tensor_is_plain_array():
    rng = np.random.default_rng(14)
    A = spd(rng, 4)
    L = ad.chol_psd(ad.Tensor(A))
    assert type(L) is np.ndarray
    np.testing.assert_array_equal(L, ad.chol_psd(A))


def test_chol_psd_jitter_retry_on_near_singular_matrix():
    rng = np.random.default_rng(15)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = Q @ np.diag([1.0, 0.5, 0.1, -1e-13]) @ Q.T
    A = 0.5 * (A + A.T)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A)  # plain factorization fails
    L = ad.chol_psd(A)
    np.testing.assert_allclose(L @ L.T, A, atol=1e-8)


def test_chol_psd_failure_reports_diagnostics():
    A = -np.eye(3)
    with pytest.raises(ad.FactorizationError, match=r"dim=3") as err:
        ad.chol_psd(A)
    assert "trace" in str(err.value)


def test_chol_solve_matches_direct_solve():
    rng = np.random.default_rng(16)
    A = spd(rng, 6)
    L = ad.chol_psd(A)
    B = rng.standard_normal((6, 2))
    np.testing.assert_allclose(ad.chol_solve(L, B), np.linalg.solve(A, B), rtol=1e-10)


def test_check_finite_passthrough_and_error():
    x = np.ones(3)
    assert ad.check_finite(x, "weights") is x
    t = ad.Tensor(x)
    assert ad.check_finite(t, "weights") is t
    with pytest.raises(ad.NonFiniteError, match="design matrix"):
        ad.check_finite(np.array([1.0, np.inf]), "design matrix")
    with pytest.raises(ad.NonFiniteError, match="targets"):
        ad.check_finite(np.array([np.nan]), "targets")
