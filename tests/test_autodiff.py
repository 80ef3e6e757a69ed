"""Gradient checks for the reverse-mode tape.

Every operator's vector-Jacobian product is compared against central finite
differences of a scalarized output (random fixed projection), so the tests do
not depend on any closed-form adjoint being re-derived here.
"""

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


def scalarize(expr, proj):
    """Reduce an array-valued tape expression to a scalar via a fixed projection."""
    return ad.sum_(ad.multiply(expr, proj))


# -- elementwise ops --------------------------------------------------------


def test_elementwise_unary_gradients():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.3, 2.0, size=(3, 4))
    proj = rng.standard_normal((3, 4))
    for op in (ad.exp, ad.log, ad.negative):
        check_scalarized(lambda t, op=op: scalarize(op(t), proj), x)


def test_cos_sin_gradient_and_value():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3.0, 3.0, size=(3, 4))
    want = np.concatenate([np.cos(x), np.sin(x)], axis=-1)
    assert np.array_equal(ad.cos_sin(x), want)
    assert np.array_equal(ad.cos_sin(ad.Tensor(x)).value, want)
    proj = rng.standard_normal((3, 8))
    check_scalarized(lambda t: scalarize(ad.cos_sin(t), proj), x)
    check_scalarized(lambda t: scalarize(ad.cos_sin(t), proj[0]), x[0])


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
        e = 2.0 - t
        e = e + t * 3.0
        e = -e / 2.0
        e = 1.0 / (t + 3.0) + e
        e = t * t - e
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
        "negative": (ad.negative, (x,)),
        "exp": (ad.exp, (x,)),
        "log": (ad.log, (x,)),
        "cos_sin": (ad.cos_sin, (x,)),
        "matmul 2-D @ 2-D": (ad.matmul, (x, y.T)),
        "matmul 1-D @ 2-D": (ad.matmul, (x[0], y.T)),
        "matmul 2-D @ 1-D": (ad.matmul, (x, y[0])),
        "matmul 1-D @ 1-D": (ad.matmul, (x[0], y[0])),
        "transpose": (ad.transpose, (x,)),
        "reshape": (lambda a: ad.reshape(a, (2, 6)), (x,)),
        "expand_last": (ad.expand_last, (x,)),
        "sum_": (ad.sum_, (x,)),
        "concatenate": (lambda a, b: ad.concatenate([a, b], axis=1), (x, y)),
        "take": (lambda a: ad.take(a, np.array([2, 0, 2])), (x,)),
        "psd_solve": (lambda a, b: ad.psd_solve(a, L, b), (A, y.T)),
        "psd_quad_diag": (lambda a, f: ad.psd_quad_diag(a, L, f), (A, x)),
        "psd_logdet": (lambda a: ad.psd_logdet(a, L), (A,)),
    }


@pytest.mark.parametrize("name", sorted(dispatch_cases()))
def test_every_op_gives_plain_values_bit_identical_to_traced(name):
    op, args = dispatch_cases()[name]
    plain = op(*args)
    assert not isinstance(plain, ad.Tensor)
    want = np.asarray(plain)
    # trace every argument, then each one alone beside plain others
    masks = [range(len(args))] + ([[i] for i in range(len(args))] if len(args) > 1 else [])
    for traced_args in masks:
        out = op(*(ad.Tensor(a) if i in traced_args else a for i, a in enumerate(args)))
        assert isinstance(out, ad.Tensor)
        assert out.shape == want.shape and out.value.tobytes() == want.tobytes()


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


def test_concatenate_gradients():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 2))
    proj = rng.standard_normal((5, 2))
    check_scalarized(lambda t: scalarize(ad.concatenate([t, b], axis=0), proj), a)
    check_scalarized(lambda t: scalarize(ad.concatenate([a, t], axis=0), proj), b)
    # axis=1, mixed tensor / plain operands
    c = rng.standard_normal((2, 4))
    proj2 = rng.standard_normal((2, 6))
    check_scalarized(lambda t: scalarize(ad.concatenate([t, c], axis=1), proj2), a)


def test_take_accumulates_repeated_indices():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    idx = np.array([0, 2, 2, 3])
    t = ad.Tensor(x)
    out = ad.sum_(ad.take(t, idx))
    out.backward()
    np.testing.assert_array_equal(t.grad, [1.0, 0.0, 2.0, 1.0])


def test_take_slices():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(8)
    proj = rng.standard_normal(3)
    check_scalarized(lambda t: scalarize(ad.take(t, slice(2, 5)), proj), x)


def test_reuse_of_a_node_accumulates_gradient():
    t = ad.Tensor(np.array([1.5, -0.5]))
    out = ad.sum_(t * t + t)  # d/dx (x^2 + x) = 2x + 1
    out.backward()
    np.testing.assert_allclose(t.grad, 2.0 * t.value + 1.0)


def test_backward_skips_constant_leaves():
    # plain arrays an operation lifts onto the tape (data, a constant matrix)
    # get no VJP evaluated; the leaf's gradient is unaffected
    rng = np.random.default_rng(30)
    x, c = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    A = 2.0 * np.eye(3) + 0.1
    L = np.linalg.cholesky(A)

    def f(t):
        return (ad.sum_(c * ad.exp(x * t)) + ad.sum_(ad.psd_quad_diag(A, L, x * t))
                + ad.sum_(x @ t))

    t = ad.Tensor(rng.standard_normal(3))
    out = f(t)
    targets = []

    def recording(parent, vjp):
        def wrapped(g):
            targets.append(parent)
            return vjp(g)
        return wrapped

    for node in ad._topo_order(out):
        node.vjps = tuple(recording(p, v) for p, v in zip(node.parents, node.vjps))
    out.backward()
    assert any(p is t for p in targets)
    assert all(p is t or p.parents for p in targets)
    want = numeric_grad(lambda v: float(f(v)), t.value)
    np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-8)


def test_backward_keeps_gradients_only_on_leaves():
    t = ad.Tensor(np.array([0.5, 2.0]))
    mid = ad.exp(t)
    out = ad.sum_(mid * t)
    out.backward()
    assert mid.grad is None and out.grad is None
    np.testing.assert_allclose(t.grad, np.exp(t.value) * (1.0 + t.value), rtol=1e-15)


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
    out = ad.sum_(ad.psd_solve(A, ad.chol_psd(A), B))
    calls = []
    counted = ad.cho_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(ad, "cho_solve", counting)
    out.backward()
    assert len(calls) == 1
    np.testing.assert_allclose(B.grad, np.linalg.solve(A.value, np.ones((4, 2))), rtol=1e-12)


def test_psd_quad_diag_matches_dense():
    rng = np.random.default_rng(18)
    for rows, n in ((7, 5), (400, 6)):  # a short batch and a tall one, rows >> n
        A = spd(rng, n)
        L = ad.chol_psd(A)
        F = rng.standard_normal((rows, n))
        want = np.diag(F @ np.linalg.inv(A) @ F.T)
        np.testing.assert_allclose(ad.psd_quad_diag(A, L, F), want, rtol=1e-12)
        assert ad.psd_quad_diag(A, L, F[2]) == pytest.approx(want[2], rel=1e-12)
        traced = ad.psd_quad_diag(ad.Tensor(A), L, ad.Tensor(F)).value
        assert np.array_equal(traced, ad.psd_quad_diag(A, L, F))


def test_psd_quad_diag_gradients():
    rng = np.random.default_rng(19)
    A = spd(rng, 4)
    L = ad.chol_psd(A)

    def quad_sym(t, F):
        sym = ad.multiply(0.5, ad.add(t, ad.transpose(t)))
        return ad.psd_quad_diag(sym, ad.chol_psd(sym), F)

    for F, proj in ((rng.standard_normal((6, 4)), rng.standard_normal(6)),
                    (rng.standard_normal(4), np.array(1.3))):
        check_scalarized(lambda t, F=F, p=proj: scalarize(quad_sym(t, F), p), A,
                         rtol=1e-5, atol=1e-7)
        check_scalarized(lambda t, p=proj: scalarize(ad.psd_quad_diag(A, L, t), p), F)


def test_psd_logdet_value_and_gradient():
    rng = np.random.default_rng(13)
    A = spd(rng, 4)
    assert ad.psd_logdet(A, ad.chol_psd(A)) == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)

    def f(t):
        sym = ad.multiply(0.5, ad.add(t, ad.transpose(t)))
        return ad.psd_logdet(sym, ad.chol_psd(sym))

    check_scalarized(f, A, rtol=1e-5, atol=1e-7)


def test_psd_logdet_gradient_is_the_inverse():
    rng = np.random.default_rng(20)
    A = spd(rng, 40)
    t = ad.Tensor(A)
    ad.psd_logdet(t, ad.chol_psd(A)).backward()
    want = np.linalg.inv(A)
    assert np.max(np.abs(t.grad - want)) <= 1e-12 * np.max(np.abs(want))


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
