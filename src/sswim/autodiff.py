"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine is an eager tape: every operation on a :class:`Tensor` records
its tensor inputs as parents and one vector-Jacobian product (VJP), which
maps the output's cotangent to one cotangent per input at once (Griewank &
Walther, *Evaluating Derivatives*, ch. 3). Plain inputs (data, identity
matrices) are not parents, and their cotangents are dropped. Calling
:meth:`Tensor.backward` on a scalar output fills ``.grad`` on every leaf
tensor (one with no parents, such as a named segment of a parameter vector)
that contributed to it; no other node keeps a gradient. The pass is one-shot
and keeps an array only while something still reads it: each cotangent is
freed once its node's VJP has run, the VJP goes with the arrays it captured,
and an interior node (neither the root nor a leaf) drops its value too, since
every later reader of it is a VJP that has already run. Every node keeps its
parents. A second pass over the same tape, or a new operation over a node
whose value was dropped, raises :class:`TapeConsumedError`.

All module-level math helpers (``exp``, ``matmul``, ``trig_features``, ...)
compute their value once, from plain values, and pass it to ``_node``, the
one dispatch point: with no ``Tensor`` among the inputs it returns the plain
numpy value, otherwise a tape node over the tensor inputs. This lets the
model code be written once and executed either way, with bit-identical
values.

Linear algebra goes through three tape primitives: ``psd_solve``,
``psd_quad_diag`` (the row-wise quadratic forms behind a predictive
variance) and ``gaussian_evidence`` (the whole negative log evidence of a
Bayesian linear regression, one node over its Gram, its projected targets
and its noise variance). The first runs triangular solves; the others
multiply by the factor's triangular inverse, ``tri_inverse`` (one LAPACK
``dtrtri``), which over many rows runs near GEMM speed. ``psd_logdet`` is
a plain value read off the factor's diagonal: the evidence takes log|A| as
a value and folds its gradient, A^-1, into its own adjoint. The Cholesky
factorization itself is LAPACK ``dpotrf`` and is never differentiated
through. None of these factors its matrix: the caller computes the factor
once with ``chol_psd`` and passes it to every solve, log-determinant and
evidence of that matrix.
``psd_quad_diag`` takes the factor's inverse instead, which the caller forms
once and keeps (``ssgp.SsgpPosterior.factor_inverse``), so a quadratic form
costs only per-row work. A feature Gram Phi^T Phi is one node, ``gram``,
whose adjoint is a single GEMM. A whole trigonometric feature map, damped or
not, is one more fused primitive, ``trig_features``, whose node holds only
its N x 2M output. It forms cosine and sine from one vectorized tangent of
the half angle rather than from numpy's scalar libm ``cos`` and ``sin``,
within 1.5 ulp of them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri


class FactorizationError(RuntimeError):
    """Cholesky factorization failed even after the jitter retry."""


class NonFiniteError(RuntimeError):
    """A non-finite value appeared in a named intermediate quantity."""


class TapeConsumedError(RuntimeError):
    """``backward()`` already ran over this tape and freed what was asked for.

    Raised by a second pass over the tape and by reading an interior node's
    value, which the pass drops.
    """


def _as_value(x):
    return x._live_value() if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A tape node: a numpy value, its parents and its VJP.

    ``parents`` are the tensor inputs that made the node, and ``vjp(g)`` returns
    one cotangent per parent for the node's cotangent g. A leaf has neither.
    """

    # Keep numpy from consuming Tensors in mixed expressions; reflected
    # operators then run and lift the ndarray operand instead.
    __array_ufunc__ = None

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    def _live_value(self):
        """``value``, or :class:`TapeConsumedError` if the backward pass dropped it."""
        if self.value is None:
            raise TapeConsumedError("backward() already ran over this tape and dropped "
                                    "this interior node's value")
        return self.value

    @property
    def shape(self):
        return self._live_value().shape

    @property
    def ndim(self):
        return self._live_value().ndim

    def __repr__(self):
        return "Tensor(consumed)" if self.value is None else f"Tensor(shape={self.value.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- reverse pass -------------------------------------------------------

    def backward(self):
        """Backpropagate from this (scalar) tensor, filling the leaves' ``.grad``.

        Each node's VJP runs once, on the sum of the cotangents its children
        sent it. One-shot: each node drops its VJP, and with it the arrays it
        captured, as soon as it has run, and an interior node drops its value
        with it; nodes are visited children first, so every reader of that
        value has run by then. Only the root and the leaves keep their
        values. A second pass over the same tape raises
        :class:`TapeConsumedError`.
        """
        if self._live_value().size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        if any(node.parents and node.vjp is None for node in order):
            raise TapeConsumedError("backward() already ran over this tape")
        grads = {id(self): np.ones_like(self.value)}
        for node in reversed(order):
            g = grads.pop(id(node))
            if not node.parents:
                node.grad = g
                continue
            _propagate(grads, node, g)
            node.vjp = None
            if node is not self:
                node.value = None


def _propagate(grads, node, g):
    """Run ``node``'s VJP on its cotangent ``g`` and add each result into ``grads``.

    Out of the backward loop so that no local there keeps a dead cotangent
    or partial sum alive through the next node's VJP.
    """
    for parent, pg in zip(node.parents, node.vjp(g)):
        acc = grads.get(id(parent))
        grads[id(parent)] = pg if acc is None else acc + pg


def _topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _node(out, inputs, vjp):
    """``out`` itself when no input is a tensor, else a tape node over the tensor inputs.

    The one place an operation decides between plain and traced: every
    operation computes its value once from plain values and hands it here
    with its VJP, one cotangent per input. Only the tensor inputs become
    parents, and the plain ones' cotangents are dropped as the VJP returns.
    """
    traced = [i for i, x in enumerate(inputs) if isinstance(x, Tensor)]
    if not traced:
        return out

    def parents_vjp(g):
        cotangents = vjp(g)
        return [cotangents[i] for i in traced]

    return Tensor(out, tuple(inputs[i] for i in traced), parents_vjp)


# -- elementwise binary ops -------------------------------------------------


def add(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av + bv, (a, b),
                 lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))


def multiply(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av * bv, (a, b),
                 lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def divide(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av / bv, (a, b), lambda g: (
        _unbroadcast(g / bv, av.shape), _unbroadcast(-g * av / bv**2, bv.shape)))


# -- elementwise unary ops --------------------------------------------------


def exp(a):
    out = np.exp(_as_value(a))
    return _node(out, (a,), lambda g: (g * out,))


# -- trigonometric features -------------------------------------------------


def trig_features(x, om, scale, var=None):
    """``scale * [d * cos(x om^T), d * sin(x om^T)]`` as one tape node.

    ``x`` is (D,) or (N, D), ``om`` the (M, D) frequencies and ``scale`` a
    scalar. ``d = exp(-0.5 * var (om * om)^T)`` damps each frequency for a
    Gaussian input of diagonal variance ``var`` (broadcast against ``x``);
    ``var=None`` means d = 1. A damping exponent that overflows gives d = 0,
    its limit, without a warning.

    Cosine and sine both come from one tangent of the half angle: with
    t = tan(theta / 2) at each angle theta of x om^T and a = scale * d, the
    shared factor f = 2a / (1 + t^2) gives a cos(theta) = f - a and
    a sin(theta) = t f, written straight into the two halves of one output.
    numpy runs float64 ``tan`` as a SIMD loop (about 2 ns per element with
    AVX-512) where ``cos`` and ``sin`` are scalar libm calls (about 17 ns
    each); on a CPU without that loop ``tan`` falls back to libm too, and the
    one call still costs less than the two.
    At scale 1 and no damping each output is within 3.3e-16 (1.5 ulp at 1)
    of ``np.cos`` and ``np.sin`` at any angle, the doubles nearest multiples
    of pi/2 included, and the sine of a tiny angle keeps its relative
    accuracy. No double lies near enough to an odd multiple of pi for t^2 to
    overflow. An infinite angle gives NaN with numpy's "invalid value"
    warning, as ``np.cos`` does, and an infinite amplitude gives NaN; NaN
    propagates.

    The projection, tangents and damping are freed on return, because every
    adjoint follows from the output [out_c, out_s] alone: with cotangent
    [g_c, g_s],

        proj-bar = out_c g_s - out_s g_c,    (log d)-bar = out_c g_c + out_s g_s,

    and scale-bar = sum(g out) / scale.
    """
    xv, omv, sv = _as_value(x), _as_value(om), _as_value(scale)
    varv = None if var is None else _as_value(var)
    m = omv.shape[0]
    # halving om halves every product and sum exactly
    t = xv @ (0.5 * omv).T
    np.tan(t, out=t)
    amp2 = 2.0 * sv  # twice the amplitude a
    if varv is not None:
        # an overflow to inf damps to exp(-inf) = 0, the limit; a NaN still propagates
        with np.errstate(over="ignore"):
            damp = np.exp(-0.5 * (varv @ (omv * omv).T))
        damp *= amp2
        amp2 = damp
    out = np.empty(t.shape[:-1] + (2 * m,))
    out_c, out_s = out[..., :m], out[..., m:]
    np.multiply(t, t, out=out_c)
    out_c += 1.0
    np.divide(amp2, out_c, out=out_c)  # the shared factor f = 2a / (1 + t^2)
    np.multiply(t, out_c, out=out_s)
    amp2 *= 0.5
    # an infinite amplitude, an overflow that warned where it arose, gives
    # inf - inf here: NaN, which the fits reject, without a second warning
    with np.errstate(invalid="ignore"):
        out_c -= amp2

    def rows(a):
        return a.reshape(-1, a.shape[-1])

    def vjp(g):
        g_c, g_s = g[..., :m], g[..., m:]
        d_proj = out_c * g_s
        d_proj -= out_s * g_c
        d_om = rows(d_proj).T @ rows(xv)
        d_var = None
        if varv is not None:
            d_logd = out_c * g_c
            d_logd += out_s * g_s
            d_logd = _unbroadcast(d_logd, varv.shape[:-1] + (m,))
            d_om -= omv * (rows(d_logd).T @ rows(varv))
            d_var = -0.5 * (d_logd @ (omv * omv))
        if abs(sv) >= np.finfo(float).tiny:
            d_scale = np.vdot(g, out) / sv
        else:  # out has no significant bits left to divide by scale: rebuild it unscaled
            d_scale = np.vdot(g, trig_features(xv, omv, 1.0, varv))
        return d_proj @ omv, d_om, d_scale, d_var

    return _node(out, (x, om, scale, var), vjp)


# -- structural ops ---------------------------------------------------------


def matmul(a, b):
    av, bv = _as_value(a), _as_value(b)
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {av.ndim}-D @ {bv.ndim}-D")
    # the VJPs view a 1-D left operand as a row and a 1-D right one as a column
    a2, b2 = np.atleast_2d(av), bv.reshape(bv.shape[0], -1)

    def as_2d(g):
        return np.reshape(g, (a2.shape[0], b2.shape[1]))

    return _node(av @ bv, (a, b), lambda g: (
        (as_2d(g) @ b2.T).reshape(av.shape), (a2.T @ as_2d(g)).reshape(bv.shape)))


def gram(phi):
    """phi^T phi as one node; its adjoint phi (G-bar + G-bar^T) is one GEMM."""
    pv = _as_value(phi)
    return _node(pv.T @ pv, (phi,), lambda g: (pv @ (g + g.T),))


def transpose(a):
    return _node(_as_value(a).T, (a,), lambda g: (g.T,))


def reshape(a, shape):
    av = _as_value(a)
    return _node(av.reshape(shape), (a,), lambda g: (g.reshape(av.shape),))


def expand_last(a):
    """Append a trailing unit axis (for column-style broadcasting)."""
    return reshape(a, np.shape(a) + (1,))


# -- Cholesky-backed linear algebra -----------------------------------------


def chol_psd(A):
    """Lower Cholesky factor of a symmetric positive-definite matrix (LAPACK ``dpotrf``).

    ``A`` may be a tensor; the factor is always a plain array, never a tape
    node, with an exactly zero upper triangle. Retries once with a small
    diagonal jitter (1e-10 * mean diagonal), then raises
    :class:`FactorizationError` with condition diagnostics.
    """
    A = _as_value(A)
    try:
        return _potrf(A)
    except np.linalg.LinAlgError:
        pass
    n = A.shape[0]
    jitter = 1e-10 * np.trace(A) / n
    try:
        return _potrf(A + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        diag = np.diag(A)
        raise FactorizationError(
            "Cholesky factorization failed after jitter retry: "
            f"dim={n}, trace={np.trace(A):.6g}, diag range=[{diag.min():.6g}, "
            f"{diag.max():.6g}], asymmetry={np.abs(A - A.T).max():.3g}"
        ) from None


def _potrf(A):
    L, info = dpotrf(A, lower=1, clean=1)
    if info:  # a leading minor is not positive definite
        raise np.linalg.LinAlgError(f"dpotrf info={info}")
    return L


def chol_solve(L, B):
    """Solve A x = B given the lower Cholesky factor L of A.

    No finite check: L comes from a checked factorization, and a non-finite
    cotangent B must reach the gradient check as NaN, not stop the pass.
    """
    return cho_solve((L, True), B, check_finite=False)


def psd_solve(A, L, B):
    """Solve A X = B for symmetric positive-definite A with Cholesky factor L.

    One solve serves both adjoints: B-bar = A^-1 g and A-bar = -B-bar X^T.
    """
    X = chol_solve(L, _as_value(B))

    def vjp(g):
        gb = chol_solve(L, g)
        return (-np.outer(gb, X) if X.ndim == 1 else -gb @ X.T), gb

    return _node(X, (A, B), vjp)


def tri_inverse(L):
    """L^-1 of a lower-triangular factor, from one LAPACK ``dtrtri``."""
    L_inv, info = dtrtri(L, lower=1)
    if info:
        raise FactorizationError(f"triangular inverse failed: dtrtri info={info}")
    return L_inv


def psd_quad_diag(A, L_inv, F):
    """Row-wise quadratic forms f.(A^-1 f) of F, (n,) or (N, n), given L^-1 for A = L L^T.

    The caller forms L^-1 once with :func:`tri_inverse` and keeps it, so no
    call inverts anything. A triangular multiply by it gives V = L^-1 F^T,
    and the value is the column sums of V^2, so it is nonnegative by
    construction whatever the rounding in L^-1.

    Both adjoints come from S = L^-T V = A^-1 F^T, which the backward pass
    forms by one more triangular multiply in place over V (the pass is
    one-shot, so nothing reads V again): F-bar = 2 g S^T, laid out like F,
    and A-bar = -(S g) S^T = -F-bar^T S^T / 2, both formed at once. S^T lives
    only as long as it takes to form them.
    """
    V = dtrmm(1.0, L_inv, _as_value(F).T, lower=1)
    out = np.sum(V * V, axis=0)

    def vjp(g):
        # dtrmm returns Fortran order, so V is overwritten in place and S^T
        # is C-contiguous like F
        S_t = dtrmm(1.0, L_inv, V, lower=1, trans_a=1, overwrite_b=1).T
        F_bar = S_t * (2.0 * np.expand_dims(g, -1))
        return -0.5 * (np.outer(F_bar, S_t) if V.ndim == 1 else F_bar.T @ S_t), F_bar

    return _node(out, (A, F), vjp)


def psd_logdet(L):
    """log|A| of a symmetric positive-definite A = L L^T, a plain value (not a tape node)."""
    return 2.0 * np.sum(np.log(np.diag(L)))


def gaussian_evidence(A, L, logdet, b, alpha, noise_var, y):
    """Negative log evidence of targets y under y = Phi w + noise, w ~ N(0, I), as one node.

    A = Phi^T Phi + noise_var I has the Cholesky factor L and the
    log-determinant ``logdet``; b = Phi^T y and alpha = A^-1 b. y is (N,) or
    (N, P), P independent outputs sharing A. With F features and
    q = y.y - b.alpha the value is

        0.5 q / noise_var + P (0.5 log|A| - (F/2) log noise_var + (N/2) log(2 pi noise_var)).

    The node's inputs are A, b and noise_var; ``logdet`` and ``alpha`` enter as
    values, their dependence on A and b folded into the adjoints. With
    cotangent g:

        A-bar = g/2 (P A^-1 + alpha alpha^T / noise_var),    b-bar = -g alpha / noise_var,
        noise_var-bar = g (-q / (2 noise_var^2) + P (N - F) / (2 noise_var)).
    """
    bv, av, nv, yv = _as_value(b), _as_value(alpha), _as_value(noise_var), _as_value(y)
    n, n_feat = yv.shape[0], bv.shape[0]
    n_outputs = 1 if yv.ndim == 1 else yv.shape[1]
    quad = np.sum(yv * yv) - np.sum(bv * av)
    per_output = (0.5 * _as_value(logdet) - 0.5 * n_feat * np.log(nv)
                  + 0.5 * n * np.log(2.0 * np.pi * nv))
    out = 0.5 * quad / nv + n_outputs * per_output

    def vjp(g):
        L_inv = tri_inverse(L)  # A^-1 = L^-T L^-1
        a2 = av.reshape(n_feat, -1)
        return (0.5 * g * (n_outputs * (L_inv.T @ L_inv) + (a2 @ a2.T) / nv),
                -g * av / nv,
                g * (-0.5 * quad / nv**2 + 0.5 * n_outputs * (n - n_feat) / nv))

    return _node(out, (A, b, noise_var), vjp)


def check_finite(x, what: str):
    """Raise :class:`NonFiniteError` naming ``what`` if ``x`` has non-finite entries."""
    v = _as_value(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"non-finite values in {what}")
    return x
