"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine is an eager tape: every operation on a :class:`Tensor` records its
parents and the vector-Jacobian products needed to backpropagate through it.
Calling :meth:`Tensor.backward` on a scalar output fills ``.grad`` on every
tensor that contributed to it, except the plain arrays an operation lifted
onto the tape as constants (data, identity matrices), whose VJPs are never
evaluated.

All module-level math helpers (``exp``, ``cos_sin``, ``matmul``, ...) dispatch on
type: given plain numpy inputs they evaluate eagerly with numpy and return
numpy, given a ``Tensor`` they extend the tape. This lets the model code be
written once and executed either way.

Linear algebra goes through three primitives: ``psd_solve``, ``psd_quad_diag``
(the row-wise quadratic forms behind a predictive variance) and
``psd_logdet``. Their adjoints are expressed in terms of additional
triangular solves or a triangular inverse, so the Cholesky factorization
itself is never differentiated through. None factors its matrix: the caller
computes the factor once with ``chol_psd`` and passes it to every solve,
quadratic form and log-determinant of that matrix. The trigonometric
feature maps go through one more fused primitive, ``cos_sin``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtri


class FactorizationError(RuntimeError):
    """Cholesky factorization failed even after the jitter retry."""


class NonFiniteError(RuntimeError):
    """A non-finite value appeared in a named intermediate quantity."""


def _as_value(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


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
    """A node in the tape: a numpy value plus backpropagation bookkeeping."""

    # Keep numpy from consuming Tensors in mixed expressions; reflected
    # operators then run and lift the ndarray operand instead.
    __array_ufunc__ = None

    __slots__ = ("value", "parents", "vjps", "grad")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self.vjps = vjps
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, negative(other))

    def __rsub__(self, other):
        return add(other, negative(self))

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __neg__(self):
        return negative(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    # -- reverse pass -------------------------------------------------------

    def backward(self):
        """Backpropagate from this (scalar) tensor, filling ``.grad``."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.value)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            node.grad = g
            for parent, vjp in zip(node.parents, node.vjps):
                if isinstance(parent, _Constant):
                    continue
                pg = vjp(g)
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


def _is_tensor(*xs):
    return any(isinstance(x, Tensor) for x in xs)


class _Constant(Tensor):
    """A plain array lifted into an operation; backward computes no VJP into it."""

    __slots__ = ()


def _lift(x):
    return x if isinstance(x, Tensor) else _Constant(x)


# -- elementwise binary ops -------------------------------------------------


def add(a, b):
    if not _is_tensor(a, b):
        return np.add(a, b)
    a, b = _lift(a), _lift(b)
    out = a.value + b.value
    return Tensor(out, (a, b), (
        lambda g: _unbroadcast(g, a.value.shape),
        lambda g: _unbroadcast(g, b.value.shape),
    ))


def multiply(a, b):
    if not _is_tensor(a, b):
        return np.multiply(a, b)
    a, b = _lift(a), _lift(b)
    out = a.value * b.value
    return Tensor(out, (a, b), (
        lambda g: _unbroadcast(g * b.value, a.value.shape),
        lambda g: _unbroadcast(g * a.value, b.value.shape),
    ))


def divide(a, b):
    if not _is_tensor(a, b):
        return np.divide(a, b)
    a, b = _lift(a), _lift(b)
    out = a.value / b.value
    return Tensor(out, (a, b), (
        lambda g: _unbroadcast(g / b.value, a.value.shape),
        lambda g: _unbroadcast(-g * a.value / b.value**2, b.value.shape),
    ))


def negative(a):
    if not _is_tensor(a):
        return np.negative(a)
    return Tensor(-a.value, (a,), (lambda g: -g,))


# -- elementwise unary ops --------------------------------------------------


def exp(a):
    if not _is_tensor(a):
        return np.exp(a)
    out = np.exp(a.value)
    return Tensor(out, (a,), (lambda g: g * out,))


def log(a):
    if not _is_tensor(a):
        return np.log(a)
    return Tensor(np.log(a.value), (a,), (lambda g: g / a.value,))


def cos_sin(a):
    """``[cos(a), sin(a)]`` joined along the last axis, as one tape node.

    The VJP reuses the forward cosines and sines instead of evaluating the
    other function again.
    """
    av = _as_value(a)
    c, s = np.cos(av), np.sin(av)
    out = np.concatenate([c, s], axis=-1)
    if not _is_tensor(a):
        return out
    m = av.shape[-1]
    return Tensor(out, (a,), (lambda g: c * g[..., m:] - s * g[..., :m],))


# -- structural ops ---------------------------------------------------------


def matmul(a, b):
    if not _is_tensor(a, b):
        return np.matmul(a, b)
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    out = av @ bv
    if av.ndim == 2 and bv.ndim == 2:
        vjps = (lambda g: g @ bv.T, lambda g: av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        vjps = (lambda g: bv @ g, lambda g: np.outer(av, g))
    elif av.ndim == 2 and bv.ndim == 1:
        vjps = (lambda g: np.outer(g, bv), lambda g: av.T @ g)
    elif av.ndim == 1 and bv.ndim == 1:
        vjps = (lambda g: g * bv, lambda g: g * av)
    else:
        raise ValueError(f"matmul supports 1-D/2-D operands, got {av.ndim}-D @ {bv.ndim}-D")
    return Tensor(out, (a, b), vjps)


def transpose(a):
    if not _is_tensor(a):
        return np.transpose(a)
    return Tensor(a.value.T, (a,), (lambda g: g.T,))


def reshape(a, shape):
    if not _is_tensor(a):
        return np.reshape(a, shape)
    old = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def expand_last(a):
    """Append a trailing unit axis (for column-style broadcasting)."""
    if not _is_tensor(a):
        return np.asarray(a)[..., None]
    return reshape(a, a.value.shape + (1,))


def sum_(a, axis=None, keepdims=False):
    if not _is_tensor(a):
        return np.sum(a, axis=axis, keepdims=keepdims)
    out = np.sum(a.value, axis=axis, keepdims=keepdims)
    shape = a.value.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        g_ = g
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(x if x >= 0 else x + len(shape) for x in axes):
                g_ = np.expand_dims(g_, ax)
        return np.broadcast_to(g_, shape).copy()

    return Tensor(out, (a,), (vjp,))


def concatenate(parts, axis=0):
    if not _is_tensor(*parts):
        return np.concatenate(parts, axis=axis)
    parts = [_lift(p) for p in parts]
    values = [p.value for p in parts]
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return Tensor(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


def take(a, idx):
    if not _is_tensor(a):
        return np.asarray(a)[idx]
    out = a.value[idx]
    shape = a.value.shape

    def vjp(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return buf

    return Tensor(out, (a,), (vjp,))


# -- Cholesky-backed linear algebra -----------------------------------------


def chol_psd(A):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    ``A`` may be a tensor; the factor is always a plain array, a constant of
    the tape. Retries once with a small diagonal jitter (1e-10 * mean
    diagonal), then raises :class:`FactorizationError` with condition
    diagnostics.
    """
    A = _as_value(A)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        pass
    n = A.shape[0]
    jitter = 1e-10 * np.trace(A) / n
    try:
        return np.linalg.cholesky(A + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        diag = np.diag(A)
        raise FactorizationError(
            "Cholesky factorization failed after jitter retry: "
            f"dim={n}, trace={np.trace(A):.6g}, diag range=[{diag.min():.6g}, "
            f"{diag.max():.6g}], asymmetry={np.abs(A - A.T).max():.3g}"
        ) from None


def chol_solve(L, B):
    """Solve A x = B given the lower Cholesky factor L of A."""
    return cho_solve((L, True), B)


def _per_cotangent(fn):
    """Memoize ``fn(g)`` for the adjoints of one node's parents.

    The backward pass hands every parent's VJP the same cotangent object, so
    a solve both adjoints need runs once per pass.
    """
    last = [None, None]

    def shared(g):
        if last[0] is not g:
            last[0], last[1] = g, fn(g)
        return last[1]

    return shared


def psd_solve(A, L, B):
    """Solve A X = B for symmetric positive-definite A with Cholesky factor L."""
    if not _is_tensor(A, B):
        return chol_solve(L, B)
    A, B = _lift(A), _lift(B)
    X = chol_solve(L, B.value)
    solved = _per_cotangent(lambda g: chol_solve(L, g))

    def vjp_A(g):
        gb = solved(g)
        if X.ndim == 1:
            return -np.outer(gb, X)
        return -gb @ X.T

    return Tensor(X, (A, B), (vjp_A, solved))


def psd_quad_diag(A, L, F):
    """Row-wise quadratic forms f.(A^-1 f) of F, (n,) or (N, n), given A = L L^T.

    One triangular solve V = L^-1 F^T; the value is the column sums of V^2,
    so it is nonnegative by construction. Both adjoints share
    S = L^-T V = A^-1 F^T: F-bar = 2 g S^T and A-bar = -(S g) S^T.
    """
    Fv = _as_value(F)
    V = solve_triangular(L, Fv.T, lower=True)
    out = np.sum(V * V, axis=0)
    if not _is_tensor(A, F):
        return out
    A, F = _lift(A), _lift(F)
    S = _per_cotangent(lambda g: solve_triangular(L, V, lower=True, trans="T"))

    def vjp_A(g):
        s = S(g)
        return -g * np.outer(s, s) if V.ndim == 1 else -(s * g) @ s.T

    def vjp_F(g):
        return 2.0 * (S(g) * g).T

    return Tensor(out, (A, F), (vjp_A, vjp_F))


def psd_logdet(A, L):
    """log-determinant of a symmetric positive-definite A with Cholesky factor L."""
    out = 2.0 * np.sum(np.log(np.diag(L)))
    if not _is_tensor(A):
        return out

    def vjp(g):
        # the gradient of log|A| is A^-1 itself, formed as L^-T L^-1
        L_inv, info = dtrtri(L, lower=1)
        if info:
            raise FactorizationError(f"triangular inverse failed: dtrtri info={info}")
        return g * (L_inv.T @ L_inv)

    return Tensor(out, (A,), (vjp,))


def check_finite(x, what: str):
    """Raise :class:`NonFiniteError` naming ``what`` if ``x`` has non-finite entries."""
    v = _as_value(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"non-finite values in {what}")
    return x
