"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine is an eager tape: every operation on a :class:`Tensor` records its
parents and the vector-Jacobian products needed to backpropagate through it.
Calling :meth:`Tensor.backward` on a scalar output fills ``.grad`` on every
tensor that contributed to it.

All module-level math helpers (``cos``, ``exp``, ``matmul``, ...) dispatch on
type: given plain numpy inputs they evaluate eagerly with numpy and return
numpy, given a ``Tensor`` they extend the tape. This lets the model code be
written once and executed either way.

Linear algebra goes through two primitives, ``psd_solve`` and ``psd_logdet``,
whose adjoints are expressed in terms of additional triangular solves, so the
Cholesky factorization itself is never differentiated through. Neither
factors its matrix: the caller computes the factor once with ``chol_psd``
and passes it to every solve and log-determinant of that matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular


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

    @property
    def T(self):
        return transpose(self)

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

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def item(self):
        return self.value.item()

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


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


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


def power(a, p):
    if not _is_tensor(a):
        return np.power(a, p)
    p = float(p)
    out = a.value**p
    return Tensor(out, (a,), (lambda g: g * p * a.value ** (p - 1.0),))


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


def sqrt(a):
    if not _is_tensor(a):
        return np.sqrt(a)
    out = np.sqrt(a.value)
    return Tensor(out, (a,), (lambda g: g * 0.5 / out,))


def cos(a):
    if not _is_tensor(a):
        return np.cos(a)
    return Tensor(np.cos(a.value), (a,), (lambda g: -g * np.sin(a.value),))


def sin(a):
    if not _is_tensor(a):
        return np.sin(a)
    return Tensor(np.sin(a.value), (a,), (lambda g: g * np.cos(a.value),))


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


def psd_solve(A, L, B):
    """Solve A X = B for symmetric positive-definite A with Cholesky factor L."""
    if not _is_tensor(A, B):
        return chol_solve(L, B)
    A, B = _lift(A), _lift(B)
    X = chol_solve(L, B.value)

    def vjp_A(g):
        gb = chol_solve(L, g)
        if X.ndim == 1:
            return -np.outer(gb, X)
        return -gb @ X.T

    def vjp_B(g):
        return chol_solve(L, g)

    return Tensor(X, (A, B), (vjp_A, vjp_B))


def psd_logdet(A, L):
    """log-determinant of a symmetric positive-definite A with Cholesky factor L."""
    out = 2.0 * np.sum(np.log(np.diag(L)))
    if not _is_tensor(A):
        return out

    def vjp(g):
        inv = chol_solve(L, np.eye(L.shape[0]))
        return g * inv

    return Tensor(out, (A,), (vjp,))


def check_finite(x, what: str):
    """Raise :class:`NonFiniteError` naming ``what`` if ``x`` has non-finite entries."""
    v = _as_value(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"non-finite values in {what}")
    return x
