"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine is an eager tape: every operation on a :class:`Tensor` records its
parents and the vector-Jacobian products needed to backpropagate through it.
Calling :meth:`Tensor.backward` on a scalar output fills ``.grad`` on every
leaf tensor (one with no parents, such as a parameter vector) that
contributed to it. Intermediate nodes keep no gradient, so each cotangent is
freed once its VJPs have run, and the plain arrays an operation lifted onto
the tape as constants (data, identity matrices) get no VJP evaluated.

All module-level math helpers (``exp``, ``cos_sin``, ``matmul``, ...) compute
their value once, from plain values, and pass it to ``_node``, the one
dispatch point: with no ``Tensor`` among the inputs it returns the plain
numpy value, otherwise a tape node over the inputs. This lets the model code
be written once and executed either way, with bit-identical values.

Linear algebra goes through three primitives: ``psd_solve``, ``psd_quad_diag``
(the row-wise quadratic forms behind a predictive variance) and
``psd_logdet``. The first runs triangular solves; the other two multiply by
the factor's triangular inverse (one LAPACK ``dtrtri``), which over many rows
runs near GEMM speed. The Cholesky factorization itself is never
differentiated through. None factors its matrix: the caller computes the
factor once with ``chol_psd`` and passes it to every solve, quadratic form and
log-determinant of that matrix. The trigonometric feature maps go through one
more fused primitive, ``cos_sin``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrmm
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
        """Backpropagate from this (scalar) tensor, filling the leaves' ``.grad``."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.value)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node.parents:
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


def _node(out, inputs, vjps):
    """``out`` itself when no input is a tensor, else a tape node over the inputs.

    The one place an operation decides between plain and traced: every
    operation computes its value once from plain values and hands it here,
    with one VJP per input.
    """
    if not _is_tensor(*inputs):
        return out
    return Tensor(out, tuple(x if isinstance(x, Tensor) else _Constant(x) for x in inputs),
                  vjps)


# -- elementwise binary ops -------------------------------------------------


def add(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av + bv, (a, b), (
        lambda g: _unbroadcast(g, av.shape),
        lambda g: _unbroadcast(g, bv.shape),
    ))


def multiply(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av * bv, (a, b), (
        lambda g: _unbroadcast(g * bv, av.shape),
        lambda g: _unbroadcast(g * av, bv.shape),
    ))


def divide(a, b):
    av, bv = _as_value(a), _as_value(b)
    return _node(av / bv, (a, b), (
        lambda g: _unbroadcast(g / bv, av.shape),
        lambda g: _unbroadcast(-g * av / bv**2, bv.shape),
    ))


def negative(a):
    return _node(-_as_value(a), (a,), (lambda g: -g,))


# -- elementwise unary ops --------------------------------------------------


def exp(a):
    out = np.exp(_as_value(a))
    return _node(out, (a,), (lambda g: g * out,))


def log(a):
    av = _as_value(a)
    return _node(np.log(av), (a,), (lambda g: g / av,))


def cos_sin(a):
    """``[cos(a), sin(a)]`` joined along the last axis, as one tape node.

    The VJP reuses the forward cosines and sines instead of evaluating the
    other function again.
    """
    av = _as_value(a)
    c, s = np.cos(av), np.sin(av)
    m = av.shape[-1]
    return _node(np.concatenate([c, s], axis=-1), (a,),
                 (lambda g: c * g[..., m:] - s * g[..., :m],))


# -- structural ops ---------------------------------------------------------


def matmul(a, b):
    av, bv = _as_value(a), _as_value(b)
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {av.ndim}-D @ {bv.ndim}-D")
    # the VJPs view a 1-D left operand as a row and a 1-D right one as a column
    a2, b2 = np.atleast_2d(av), bv.reshape(bv.shape[0], -1)

    def as_2d(g):
        return np.reshape(g, (a2.shape[0], b2.shape[1]))

    return _node(av @ bv, (a, b), (
        lambda g: (as_2d(g) @ b2.T).reshape(av.shape),
        lambda g: (a2.T @ as_2d(g)).reshape(bv.shape),
    ))


def transpose(a):
    return _node(_as_value(a).T, (a,), (lambda g: g.T,))


def reshape(a, shape):
    av = _as_value(a)
    return _node(av.reshape(shape), (a,), (lambda g: g.reshape(av.shape),))


def expand_last(a):
    """Append a trailing unit axis (for column-style broadcasting)."""
    return reshape(a, np.shape(a) + (1,))


def sum_(a):
    """Sum of all entries."""
    av = _as_value(a)
    return _node(np.sum(av), (a,), (lambda g: np.broadcast_to(g, av.shape).copy(),))


def concatenate(parts, axis=0):
    values = [_as_value(p) for p in parts]
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def make_vjp(i):
        index = [slice(None)] * values[i].ndim
        index[axis] = slice(offsets[i], offsets[i + 1])
        return lambda g: g[tuple(index)]

    return _node(np.concatenate(values, axis=axis), tuple(parts),
                 tuple(make_vjp(i) for i in range(len(parts))))


def take(a, idx):
    av = _as_value(a)

    def vjp(g):
        buf = np.zeros(av.shape)
        np.add.at(buf, idx, g)
        return buf

    return _node(av[idx], (a,), (vjp,))


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
    X = chol_solve(L, _as_value(B))
    solved = _per_cotangent(lambda g: chol_solve(L, g))

    def vjp_A(g):
        gb = solved(g)
        if X.ndim == 1:
            return -np.outer(gb, X)
        return -gb @ X.T

    return _node(X, (A, B), (vjp_A, solved))


def _tri_inverse(L):
    """L^-1 of a lower-triangular factor, from one LAPACK ``dtrtri``."""
    L_inv, info = dtrtri(L, lower=1)
    if info:
        raise FactorizationError(f"triangular inverse failed: dtrtri info={info}")
    return L_inv


def psd_quad_diag(A, L, F):
    """Row-wise quadratic forms f.(A^-1 f) of F, (n,) or (N, n), given A = L L^T.

    One ``dtrtri`` forms L^-1, and triangular multiplies by it give
    V = L^-1 F^T and, for both adjoints, S = L^-T V = A^-1 F^T: F-bar = 2 g S^T
    and A-bar = -(S g) S^T. The value is the column sums of V^2, so it is
    nonnegative by construction whatever the rounding in L^-1.
    """
    L_inv = _tri_inverse(L)
    V = dtrmm(1.0, L_inv, _as_value(F).T, lower=1)
    out = np.sum(V * V, axis=0)
    S = _per_cotangent(lambda g: dtrmm(1.0, L_inv, V, lower=1, trans_a=1))

    def vjp_A(g):
        s = S(g)
        return -g * np.outer(s, s) if V.ndim == 1 else -(s * g) @ s.T

    def vjp_F(g):
        return 2.0 * (S(g) * g).T

    return _node(out, (A, F), (vjp_A, vjp_F))


def psd_logdet(A, L):
    """log-determinant of a symmetric positive-definite A with Cholesky factor L."""
    out = 2.0 * np.sum(np.log(np.diag(L)))

    def vjp(g):
        # the gradient of log|A| is A^-1 itself, formed as L^-T L^-1
        L_inv = _tri_inverse(L)
        return g * (L_inv.T @ L_inv)

    return _node(out, (A,), (vjp,))


def check_finite(x, what: str):
    """Raise :class:`NonFiniteError` naming ``what`` if ``x`` has non-finite entries."""
    v = _as_value(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"non-finite values in {what}")
    return x
