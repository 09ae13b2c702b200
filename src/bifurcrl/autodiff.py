"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The networks in this package are tiny (a few layers of a few hundred units),
so a minimal engine over numpy is enough and keeps everything self-contained.
All values are float64; gradients of a scalar output are exact up to roundoff.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf as _erf

from .errors import ConfigError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
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
    """A node in the computation tape.

    `data` is a float64 ndarray. Leaf tensors created with requires_grad=True
    accumulate gradients in `grad` across backward() calls until zero_grad().
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _bwd=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not requires_grad:
            for p in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = _parents
        self._bwd = _bwd
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        `self` must be scalar unless a seed gradient of matching shape is given.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        # nodes hash by identity, so they key the sets and dicts directly
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if node in seen:
                continue
            if done:
                seen.add(node)
                topo.append(node)
                continue
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and p not in seen)
        grads = {self: np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._bwd is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in node._bwd(g):
                if not parent.requires_grad:
                    continue
                if pg.shape != parent.data.shape:
                    pg = _unbroadcast(pg, parent.data.shape)
                prev = grads.get(parent)
                grads[parent] = pg if prev is None else prev + pg

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name=None) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


# -- primitive ops ------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data + b.data, _parents=(a, b),
                  _bwd=lambda g: ((a, g), (b, g)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data - b.data, _parents=(a, b),
                  _bwd=lambda g: ((a, g), (b, -g)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data * b.data, _parents=(a, b),
                  _bwd=lambda g: ((a, g * b.data), (b, g * a.data)))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data / b.data, _parents=(a, b),
                  _bwd=lambda g: ((a, g / b.data), (b, -g * a.data / (b.data * b.data))))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ConfigError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ConfigError(
            f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    return Tensor(a.data @ b.data, _parents=(a, b),
                  _bwd=lambda g: ((a, g @ b.data.T), (b, a.data.T @ g)))


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor(out, _parents=(a,), _bwd=lambda g: ((a, g * out),))


def log(a):
    a = as_tensor(a)
    # log(0) = -inf is the intended value for zero mixture weights; the
    # downstream log-sum-exp discards those branches, so keep numpy quiet
    with np.errstate(divide="ignore"):
        out = np.log(a.data)
    return Tensor(out, _parents=(a,), _bwd=lambda g: ((a, g / a.data),))


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return Tensor(out, _parents=(a,), _bwd=lambda g: ((a, g * (1.0 - out * out)),))


def gelu_parts(x: np.ndarray):
    """(x * Phi(x), its derivative) with the exact-erf normal CDF Phi.

    In place on two buffers, the same IEEE operations as the plain
    expressions phi = 0.5 * (1 + erf(x / sqrt 2)) and
    phi + x * pdf(x), pdf(x) = exp(-0.5 * x * x) / sqrt(2 pi)."""
    phi = np.divide(x, _SQRT2, out=np.empty_like(x))
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    slope = np.multiply(x, -0.5, out=np.empty_like(x))
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= x
    slope += phi
    return x * phi, slope


def dense_parts(x: np.ndarray, w: np.ndarray, b: np.ndarray, gelu: bool):
    """(gelu(x @ w + b), its slope), or (x @ w + b, None). Also runs stacked
    layers, (2, in, out) weights with (2, 1, out) biases: np.matmul makes one
    BLAS call per slice, so each slice equals its own layer bit for bit."""
    z = x @ w + b
    return gelu_parts(z) if gelu else (z, None)


def dense(x: Tensor, w: Tensor, b: Tensor, gelu=False):
    """One node for a dense layer, with the same IEEE operations, forward and
    backward, as the matmul, add and gelu nodes it stands for."""
    out, slope = dense_parts(x.data, w.data, b.data, gelu)

    def bwd(g):
        g = g if slope is None else g * slope
        grads = ((w, x.data.T @ g), (b, g.sum(axis=0)))
        return ((x, g @ w.data.T),) + grads if x.requires_grad else grads

    return Tensor(out, _parents=(x, w, b), _bwd=bwd)


def gelu(a):
    """x * Phi(x) with the exact-erf normal CDF."""
    a = as_tensor(a)
    out, slope = gelu_parts(a.data)
    return Tensor(out, _parents=(a,), _bwd=lambda g: ((a, g * slope),))


def sigmoid(a):
    a = as_tensor(a)
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return Tensor(out, _parents=(a,),
                  _bwd=lambda g: ((a, g * out * (1.0 - out)),))


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((a, np.broadcast_to(g, a.data.shape)),)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _bwd=lambda g: ((a, g.reshape(old)),))


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    data = [t.data for t in tensors]
    out = np.concatenate(data, axis=axis)
    sizes = [d.shape[axis] for d in data]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(zip(tensors, parts))

    return Tensor(out, _parents=tuple(tensors), _bwd=bwd)


def where(cond: np.ndarray, a, b):
    """Select elementwise by a constant boolean mask; gradient routes accordingly."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out = np.where(cond, a.data, b.data)
    zero = 0.0
    return Tensor(out, _parents=(a, b),
                  _bwd=lambda g: ((a, np.where(cond, g, zero)),
                                  (b, np.where(cond, zero, g))))


def minimum(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data <= b.data, a, b)


def take(a, key):
    """a.data[key] for any numpy index; the gradient scatters back into zeros
    (summing over repeated indices)."""
    a = as_tensor(a)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return ((a, full),)

    return Tensor(a.data[key], _parents=(a,), _bwd=bwd)


def logsumexp(a, axis, keepdims=False):
    """Numerically stable log-sum-exp along `axis` (max-shift, constant shift)."""
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = sub(a, Tensor(m))
    out = add(log(tsum(exp(shifted), axis=axis, keepdims=True)), Tensor(m))
    if not keepdims:
        out = reshape(out, np.squeeze(out.data, axis=axis).shape)
    return out


def softmax(a, axis=-1):
    m = a.data.max(axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(m)))
    return div(e, tsum(e, axis=axis, keepdims=True))


def smooth_clamp(a, lo: float, hi: float):
    """Smooth monotone map of the real line onto (lo, hi) via a sigmoid."""
    return add(mul(sigmoid(a), hi - lo), lo)


# -- verification harness ------------------------------------------------

def finite_diff_check(loss_fn, params, h: float = 1e-4) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    `loss_fn()` must rebuild the graph from the current parameter data and
    return a scalar Tensor. Relative error is |ad - fd| / max(|ad|, |fd|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for p in params:
        ad = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            dn = float(loss_fn().data)
            flat[i] = orig
            fd[i] = (up - dn) / (2.0 * h)
        fd = fd.reshape(p.data.shape)
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(ad - fd) / denom)))
    return worst
