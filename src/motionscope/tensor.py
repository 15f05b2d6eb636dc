"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (perception, motion blocks, losses) is built from the
small op set here.  Tensors are immutable values; gradients accumulate on the
graph during ``backward`` and live on the tensors themselves.  All arithmetic
is 64-bit and reductions run in numpy's fixed index order, so a run is
bit-reproducible for a fixed seed.

The op contract.  Every op, from `+` to a whole attention block, is one
`node`: its value, its operands and one `backward(g, needs)`.  Given the
output's gradient `g`, the backward returns one gradient per operand, each
still in the output's broadcast shape.  `needs` flags the operands that need
a gradient: where a flag is False the backward may return None, and whatever
it returns there is dropped, so an op forms only the gradients that are
needed and never tests ``requires_grad`` itself.  ``Tensor.backward`` alone
writes ``.grad``: in reverse topological order it calls each node's backward
once, then sums each needed gradient down to its operand's shape and
accumulates it, in operand order.  A backward may return the output gradient itself or a view of it
(views for distinct operands must not overlap, and ``concat``'s slices do
not), and an operand with no gradient yet adopts that buffer without a copy.
The one ownership rule: a node's own buffer goes by reference only to its
first operand that needs a gradient, and a later operand that would receive
the same object gets a copy, so no two pending gradients share memory.

A `Parameter` is a named leaf `Tensor` that requires a gradient, and modules
pass it to ops like any other operand.  Its `grad` is None until a backward
pass reaches it, so a parameter that no op reads keeps None, which the
optimizer and `grad_check` take as a zero gradient.

Four blocks are one node each: `layers.Attention`, the cue injection
`perceiver.inject_cues`, the hierarchical branch `hmp.hierarchical_branch` and
the matched set loss `losses._set_loss`.  The first two share the one
softmax-attention core, `softmax_attention` here, which returns its value and
its backward as numpy arrays.  The set loss takes its softplus and sigmoid
from `softplus_sigmoid`, one exp for both.  These numpy kernels work in place
only on buffers they create: an input, or an incoming gradient that
`Tensor.backward` may share with an operand, is never written.
"""

from __future__ import annotations

from itertools import compress

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: no exp overflows."""
    e = np.exp(-np.abs(x))
    # the numerator where(x >= 0, 1, e), since 0 <= e <= 1, at a fraction of `where`'s cost
    return np.maximum(e, x >= 0) / (1.0 + e)


def softplus_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softplus log(1 + e^x) and sigmoid of `x` from one exp e = e^-|x|:
    max(x, 0) + log1p(e), and `stable_sigmoid`'s quotient bit for bit."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    softplus = np.log1p(e)
    softplus += np.maximum(x, 0.0)
    sigmoid = np.maximum(e, x >= 0)  # `stable_sigmoid`'s numerator
    e += 1.0
    sigmoid /= e
    return softplus, sigmoid


def stable_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted softmax of `x` along `axis`, in one new buffer."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of softmax's input, (g - Σ g·y)·y, given its output `y` and
    output gradient `g`, in one new buffer."""
    d = g * y
    np.subtract(g, d.sum(axis=axis, keepdims=True), out=d)
    d *= y
    return d


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float):
    """softmax(q kᵀ · scale) v over the last two axes; rows of the result are
    convex combinations of rows of v.  Returns the result and its backward,
    `backward(d_out, needs)` -> (d_q summed to q's shape, d_k, d_v): `needs`
    holds `node`'s flags for operands (q, k, v, ...), and a key or value
    gradient that is not needed is None.  A scale of exactly 1.0 is skipped,
    which is exact."""
    scores = q @ k.swapaxes(-1, -2)
    if scale != 1.0:
        scores *= scale
    weights = stable_softmax(scores, axis=-1)

    def backward(d_out, needs):
        d_scores = softmax_backward(d_out @ v.swapaxes(-1, -2), weights, -1)
        if scale != 1.0:
            d_scores *= scale
        return (unbroadcast(d_scores @ k, q.shape),
                d_scores.swapaxes(-1, -2) @ q if needs[1] else None,
                weights.swapaxes(-1, -2) @ d_out if needs[2] else None)

    return weights @ v, backward


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d float64 array plus the tape hooks for reverse-mode autodiff."""

    # a node keeps its operands that need a gradient (`_parents`), every
    # operand's flag (`_needs`) and its backward; a leaf has no parents
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_needs", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -----------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            op, expanded = stack.pop()
            if expanded:
                topo.append(op)
                continue
            if id(op) in seen:
                continue
            seen.add(id(op))
            stack.append((op, True))
            for parent in op._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for op in reversed(topo):
            if not op._parents:
                continue
            g = op.grad
            grads = compress(op._backward(g, op._needs), op._needs)
            for i, (parent, grad) in enumerate(zip(op._parents, grads)):
                grad = unbroadcast(grad, parent.data.shape)
                if parent.grad is not None:
                    parent.grad += grad
                elif i and grad is g:
                    # the first operand may already hold `g` by reference
                    parent.grad = g.copy()
                else:
                    parent.grad = grad

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._lift(other)
        return node(self.data + other.data, (self, other), lambda g, needs: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return node(self.data - other.data, (self, other),
                    lambda g, needs: (g, -g if needs[1] else None))

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, self._lift(other)
        return node(a.data * b.data, (a, b), lambda g, needs: (g * b.data if needs[0] else None,
                                                               g * a.data if needs[1] else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, self._lift(other)
        return node(a.data / b.data, (a, b), lambda g, needs: (
            g / b.data if needs[0] else None,
            -g * a.data / (b.data * b.data) if needs[1] else None))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        return node(self.data.reshape(shape), (self,), lambda g, needs: (g.reshape(self.shape),))

    def swapaxes(self, ax1: int, ax2: int):
        return node(self.data.swapaxes(ax1, ax2), (self,),
                    lambda g, needs: (g.swapaxes(ax1, ax2),))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g, needs):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return node(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return node(data, (self,), lambda g, needs: (g * data,))

    def log(self):
        return node(np.log(self.data), (self,), lambda g, needs: (g / self.data,))

    def sqrt(self):
        data = np.sqrt(self.data)
        return node(data, (self,), lambda g, needs: (g * 0.5 / data,))

    def sigmoid(self):
        data = stable_sigmoid(self.data)
        return node(data, (self,), lambda g, needs: (g * data * (1.0 - data),))

    def relu(self):
        return node(np.maximum(self.data, 0.0), (self,), lambda g, needs: (g * (self.data > 0.0),))

    # -- matmul ----------------------------------------------------------------

    def __matmul__(self, other):
        a, b = self, self._lift(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
        return node(a.data @ b.data, (a, b), lambda g, needs: (
            g @ b.data.swapaxes(-1, -2) if needs[0] else None,
            a.data.swapaxes(-1, -2) @ g if needs[1] else None))


def node(data: np.ndarray, operands, backward) -> Tensor:
    """The op whose value is `data`: `backward(g, needs)` returns one gradient
    per operand, and needs to form only those that `needs` flags."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._needs = tuple(t.requires_grad for t in operands)
    out._parents = tuple(compress(operands, out._needs))
    out.requires_grad = bool(out._parents)
    out._backward = backward
    return out


def take(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along `axis`; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    ax = axis % x.ndim

    def backward(g, needs):
        full = np.zeros_like(x.data)
        where = (slice(None),) * ax + (idx,)
        # distinct slices (a negative index names the slice it wraps to) each
        # take their gradient once, so a plain store equals the accumulation
        if len(set((idx % x.shape[ax]).ravel().tolist())) == idx.size:
            full[where] = g
        else:
            np.add.at(full, where, g)
        return (full,)

    return node(np.take(x.data, idx, axis=axis), (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ends = np.cumsum([p.shape[axis] for p in parts])[:-1]
    # the parts' slices are disjoint views, safe to adopt directly
    return node(data, parts, lambda g, needs: np.split(g, ends, axis=axis))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def standardize(x: Tensor, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Zero-mean, unit-variance normalization along `axis` (no learned affine)."""
    n = x.shape[axis]  # each mean is ndarray.mean's sum and divide, without its Python layer
    centered = x.data - np.add.reduce(x.data, axis=axis, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(centered * centered, axis=axis, keepdims=True) / n + eps)
    data = centered / sigma

    def backward(g, needs):
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        proj = np.add.reduce(g * data, axis=axis, keepdims=True) / n
        return ((g - g_mean - data * proj) / sigma,)

    return node(data, (x,), backward)


class Parameter(Tensor):
    """A named leaf tensor that requires a gradient; names are unique within a model."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def grad_check(params, loss_fn, h: float = 1e-5) -> float:
    """Max over all parameter entries of |analytic - central difference|
    normalized by max(1, |central difference|)."""
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise FloatingPointError("loss is not finite")
    loss.backward()
    # a parameter that no op reached has no gradient, which is zero
    analytic = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params}

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("loss is not finite during finite differencing")
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(ana[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
