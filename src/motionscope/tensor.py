"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (perception, motion blocks, losses) is built from the
small op set here.  Tensors are immutable values; gradients accumulate on the
graph during ``backward`` and live on the tensors themselves.  All arithmetic
is 64-bit and reductions run in numpy's fixed index order, so a run is
bit-reproducible for a fixed seed.

The op contract.  An op computes its value and hands ``Tensor._op`` one
(operand, gradient map) pair per operand; a map takes the output's gradient
and returns the operand's, still in the output's broadcast shape.  ``_op``
drops the operands that need no gradient, so no op tests ``requires_grad``.
``Tensor.backward`` alone writes ``.grad``: in reverse topological order, and
through each node's operands in order, it sums every mapped gradient down to
its operand's shape and accumulates it.  A map may return the output gradient
itself or a view of it (views for distinct operands must not overlap, and
``concat``'s slices do not), and an operand with no gradient yet adopts that
buffer without a copy.  The one ownership rule: a node's own buffer goes by
reference only to its first operand, and a later operand that would receive
the same object gets a copy, so no two pending gradients share memory.  A
fused op (`fused`) is one node for a whole block: a numpy forward, and one
backward pass per output gradient that hands each operand its own array.

Three blocks are fused nodes: `layers.Attention`, the cue injection
`perceiver.inject_cues` and the hierarchical branch `hmp.hierarchical_branch`.
The first two share the one softmax-attention core, `softmax_attention` here,
which returns its value and its backward as numpy arrays.
"""

from __future__ import annotations

import numpy as np

class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def stable_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted softmax of `x` along `axis`."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of softmax's input, given its output `y` and output gradient `g`."""
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float):
    """softmax(q kᵀ · scale) v over the last two axes; rows of the result are
    convex combinations of rows of v.  Returns the result and its backward,
    `backward(d_out, needs)` -> (d_q summed to q's shape, d_k, d_v): `needs`
    holds `fused`'s flags for operands (q, k, v, ...), and a key or value
    gradient that is not needed is None."""
    weights = stable_softmax((q @ k.swapaxes(-1, -2)) * scale, axis=-1)

    def backward(d_out, needs):
        d_scores = softmax_backward(d_out @ v.swapaxes(-1, -2), weights, -1) * scale
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_maps")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._grad_maps = ()

    @classmethod
    def _op(cls, data: np.ndarray, inputs) -> "Tensor":
        """The node holding `data`, an op's value over the (operand, gradient
        map) pairs `inputs`; the operands that need no gradient are dropped."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        parents, grad_maps = (), ()
        for operand, grad_map in inputs:
            if operand.requires_grad:
                parents += (operand,)
                grad_maps += (grad_map,)
        out.requires_grad = bool(parents)
        out._parents, out._grad_maps = parents, grad_maps
        return out

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
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            for i, (parent, grad_map) in enumerate(zip(node._parents, node._grad_maps)):
                grad = unbroadcast(grad_map(g), parent.data.shape)
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
        return Tensor._op(self.data + other.data, ((self, lambda g: g), (other, lambda g: g)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Tensor._op(self.data - other.data, ((self, lambda g: g), (other, lambda g: -g)))

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, self._lift(other)
        return Tensor._op(a.data * b.data, ((a, lambda g: g * b.data), (b, lambda g: g * a.data)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, self._lift(other)
        return Tensor._op(a.data / b.data, ((a, lambda g: g / b.data),
                                            (b, lambda g: -g * a.data / (b.data * b.data))))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        return Tensor._op(self.data.reshape(shape), ((self, lambda g: g.reshape(self.shape)),))

    def swapaxes(self, ax1: int, ax2: int):
        return Tensor._op(self.data.swapaxes(ax1, ax2), ((self, lambda g: g.swapaxes(ax1, ax2)),))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def grad_map(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape).copy()

        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims), ((self, grad_map),))

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return Tensor._op(data, ((self, lambda g: g * data),))

    def log(self):
        return Tensor._op(np.log(self.data), ((self, lambda g: g / self.data),))

    def sqrt(self):
        data = np.sqrt(self.data)
        return Tensor._op(data, ((self, lambda g: g * 0.5 / data),))

    def sigmoid(self):
        data = stable_sigmoid(self.data)
        return Tensor._op(data, ((self, lambda g: g * data * (1.0 - data)),))

    def relu(self):
        return Tensor._op(np.maximum(self.data, 0.0), ((self, lambda g: g * (self.data > 0.0)),))

    # -- matmul ----------------------------------------------------------------

    def __matmul__(self, other):
        a, b = self, self._lift(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
        return Tensor._op(a.data @ b.data, ((a, lambda g: g @ b.data.swapaxes(-1, -2)),
                                            (b, lambda g: a.data.swapaxes(-1, -2) @ g)))


def take(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along `axis`; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    ax = axis % x.ndim

    def grad_map(g):
        full = np.zeros_like(x.data)
        where = (slice(None),) * ax + (idx,)
        # distinct slices (a negative index names the slice it wraps to) each
        # take their gradient once, so a plain store equals the accumulation
        if len(set((idx % x.shape[ax]).ravel().tolist())) == idx.size:
            full[where] = g
        else:
            np.add.at(full, where, g)
        return full

    return Tensor._op(np.take(x.data, idx, axis=axis), ((x, grad_map),))


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    ends = np.cumsum([p.shape[ax] for p in parts]).tolist()

    def part_grad(stop, n):
        # the parts' slices are disjoint views, safe to adopt directly
        where = (slice(None),) * ax + (slice(stop - n, stop),)
        return lambda g: g[where]

    return Tensor._op(data, [(p, part_grad(stop, p.shape[ax])) for p, stop in zip(parts, ends)])


def fused(data: np.ndarray, operands, backward) -> Tensor:
    """A fused op's node: `backward(g, needs)` returns each needed operand's gradient."""
    needs = tuple(t.requires_grad for t in operands)
    memo = [None, None]  # the last output gradient and its operand gradients

    def share(g, i):
        if memo[0] is not g:
            memo[:] = g, backward(g, needs)
        return memo[1][i]

    return Tensor._op(data, [(t, lambda g, i=i: share(g, i)) for i, t in enumerate(operands)])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def standardize(x: Tensor, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Zero-mean, unit-variance normalization along `axis` (no learned affine)."""
    n = x.shape[axis]  # each mean is ndarray.mean's sum and divide, without its Python layer
    centered = x.data - np.add.reduce(x.data, axis=axis, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(centered * centered, axis=axis, keepdims=True) / n + eps)
    data = centered / sigma

    def grad_map(g):
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        proj = np.add.reduce(g * data, axis=axis, keepdims=True) / n
        return (g - g_mean - data * proj) / sigma

    return Tensor._op(data, ((x, grad_map),))


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross entropy on logits (stable fused form)."""
    y = np.asarray(targets, dtype=np.float64)
    data = np.logaddexp(0.0, logits.data) - logits.data * y
    return Tensor._op(data, ((logits, lambda g: g * (stable_sigmoid(logits.data) - y)),))


class Parameter:
    """A named trainable tensor; names are unique within a model."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray:
        if self.tensor.grad is None:
            return np.zeros_like(self.tensor.data)
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.data.shape})"


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
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.tensor.data.reshape(-1)
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
