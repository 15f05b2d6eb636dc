"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (perception, motion blocks, losses) is built from the
small op set here.  Tensors are immutable values; gradients accumulate on the
graph during ``backward`` and live on the tensors themselves.  All arithmetic
is 64-bit and reductions run in numpy's fixed index order, so a run is
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import numpy as np

class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @classmethod
    def _op(cls, data: np.ndarray, parents, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        needed = tuple(p for p in parents if p.requires_grad)
        if needed:
            out.requires_grad = True
            out._parents = needed
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
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

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a gradient contribution.

        The buffer is adopted without copying: a donated array (or view) only
        ever aliases the gradient of a node whose backward already ran, so
        later in-place additions cannot corrupt a pending value.
        """
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def _accumulate_shared(self, grad: np.ndarray) -> None:
        """Add a contribution whose buffer another pending node also holds."""
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

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
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._lift(other)
        a, b = self, other
        data = a.data + b.data

        def bw(g):
            if a.requires_grad and b.requires_grad:
                ga = _unbroadcast(g, a.data.shape)
                gb = _unbroadcast(g, b.data.shape)
                if ga is g and gb is g:
                    # both sides would adopt the same buffer; copy one
                    a._accumulate(ga)
                    b._accumulate_shared(gb)
                else:
                    a._accumulate(ga)
                    b._accumulate(gb)
            elif a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            elif b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._op(data, (a, b), bw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        a, b = self, other
        data = a.data - b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return Tensor._op(data, (a, b), bw)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self, other
        data = a.data * b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._op(data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        a, b = self, other
        data = a.data / b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._op(data, (a, b), bw)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        a = self
        data = a.data.reshape(shape)

        def bw(g):
            a._accumulate(g.reshape(a.data.shape))

        return Tensor._op(data, (a,), bw)

    def swapaxes(self, ax1: int, ax2: int):
        a = self
        data = a.data.swapaxes(ax1, ax2)

        def bw(g):
            a._accumulate(g.swapaxes(ax1, ax2))

        return Tensor._op(data, (a,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._op(data, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self):
        a = self
        data = np.exp(a.data)

        def bw(g):
            a._accumulate(g * data)

        return Tensor._op(data, (a,), bw)

    def log(self):
        a = self
        data = np.log(a.data)

        def bw(g):
            a._accumulate(g / a.data)

        return Tensor._op(data, (a,), bw)

    def sqrt(self):
        a = self
        data = np.sqrt(a.data)

        def bw(g):
            a._accumulate(g * 0.5 / data)

        return Tensor._op(data, (a,), bw)

    def sigmoid(self):
        a = self
        data = stable_sigmoid(a.data)

        def bw(g):
            a._accumulate(g * data * (1.0 - data))

        return Tensor._op(data, (a,), bw)

    def relu(self):
        a = self
        data = np.maximum(a.data, 0.0)

        def bw(g):
            a._accumulate(g * (a.data > 0.0))

        return Tensor._op(data, (a,), bw)

    # -- matmul ----------------------------------------------------------------

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
        data = a.data @ b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

        return Tensor._op(data, (a, b), bw)


def take(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along `axis`; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    a = x
    data = np.take(a.data, idx, axis=axis)
    ax = axis % a.data.ndim

    def bw(g):
        full = np.zeros_like(a.data)
        where = (slice(None),) * ax + (idx,)
        # distinct slices (a negative index names the slice it wraps to) each
        # take their gradient once, so a plain store equals the accumulation
        if len(set((idx % a.data.shape[ax]).ravel().tolist())) == idx.size:
            full[where] = g
        else:
            np.add.at(full, where, g)
        a._accumulate(full)

    return Tensor._op(data, (a,), bw)


def repeat(x: Tensor, repeats: int, axis: int) -> Tensor:
    """np.repeat with scalar repeats: each slice along `axis` copied `repeats` times."""
    a = x
    ax = axis % a.data.ndim
    data = np.repeat(a.data, repeats, axis=ax)

    def bw(g):
        shape = a.data.shape[:ax] + (a.data.shape[ax], repeats) + a.data.shape[ax + 1:]
        a._accumulate(g.reshape(shape).sum(axis=ax + 1))

    return Tensor._op(data, (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    sizes = [p.data.shape[ax] for p in parts]

    def bw(g):
        # slices are disjoint views, safe to adopt directly
        offset = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                sl = (slice(None),) * ax + (slice(offset, offset + n),)
                p._accumulate(g[sl])
            offset += n

    return Tensor._op(data, tuple(parts), bw)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-subtracted softmax along `axis`; slices sum to 1."""
    if axis >= x.ndim or axis < -x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    a = x
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate((g - dot) * data)

    return Tensor._op(data, (a,), bw)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(C)) v over the last two axes; rows of the output
    are convex combinations of rows of v."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention channel mismatch: q {q.shape} vs k {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention key/value row mismatch: k {k.shape} vs v {v.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    return softmax(scores, axis=-1) @ v


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = x @ w
    if b is not None:
        out = out + b
    return out


def standardize(x: Tensor, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Zero-mean, unit-variance normalization along `axis` (no learned affine)."""
    a = x
    n = a.data.shape[axis]
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    sigma = np.sqrt((centered * centered).mean(axis=axis, keepdims=True) + eps)
    data = centered / sigma

    def bw(g):
        g_mean = g.mean(axis=axis, keepdims=True)
        proj = (g * data).mean(axis=axis, keepdims=True)
        a._accumulate((g - g_mean - data * proj) / sigma)

    return Tensor._op(data, (a,), bw)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross entropy on logits (stable fused form)."""
    a = logits
    y = np.asarray(targets, dtype=np.float64)
    data = np.logaddexp(0.0, a.data) - a.data * y

    def bw(g):
        a._accumulate(g * (stable_sigmoid(a.data) - y))

    return Tensor._op(data, (a,), bw)


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
