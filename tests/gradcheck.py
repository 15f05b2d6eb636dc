"""Autodiff helpers that only the tests use: `grad_check`, the
finite-difference oracle of every gradient test, and `sigmoid`, a
differentiable sigmoid node for the reference losses and mask checks."""

import numpy as np

from motionscope.tensor import node, stable_sigmoid


def sigmoid(x):
    """Elementwise `stable_sigmoid` of `x` as one node, whose gradient is
    g·s·(1 - s) with s its value."""
    data = stable_sigmoid(x.data)
    return node(data, (x,), lambda g, needs: (g * data * (1.0 - data),))


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
