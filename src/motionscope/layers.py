"""The parameter registry and the attention and feed-forward blocks that the
perceiver, the HMP blocks and the motion decoder share.

Parameter names are the checkpoint format: a module registers its attention
block as `attn.wq`, `attn.bq` ... `attn.wo`, `attn.bo` and its feed-forward
block as `ffn.w1` ... `ffn.b2`, under the module's prefix and in that order.
`attn.bk` stays registered only because parameter names are the checkpoint
format; attention never reads it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Parameter, Tensor, linear, softmax


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


def registry(prefix: str, params: list[Parameter]):
    """A function `p(name, arr)` that creates the parameter `prefix.name`,
    appends it to `params` and returns it."""

    def p(name: str, arr: np.ndarray) -> Parameter:
        param = Parameter(f"{prefix}.{name}", arr)
        params.append(param)
        return param

    return p


class Attention:
    """Projected attention: queries from `q_in`, keys from `k_in` and values
    from `v_in` (the last two with `kv_channels` inputs), then an output
    projection.  Weights are drawn in the order wq, wk, wv, wo; a caller that
    passes `wq` or `wk` in draws those itself.

    The key and value projections are reassociated onto the query side, so no
    projection of the key/value rows is ever built: scores are
    (q·wkᵀ)·k_inᵀ/√C and the context is (softmax·v_in)·wv + bv.  `bk` would add
    q·bk to every key's score alike, which softmax cancels, and `bv` passes
    through unchanged because attention rows sum to 1."""

    def __init__(self, p, rng: np.random.Generator, channels: int,
                 kv_channels: int | None = None, wq: np.ndarray | None = None,
                 wk: np.ndarray | None = None):
        c = channels
        ckv = kv_channels if kv_channels is not None else c
        self.wq = p("attn.wq", wq if wq is not None else init_weight(rng, c, c))
        self.bq = p("attn.bq", np.zeros(c))
        self.wk = p("attn.wk", wk if wk is not None else init_weight(rng, ckv, c))
        self.bk = p("attn.bk", np.zeros(c))
        self.wv = p("attn.wv", init_weight(rng, ckv, c))
        self.bv = p("attn.bv", np.zeros(c))
        # residual-branch outputs start small so the stream scale stays stable
        self.wo = p("attn.wo", 0.1 * init_weight(rng, c, c))
        self.bo = p("attn.bo", np.zeros(c))
        self.scale = 1.0 / np.sqrt(c)  # of the projected channels, not of k_in's

    def __call__(self, q_in: Tensor, k_in: Tensor, v_in: Tensor) -> Tensor:
        q = linear(q_in, self.wq.tensor, self.bq.tensor)
        q_keys = (q @ self.wk.tensor.swapaxes(-1, -2)) * self.scale
        weights = softmax(q_keys @ k_in.swapaxes(-1, -2), axis=-1)
        context = linear(weights @ v_in, self.wv.tensor, self.bv.tensor)
        return linear(context, self.wo.tensor, self.bo.tensor)


class FeedForward:
    """Two-layer ReLU MLP whose output projection starts small."""

    def __init__(self, p, rng: np.random.Generator, channels: int, hidden: int):
        self.w1 = p("ffn.w1", init_weight(rng, channels, hidden))
        self.b1 = p("ffn.b1", np.zeros(hidden))
        self.w2 = p("ffn.w2", 0.1 * init_weight(rng, hidden, channels))
        self.b2 = p("ffn.b2", np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(linear(x, self.w1.tensor, self.b1.tensor).relu(),
                      self.w2.tensor, self.b2.tensor)
