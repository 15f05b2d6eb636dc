"""The parameter registry and the attention and feed-forward blocks that the
perceiver, the HMP blocks and the motion decoder share.

Parameter names are the checkpoint format: a module registers its attention
block as `attn.wq`, `attn.bq` ... `attn.wo`, `attn.bo` and its feed-forward
block as `ffn.w1` ... `ffn.b2`, under the module's prefix and in that order.
`attn.bk` stays registered only because parameter names are the checkpoint
format; attention never reads it, so it gets no gradient and stays zero under
training.

An `Attention` call is one autodiff node around the shared
softmax-attention core `tensor.softmax_attention`, which cue injection
(`perceiver.inject_cues`) calls too.
"""

from __future__ import annotations

import numpy as np

from .tensor import Parameter, Tensor, linear, node, softmax_attention


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
    through unchanged because attention rows sum to 1.  A call is one autodiff
    node, which forms key and value gradients only where needed."""

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
        params = (self.wq, self.bq, self.wk, self.wv, self.bv, self.wo, self.bo)
        wq, bq, wk, wv, bv, wo, bo = (p.data for p in params)
        q = q_in.data @ wq + bq
        q_keys = (q @ wk.swapaxes(-1, -2)) * self.scale  # pre-scaled, so the core scales by 1
        attended, attend_backward = softmax_attention(q_keys, k_in.data, v_in.data, 1.0)
        context = attended @ wv + bv

        def backward(g, needs):
            d_context = g @ wo.T
            d_attended = d_context @ wv.T
            d_q_keys, d_k_in, d_v_in = attend_backward(d_attended, needs)
            d_keys = d_q_keys * self.scale
            d_q = d_keys @ wk
            return (d_q @ wq.T, d_k_in, d_v_in, q_in.data.swapaxes(-1, -2) @ d_q, d_q,
                    d_keys.swapaxes(-1, -2) @ q, attended.swapaxes(-1, -2) @ d_context,
                    d_context, context.swapaxes(-1, -2) @ g, g)

        return node(context @ wo + bo, (q_in, k_in, v_in, *params), backward)


class FeedForward:
    """Two-layer ReLU MLP whose output projection starts small."""

    def __init__(self, p, rng: np.random.Generator, channels: int, hidden: int):
        self.w1 = p("ffn.w1", init_weight(rng, channels, hidden))
        self.b1 = p("ffn.b1", np.zeros(hidden))
        self.w2 = p("ffn.w2", 0.1 * init_weight(rng, hidden, channels))
        self.b2 = p("ffn.b2", np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(linear(x, self.w1, self.b1).relu(), self.w2, self.b2)
