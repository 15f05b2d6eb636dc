"""Hierarchical motion perception over linked object trajectories.

Each block runs temporal self-attention, a hierarchical cross-attention that
repeatedly highlights motion-relevant frames and merges neighbouring tokens
(halving the temporal length per stage), and a feed-forward layer.  The
self-attention and feed-forward branches are the shared blocks of `layers`.
All three branches are residual with output projections, so a block with
zeroed projections is the identity on its input.  The hierarchical branch is
one autodiff node: it pads the trajectories to a multiple of 2^n frames,
chains the numpy helpers `highlight`, `enrich` and `merge` n times, expands
the coarse tokens back and crops the padding, and differentiates all of it in
one hand-written pass.  The self-attention is one node as well.

Shapes: trajectories are [..., T, C] with motion cues [K_m, C]; the batched
case stacks trajectories on the leading axis and every op stays per-trajectory.
"""

from __future__ import annotations

import numpy as np

from .layers import Attention, FeedForward, init_weight, registry
from .tensor import (Parameter, Tensor, linear, node, softmax_backward, stable_softmax,
                     standardize, unbroadcast)


def highlight(traj: np.ndarray, motion_cues: np.ndarray):
    """Frame-vs-cue attention, normalized over the time axis.

    Returns the attention map [..., T_h, K_m] whose columns each sum to 1,
    and the per-frame weight [..., T_h] (row sums), which totals K_m.
    """
    scale = 1.0 / np.sqrt(traj.shape[-1])
    attn = stable_softmax((traj @ motion_cues.swapaxes(-1, -2)) * scale, axis=-2)
    return attn, attn.sum(axis=-1)


def enrich(traj: np.ndarray, attn: np.ndarray, frame_weight: np.ndarray,
           motion_cues: np.ndarray) -> np.ndarray:
    """Add to each frame token a convex combination of the motion cues,
    weighted by that frame's share of the attention."""
    return traj + (attn / frame_weight[..., None]) @ motion_cues


def merge(enriched: np.ndarray, frame_weight: np.ndarray) -> np.ndarray:
    """Blend each neighbouring frame pair into one token by weighted average."""
    t_len = enriched.shape[-2]
    if t_len % 2 != 0:
        raise ValueError(f"merge needs an even temporal length, got {t_len}")
    # [..., T, C] -> [..., T/2, 2, C]: each pair on its own axis, summed as
    # x0*w0 + x1*w1 over (w0 + w1)
    pairs = enriched.reshape(*enriched.shape[:-2], t_len // 2, 2, enriched.shape[-1])
    weights = frame_weight.reshape(*frame_weight.shape[:-1], t_len // 2, 2, 1)
    return (pairs * weights).sum(axis=-2) / weights.sum(axis=-2)


def hierarchical_branch(traj: Tensor, motion_cues: Tensor, n_stages: int) -> Tensor:
    """Run highlight -> enrich -> merge `n_stages` times and expand the coarse
    tokens back to the input length by nearest-neighbour repetition, as one
    node.  The input is first padded to a multiple of 2^n frames by
    repeating its last frame; frames added by padding are dropped after
    expansion, without renormalizing."""
    t_len, factor = traj.shape[-2], 2 ** n_stages
    pad = -t_len % factor
    pad_idx = np.concatenate([np.arange(t_len), np.full(pad, t_len - 1)])
    cues, stages = motion_cues.data, []
    out = np.take(traj.data, pad_idx, axis=-2) if pad else traj.data
    for _ in range(n_stages):
        attn, weight = highlight(out, cues)
        enriched = enrich(out, attn, weight, cues)
        stages.append((out, attn, weight, enriched))
        out = merge(enriched, weight)

    def backward(g, needs):
        # expansion and crop: each coarse token sums the gradients of its kept copies
        full = np.zeros((*g.shape[:-2], t_len + pad, g.shape[-1]))
        full[..., :t_len, :] = g
        g = full.reshape(*out.shape[:-1], factor, out.shape[-1]).sum(axis=-2)
        d_cues, merged = np.zeros_like(cues), out
        for x_s, attn, weight, enriched in reversed(stages):
            # merge: merged = Σ w·x / Σ w over each frame pair, pairs on axis -2
            w = weight.reshape(*weight.shape[:-1], -1, 2, 1)
            d_pair = (g / w.sum(axis=-2))[..., None, :]
            d_enriched = (d_pair * w).reshape(enriched.shape)
            d_weight = (d_pair * (enriched.reshape(*w.shape[:-1], -1) - merged[..., None, :])).sum(-1)
            # enrich, highlight: enriched = x + share @ cues, share = attn / Σ_cues attn
            share = attn / weight[..., None]
            d_share = d_enriched @ cues.swapaxes(-1, -2)
            d_attn = ((d_share - (d_share * share).sum(axis=-1, keepdims=True)) / weight[..., None]
                      + d_weight.reshape(weight.shape)[..., None])
            d_scores = softmax_backward(d_attn, attn, -2) * (1.0 / np.sqrt(x_s.shape[-1]))
            d_cues += unbroadcast(share.swapaxes(-1, -2) @ d_enriched
                                  + d_scores.swapaxes(-1, -2) @ x_s, cues.shape)
            g, merged = d_enriched + d_scores @ cues, x_s
        if pad:  # the padded frames' gradients add into the last frame, in index order
            d_traj = np.zeros_like(traj.data)
            np.add.at(d_traj, (..., pad_idx, slice(None)), g)
            g = d_traj
        return g, d_cues

    return node(np.take(out, np.arange(t_len) // factor, axis=-2), (traj, motion_cues), backward)


class HmpBlock:
    def __init__(self, channels: int, hidden: int, n_stages: int,
                 rng: np.random.Generator, prefix: str):
        self.n_stages = n_stages
        c = channels
        self.params: list[Parameter] = []
        p = registry(prefix, self.params)
        # attn, hier, ffn: this order is both the checkpoint order and the
        # order of the seeded weight draws
        self.attend = Attention(p, rng, c)
        self.wh = p("hier.wo", 0.1 * init_weight(rng, c, c))
        self.bh = p("hier.bo", np.zeros(c))
        self.ffn = FeedForward(p, rng, c, hidden)

    def forward(self, traj: Tensor, motion_cues: Tensor) -> Tensor:
        # branches read a standardized view of the stream so attention logits
        # and cue similarities keep their scale across cascaded blocks
        x = standardize(traj)
        y = traj + self.attend(x, x, x)
        if self.n_stages > 0:
            expanded = hierarchical_branch(standardize(y), motion_cues, self.n_stages)
            y = y + linear(expanded, self.wh, self.bh)
        return y + self.ffn(standardize(y))


class HmpStack:
    """Cascade of motion perception blocks applied per trajectory."""

    def __init__(self, channels: int, hidden: int, n_blocks: int, n_stages: int,
                 rng: np.random.Generator):
        if n_blocks < 1:
            raise ValueError(f"need at least one block, got {n_blocks}")
        if n_stages < 0:
            raise ValueError(f"stage count must be non-negative, got {n_stages}")
        self.blocks = [
            HmpBlock(channels, hidden, n_stages, rng, prefix=f"hmp.block{i}")
            for i in range(n_blocks)
        ]
        self.params = [p for block in self.blocks for p in block.params]

    def forward(self, trajectories: Tensor, motion_cues: Tensor) -> Tensor:
        x = trajectories
        for block in self.blocks:
            x = block.forward(x, motion_cues)
        return x
