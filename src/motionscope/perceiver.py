"""Per-frame candidate perception: cue-injected queries over pixel features.

One residual cross-attention layer plus a feed-forward block, both the shared
blocks of `layers`, stand in for a full segmentation backbone; it emits
per-frame object tokens, the mask head's `MaskFeatures` and a per-token
objectness logit.  The positional code is added to the attention keys only, so
the values (and the attention contribution) vanish on an all-zero grid with
zero biases.

The perceiver is as wide as the frames' features, a multiple of 4: in the
model, the scenes' 32 channels, fixed as `FEATURE_CHANNELS` in `benchmark.py`.

No per-pixel projection is built: attention multiplies its key and value
weights into the queries, and a mask logit x·(p·wm + bm) is computed as
(x·wmᵀ)·pᵀ + x·bm, so the pixel features stay a gradient-free constant.

Cue injection is one node over the shared softmax-attention core
`tensor.softmax_attention` (the one `layers.Attention` calls), plus the
residual add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Attention, FeedForward, init_weight, registry
from .tensor import Parameter, Tensor, linear, node, softmax_attention


def inject_cues(queries: Tensor, cues: Tensor) -> Tensor:
    """Residual cross-attention of learnable queries over cue rows.

    The residual lies in the convex hull of the cue rows, so a zero cue
    matrix leaves the queries unchanged.
    """
    attended, backward = softmax_attention(queries.data, cues.data, cues.data,
                                           1.0 / np.sqrt(queries.shape[-1]))
    return queries + node(attended, (queries, cues, cues), backward)


def sinusoidal_grid(height: int, width: int, channels: int) -> np.ndarray:
    """Fixed 2-d sin/cos position code, flattened to [height*width, channels]:
    sin and cos of x and of y, each `channels`/4 wide (a multiple of 4)."""
    quarter = channels // 4
    freqs = np.power(10_000.0, -np.arange(quarter) / quarter)
    ys, xs = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    parts = [
        np.sin(xs.reshape(-1, 1) * freqs),
        np.cos(xs.reshape(-1, 1) * freqs),
        np.sin(ys.reshape(-1, 1) * freqs),
        np.cos(ys.reshape(-1, 1) * freqs),
    ]
    return np.concatenate(parts, axis=1)


class StaticPerceiver:
    POSITION_SCALE = 0.3  # keep the key position code below pixel content scale

    def __init__(self, channels: int, grid: tuple[int, int], rng: np.random.Generator):
        """`grid` is the (H, W) of every frame this perceiver will see, and
        `channels`, a multiple of 4, both its own width and that of the
        frames' features."""
        c = channels
        self.frame_shape = (*grid, c)
        self.position_code = Tensor(self.POSITION_SCALE * sinusoidal_grid(*grid, c))
        self.params: list[Parameter] = []
        p = registry("perceiver", self.params)
        # query and key projections start equal: spatial codes placed in the
        # query initialization then line up with pixel position codes at init
        wk = init_weight(rng, c, c)
        self.attend = Attention(p, rng, c, wq=wk.copy(), wk=wk)
        self.ffn = FeedForward(p, rng, c)
        self.wm = p("mask.w", init_weight(rng, c, c))
        self.bm = p("mask.b", np.zeros(c))
        self.wc = p("cls.w", init_weight(rng, c, 1))
        self.bc = p("cls.b", np.zeros(1))

    def perceive(self, frames: np.ndarray, q_hat: Tensor):
        """Batched perception over a [T, H, W, C] feature video.

        Frames may be float32, as scenes hold them: they are converted to
        float64 once, exactly, and all that follows computes in float64.
        Returns object tokens [T, N, C], the mask head's `MaskFeatures` and
        objectness logits [T, N].  Frames of another shape raise ValueError.
        """
        if frames.shape[1:] != self.frame_shape:
            raise ValueError(f"frames have shape {frames.shape}, but the perceiver was built for "
                             f"[T, H, W, C] frames whose grid and channels (H, W, C) "
                             f"are {self.frame_shape}")
        t, h, w, c = frames.shape
        pixels = Tensor(frames)
        flat = pixels.reshape(t, h * w, c)
        # keys see pixel + position, values the raw pixel features only, so a
        # constant grid contributes the same vector to every query
        keys = flat + self.position_code
        hidden = q_hat + self.attend(q_hat, keys, flat)
        tokens = hidden + self.ffn(hidden)
        class_logits = linear(tokens, self.wc, self.bc)
        n = q_hat.shape[0]
        return (
            tokens,
            MaskFeatures(pixels, self.wm, self.bm),
            class_logits.reshape(t, n),
        )


@dataclass(frozen=True)
class MaskFeatures:
    """The mask head over a [T, H, W, C] pixel video, kept factored: the
    mask features p·wm + bm of each pixel are never formed."""

    pixels: Tensor  # [T, H, W, C], gradient-free
    w: Tensor  # mask.w [C, C]
    b: Tensor  # mask.b [C]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(T, H, W, C) of the mask features this value stands for."""
        return self.pixels.shape

    def logits(self, tokens: Tensor) -> Tensor:
        """Tokens [N, C] or [T, N, C] -> mask logits [T, N, H*W], as
        (x·wmᵀ)·pᵀ + x·bm."""
        t, *_, c = self.pixels.shape
        flat = self.pixels.reshape(t, -1, c)
        by_pixel = (tokens @ self.w.swapaxes(-1, -2)) @ flat.swapaxes(-1, -2)
        return by_pixel + tokens @ self.b.reshape(-1, 1)


def frame_mask_logits(tokens: Tensor, mask_features: MaskFeatures) -> Tensor:
    """Dot-product mask logits: [T, N, C] tokens -> [T, N, H*W]."""
    return mask_features.logits(tokens)
