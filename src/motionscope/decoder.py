"""Motion decoder: cue-injected queries attend over motion-aware tokens to
produce per-query video tokens, selection logits and video masks.  The losses
read tokens and logits as graph nodes; the scores and masks that evaluation
thresholds are plain arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Attention, FeedForward, init_weight, registry
from .perceiver import MaskFeatures
from .tensor import Parameter, Tensor, linear, stable_sigmoid, standardize


@dataclass
class VideoTokens:
    tokens: Tensor  # [N_m, C]
    score_logits: Tensor  # [N_m]


class MotionDecoder:
    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        c = channels
        self.params: list[Parameter] = []
        p = registry("decoder", self.params)
        self.attend = Attention(p, rng, c)
        self.ffn = FeedForward(p, rng, c, hidden)
        self.ws = p("score.w", init_weight(rng, c, 1))
        self.bs = p("score.b", np.zeros(1))

    def decode(self, q_hat: Tensor, motion_tokens: Tensor) -> VideoTokens:
        """Cross-attend the queries over all trajectory-frame tokens.

        `motion_tokens` is [N_s, T, C]; the key/value set is order-free, so any
        flattening order gives the same output.
        """
        n, t, c = motion_tokens.shape
        # key/value tokens arrive from a residual stack, so read them standardized
        keys = standardize(motion_tokens.reshape(n * t, c))
        hidden = q_hat + self.attend(q_hat, keys, keys)
        tokens = hidden + self.ffn(standardize(hidden))
        logits = linear(tokens, self.ws, self.bs).reshape(q_hat.shape[0])
        return VideoTokens(tokens=tokens, score_logits=logits)


def video_mask_logits(video_tokens: Tensor, mask_features: MaskFeatures) -> Tensor:
    """[N_m, C] tokens -> logits [N_m, T, H*W]."""
    return mask_features.logits(video_tokens).swapaxes(0, 1)


def predict_video_masks(video: VideoTokens, mask_features: MaskFeatures,
                        threshold: float = 0.5):
    """Per-query bool video masks [N_m, T, H, W], True where a pixel's
    probability exceeds 0.5, plus the queries whose score exceeds `threshold`.

    Selection is empty when every score falls at or below the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    t, h, w, _ = mask_features.shape
    n = video.tokens.shape[0]
    masks = stable_sigmoid(video_mask_logits(video.tokens, mask_features).data) > 0.5
    selected = np.flatnonzero(stable_sigmoid(video.score_logits.data) > threshold)
    return masks.reshape(n, t, h, w), selected
