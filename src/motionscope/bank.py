"""Per-target centroid memory and the object-wise contrastive objective.

The bank keeps one exponentially-averaged centroid per training-set target
object.  Centroids receive no gradients; only the anchor (through the
projection head) is trained.  Negative sampling prefers hard candidates:
same category in the same video first, then same category anywhere, then the
rest.
"""

from __future__ import annotations

import json

import numpy as np

from .layers import init_weight, registry
from .tensor import Parameter, Tensor, concat

TAU = 0.07  # temperature of the contrastive softmax
EMA_BETA = 0.2  # share of a centroid that an update keeps


class ContrastiveProjector:
    """Two-layer MLP followed by L2 normalization."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.params: list[Parameter] = []
        p = registry("projector", self.params)
        self.w1 = p("w1", init_weight(rng, channels, channels))
        self.b1 = p("b1", np.zeros(channels))
        self.w2 = p("w2", init_weight(rng, channels, channels))
        self.b2 = p("b2", np.zeros(channels))

    def project(self, token: Tensor) -> Tensor:
        """Project a single token [C] to a unit vector [C]."""
        x = token.reshape(1, -1)
        h = (x @ self.w1 + self.b1).relu()
        out = (h @ self.w2 + self.b2).reshape(-1)
        norm = (out * out).sum().sqrt() + 1e-12
        return out / norm


class MemoryBank:
    """EMA centroid store indexed by target-object slot."""

    def __init__(self, categories, videos, channels: int):
        self.category = np.asarray(categories, dtype=np.int64)
        self.video = np.asarray(videos, dtype=np.int64)
        if self.category.shape != self.video.shape:
            raise ValueError("category and video slot metadata must align")
        self.size = self.category.shape[0]
        self.vectors = np.zeros((self.size, channels))
        self.initialized = np.zeros(self.size, dtype=bool)

    def update(self, slot: int, vector: np.ndarray) -> None:
        """First touch copies the vector; later touches blend with retention
        factor EMA_BETA and re-normalize the stored centroid."""
        if not 0 <= slot < self.size:
            raise IndexError(f"slot {slot} out of range for bank of {self.size}")
        vec = np.asarray(vector, dtype=np.float64)
        if not self.initialized[slot]:
            self.vectors[slot] = vec
            self.initialized[slot] = True
            return
        blended = EMA_BETA * self.vectors[slot] + (1.0 - EMA_BETA) * vec
        norm = np.linalg.norm(blended)
        if norm > 0:
            blended = blended / norm
        self.vectors[slot] = blended

    def sample_negatives(self, anchor_slot: int, n_negatives: int,
                         rng: np.random.Generator, exclude=()) -> np.ndarray:
        """Slot indices of up to n_negatives (>= 1) initialized non-anchor
        centroids, filled tier by tier, uniform within a tier."""
        banned = np.zeros(self.size, dtype=bool)
        banned[anchor_slot] = True
        for slot in exclude:
            banned[slot] = True
        eligible = self.initialized & ~banned
        same_cat = self.category == self.category[anchor_slot]
        same_vid = self.video == self.video[anchor_slot]
        tiers = [
            np.flatnonzero(eligible & same_cat & same_vid),
            np.flatnonzero(eligible & same_cat & ~same_vid),
            np.flatnonzero(eligible & ~same_cat),
        ]
        chosen: list[np.ndarray] = []
        remaining = n_negatives
        for tier in tiers:
            if remaining <= 0:
                break
            if tier.size <= remaining:
                chosen.append(tier)
                remaining -= tier.size
            else:
                chosen.append(rng.choice(tier, size=remaining, replace=False))
                remaining = 0
        return np.concatenate(chosen).astype(np.intp)

    def snapshot(self) -> list[dict]:
        return [
            {
                "target_id": int(slot),
                "category": int(self.category[slot]),
                "video": int(self.video[slot]),
                "vector": self.vectors[slot].tolist(),
            }
            for slot in np.flatnonzero(self.initialized)
        ]

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def contrastive_loss(anchor: Tensor, positive: np.ndarray,
                     negatives: np.ndarray) -> Tensor:
    """Softmax-over-similarities loss of the anchor against its centroid, at
    temperature TAU.

    Stabilized by max subtraction.  Centroids enter as constants, so
    gradient flows only into the anchor.
    """
    pos_logit = (anchor * Tensor(positive)).sum() * (1.0 / TAU)
    neg = (anchor.reshape(1, -1) @ Tensor(np.asarray(negatives).T)) * (1.0 / TAU)
    logits = concat([pos_logit.reshape(1), neg.reshape(len(negatives))], axis=0)
    shift = Tensor(logits.data.max())
    lse = (logits - shift).exp().sum().log() + shift
    return lse - pos_logit
