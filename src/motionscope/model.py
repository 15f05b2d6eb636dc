"""Full pipeline assembly: cue decoupling, static perception, trajectory
linking, motion perception, decoding and mask prediction, plus flat binary
weight serialization.

The static grounding (word embedding rows for nouns/colours, value and mask
projections) is initialized aligned with the benchmark's appearance axes,
standing in for the pretrained per-frame backbone and text encoder a full
system would bring; everything temporal starts from scratch."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bank import ContrastiveProjector
from .benchmark import COLORS, FEATURE_CHANNELS, NOUNS, VOCAB, base_appearance
from .config import TrainConfig
from .decoder import MotionDecoder, VideoTokens, video_mask_logits
from .hmp import HmpStack
from .language import CueSet, TaggedExpression, decouple
from .matching import link
from .perceiver import (
    MaskFeatures,
    StaticPerceiver,
    frame_mask_logits,
    inject_cues,
    sinusoidal_grid,
)
from .tensor import Parameter, Tensor, take


@dataclass
class ForwardOutput:
    object_tokens: Tensor        # [T, N_s, C]
    mask_features: MaskFeatures  # stands for [T, H, W, C]
    class_logits: Tensor         # [T, N_s]
    video: VideoTokens

    # mask logits are built on first read: the losses read each once, and
    # evaluation reads neither (it predicts video masks from `video`)
    @cached_property
    def frame_logits(self) -> Tensor:
        """[T, N_s, H*W]"""
        return frame_mask_logits(self.object_tokens, self.mask_features)

    @cached_property
    def video_logits(self) -> Tensor:
        """[N_m, T, H*W]"""
        return video_mask_logits(self.video.tokens, self.mask_features)


def _grounded_embedding_init(channels: int, rng: np.random.Generator) -> np.ndarray:
    """Word embedding init: nouns and colours start on their appearance axes
    (the pretrained-grounding stand-in); all other words start random."""
    table = rng.normal(scale=0.5, size=(len(VOCAB), channels))
    for idx, (surface, tag) in enumerate(VOCAB):
        if tag == "NOUN":
            vec = base_appearance(NOUNS.index(surface), 0, channels)
            vec[len(NOUNS):len(NOUNS) + len(COLORS)] = 0.0  # category part only
            table[idx] = vec
        elif tag == "ADJ":
            table[idx] = 0.0
            table[idx, len(NOUNS) + COLORS.index(surface)] = 1.0
    return table


ANCHOR_SCALE = 0.3  # keeps spatial preference below appearance affinity


def _query_anchor_codes(n_queries: int, height: int, width: int, channels: int) -> np.ndarray:
    """Initial spatial preferences for the candidate queries: position codes of
    cells spread along the grid diagonal, giving each query slot a distinct
    row and column band so same-looking objects in different lanes separate."""
    codes = sinusoidal_grid(height, width, channels)
    rows = ((np.arange(n_queries) + 0.5) * height / n_queries).astype(int)
    cols = ((np.arange(n_queries) + 0.5) * width / n_queries).astype(int)
    return ANCHOR_SCALE * codes[rows * width + cols]


# the model's fixed shape: object queries per frame, video queries, HMP blocks
N_STATIC_QUERIES = 8
N_MOTION_QUERIES = 4
HMP_BLOCKS = 3


class MotionSegModel:
    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        """The model is as wide as the scene features it reads,
        `benchmark.FEATURE_CHANNELS` (32) channels; every block's feed-forward
        layer is twice that."""
        config.validate()
        self.config = config
        c = FEATURE_CHANNELS
        self.embedding = Parameter(
            "embed.table", _grounded_embedding_init(c, rng))
        self.static_queries = Parameter(
            "queries.static",
            rng.normal(scale=0.2, size=(N_STATIC_QUERIES, c))
            + _query_anchor_codes(N_STATIC_QUERIES, config.grid_height, config.grid_width, c))
        self.motion_queries = Parameter(
            "queries.motion", rng.normal(scale=0.5, size=(N_MOTION_QUERIES, c)))
        self.perceiver = StaticPerceiver(c, (config.grid_height, config.grid_width), rng)
        self.perceiver.attend.wv.data[...] = np.eye(c)
        self.perceiver.wm.data[...] = np.eye(c)
        self.hmp = HmpStack(c, HMP_BLOCKS, config.hmp_stages, rng)
        self.decoder = MotionDecoder(c, rng)
        self.projector = ContrastiveProjector(c, rng)
        # the checkpoint order, which is also the order of the seeded draws
        self.params: list[Parameter] = [
            self.embedding, self.static_queries, self.motion_queries,
            *self.perceiver.params, *self.hmp.params, *self.decoder.params,
            *self.projector.params]

        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names")

    # -- query construction ----------------------------------------------------

    def _tile_rows(self, rows: Tensor, count: int) -> Tensor:
        idx = np.arange(count) % rows.shape[0]
        return take(rows, idx, axis=0)

    def build_queries(self, cues: CueSet):
        variant = self.config.query_variant
        if variant == "sentence_only":
            static_cues = cues.sentence.reshape(1, -1)
            motion_cues = static_cues
        else:
            static_cues, motion_cues = cues.static, cues.motion
        if variant == "ds_no_query":
            q_static = self._tile_rows(static_cues, N_STATIC_QUERIES)
            q_motion = self._tile_rows(motion_cues, N_MOTION_QUERIES)
        else:
            q_static = inject_cues(self.static_queries, static_cues)
            q_motion = inject_cues(self.motion_queries, motion_cues)
        return q_static, q_motion, motion_cues

    # -- forward -----------------------------------------------------------------

    def forward(self, features: np.ndarray, expr: TaggedExpression) -> ForwardOutput:
        add_sentence = self.config.query_variant != "ds_no_sentence"
        cues = decouple(expr, self.embedding, add_sentence=add_sentence)
        q_static, q_motion, motion_cues = self.build_queries(cues)

        tokens, mask_features, class_logits = self.perceiver.perceive(features, q_static)
        motion_tokens = self.hmp.forward(link(tokens), motion_cues)
        video = self.decoder.decode(q_motion, motion_tokens)
        return ForwardOutput(
            object_tokens=tokens,
            mask_features=mask_features,
            class_logits=class_logits,
            video=video,
        )

    # -- optimization helpers ------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def save_model(model: MotionSegModel, path) -> None:
    """Flat little-endian serialization: count, then per parameter the name
    length, utf-8 name, rank, extents and float64 values."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(model.params)))
        for p in model.params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<Q", len(name)))
            fh.write(name)
            fh.write(struct.pack("<Q", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
            fh.write(p.data.astype("<f8").tobytes())


def load_model_weights(model: MotionSegModel, path) -> None:
    """Read a `save_model` checkpoint into `model`; a truncated file, trailing
    bytes, a name that is not UTF-8, unknown, repeated or missing, a shape
    mismatch or a NaN or infinite value raise ValueError.  So does a name
    length, rank or extent that asks for more bytes than the file has left,
    before anything of that size is read or allocated."""
    by_name = {p.name: p for p in model.params}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            left = size - fh.tell()
            if n > left:
                raise ValueError(f"{path} is truncated: reading {what} needs {n} bytes, "
                                 f"{left} are left")
            return fh.read(n)

        (count,) = struct.unpack("<Q", read(8, "the parameter count"))
        seen = set()
        for index in range(count):
            what = f"parameter #{index}"
            (name_len,) = struct.unpack("<Q", read(8, f"the name length of {what}"))
            raw_name = read(name_len, f"the name of {what}")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: the name of {what} is not UTF-8") from None
            if name in seen:
                raise ValueError(f"{path}: {what} repeats the name {name!r}")
            what = f"parameter {name!r}"
            (ndim,) = struct.unpack("<Q", read(8, f"the rank of {what}"))
            shape = struct.unpack(f"<{ndim}Q",
                                  read(8 * ndim, f"the shape of {what} (rank {ndim})"))
            values = np.frombuffer(read(8 * math.prod(shape), f"the values of {what} {shape}"),
                                   dtype="<f8").reshape(shape)
            if name not in by_name:
                raise ValueError(f"{path}: unknown parameter {name!r} in checkpoint")
            if by_name[name].data.shape != tuple(shape):
                raise ValueError(
                    f"{path}: shape mismatch for {name!r}: checkpoint {tuple(shape)} vs "
                    f"model {by_name[name].data.shape}")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}: parameter {name!r} holds NaN or infinite values")
            by_name[name].data[...] = values
            seen.add(name)
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after its last parameter")
    missing = set(by_name) - seen
    if missing:
        raise ValueError(f"{path}: checkpoint is missing parameters: {sorted(missing)}")
