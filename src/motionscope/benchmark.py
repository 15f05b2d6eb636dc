"""Procedural grid-motion benchmark plus region/boundary metrics.

Scenes are feature videos on a small grid: every object stamps its appearance
vector onto the cells it occupies, on top of background noise and a fixed
low-amplitude positional field (so object tokens can reflect where an object
is, the way backbone features do).  The features are summed in float64 and
rounded once to float32, the precision backbones emit; the model reads them
back into float64, exactly.  Every standard scene contains at least two
objects of the same category and near-identical appearance that differ only in
their motion, so expressions can only be resolved by motion understanding.

Expressions are token lists, each word's tag and vocab id fixed by `VOCAB`;
their semantics are deterministic: the head noun fixes the category, an
adjective fixes the colour, the verb fixes the motion kind and an optional
adverb fixes the direction.  An expression's target ids are the objects its
words select (`evaluate_expression`).  A scene is one file, `<seed>.bin`: a
header with the seed, the config and a SHA-256 digest of the objects and
words, then the features.  `load_scene` replays the generator for the
header's seed and config, and rejects a file whose seed is not its name or
whose digest is not the replay's.

The recipe is fixed, as a benchmark dataset's is: the module constants
`OBJECT_SIZE`, `MIN_OBJECTS`, `MAX_OBJECTS`, `EXPRESSIONS_PER_SCENE`,
`BACKGROUND_NOISE`, `APPEARANCE_NOISE`, `POSITION_FIELD_SCALE`,
`LANDMARK_PROB`, `ADJECTIVE_PROB`, `ADVERB_PROB`, `NO_TARGET_PROB` and
`MULTI_TARGET_PROB` set it, and `FEATURE_CHANNELS` fixes every scene's width
at 32, as a backbone's.  A scene is a function of its seed and a
`BenchmarkConfig`, which holds only the frames, the grid and the probe switch.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .language import ADJ, ADV, NOUN, OTHER, PREP, VERB, ExprToken, TaggedExpression
from .perceiver import sinusoidal_grid

STATIC = "static"
SHORT_BURST = "short-burst"
LONG_HORIZON = "long-horizon"

NOUNS = ["circle", "square", "triangle", "diamond", "star", "cross", "hexagon", "ring", "arrow", "dot"]
COLORS = ["red", "blue", "green", "yellow"]
# the width of every scene's features, and so of the model that reads them:
# the appearance layout puts a category and a colour on their own axes, and
# instance jitter fills the rest
FEATURE_CHANNELS = 32
PREPOSITIONS = ["on", "near", "above"]
FILLERS = ["the", "that", "then"]
VERB_KINDS = {
    "standing": STATIC,
    "resting": STATIC,
    "darting": SHORT_BURST,
    "hopping": SHORT_BURST,
    "flicking": SHORT_BURST,
    "walking": LONG_HORIZON,
    "drifting": LONG_HORIZON,
    "crossing": LONG_HORIZON,
}
ADVERB_DIRECTIONS = {
    "rightward": (0, 1),
    "leftward": (0, -1),
    "downward": (1, 0),
    "upward": (-1, 0),
}

KIND_VERBS = {
    STATIC: [v for v, k in VERB_KINDS.items() if k == STATIC],
    SHORT_BURST: [v for v, k in VERB_KINDS.items() if k == SHORT_BURST],
    LONG_HORIZON: [v for v, k in VERB_KINDS.items() if k == LONG_HORIZON],
}

VOCAB: list[tuple[str, str]] = (
    [(w, NOUN) for w in NOUNS]
    + [(w, ADJ) for w in COLORS]
    + [(w, PREP) for w in PREPOSITIONS]
    + [(w, OTHER) for w in FILLERS]
    + [(w, VERB) for w in VERB_KINDS]
    + [(w, ADV) for w in ADVERB_DIRECTIONS]
)
# a word's token: its tag and vocab id are fixed by VOCAB
TOKENS = {surface: ExprToken(surface, tag, i) for i, (surface, tag) in enumerate(VOCAB)}

OBJECT_SIZE = 2  # an object is an OBJECT_SIZE x OBJECT_SIZE square of cells
MIN_OBJECTS = 3
MAX_OBJECTS = 5
EXPRESSIONS_PER_SCENE = 3
BACKGROUND_NOISE = 0.05
APPEARANCE_NOISE = 0.5  # length of an instance's jitter from its base look
POSITION_FIELD_SCALE = 0.5
LANDMARK_PROB = 0.5
ADJECTIVE_PROB = 0.6
ADVERB_PROB = 0.35
NO_TARGET_PROB = 0.1
MULTI_TARGET_PROB = 0.1


def _durations(kind: str, frames: int) -> range:
    """The moving frames a motion program of `kind` may take in a scene of
    `frames` frames; `_sample_motion` further caps it by the grid.  For every
    config that `BenchmarkConfig.validate` accepts, the three ranges are
    disjoint, so objects of different kinds never move for the same number
    of frames and a verb's kind shows in the motion."""
    if kind == STATIC:
        return range(0, 1)
    if kind == SHORT_BURST:
        return range(2, max(frames // 4, 2) + 1)
    return range(-(-3 * frames // 4), frames + 1)  # ceil(3T/4)..T


class GenerationError(ValueError):
    """Raised when a scene specification cannot be satisfied."""


class _Retry(Exception):
    pass


@dataclass
class MotionProgram:
    kind: str
    onset: int
    duration: int
    direction: tuple[int, int]  # (dy, dx), one cell per moving frame


@dataclass
class SceneObject:
    category: int
    color: int
    start: tuple[int, int]
    motion: MotionProgram


@dataclass
class BenchmarkConfig:
    frames: int = 16
    height: int = 16
    width: int = 16
    probe: bool = False  # probe scenes contrast long-horizon vs short-burst movers

    def validate(self) -> None:
        travel = min(self.width, self.height) - OBJECT_SIZE
        long_min = _durations(LONG_HORIZON, self.frames).start
        if long_min > min(self.frames, travel):
            raise GenerationError(
                f"long-horizon motion needs {long_min} moving frames but only "
                f"{min(self.frames, travel)} fit the grid"
            )
        if self.frames // 4 < 1:
            raise GenerationError(f"{self.frames} frames leave no room for short bursts")
        # lanes run across the motion axis, which is either one
        lanes = min(self.height, self.width) // OBJECT_SIZE
        if MAX_OBJECTS > lanes:
            raise GenerationError(
                f"a {self.height}x{self.width} grid has {lanes} disjoint lanes on its "
                f"narrow side, but a scene holds up to {MAX_OBJECTS} objects")


@dataclass
class Scene:
    """A generated scene.  Its masks are never stored: each read of `masks`
    or `target_masks` derives them from the objects' motion programs."""

    seed: int
    config: BenchmarkConfig
    objects: list[SceneObject]
    expressions: list[TaggedExpression]
    features: np.ndarray  # [T, H, W, C], float32

    @property
    def probe(self) -> bool:
        return self.config.probe

    @property
    def masks(self) -> np.ndarray:
        """Every object's masks, bool [n_objects, T, H, W]."""
        return _masks(self.objects, self.config.frames, self.config.height, self.config.width)

    def target_masks(self, expr: TaggedExpression) -> np.ndarray:
        """The masks of `expr`'s targets only, bool [len(target_ids), T, H, W]."""
        return _masks([self.objects[i] for i in expr.target_ids],
                      self.config.frames, self.config.height, self.config.width)


def base_appearance(category: int, color: int, channels: int) -> np.ndarray:
    """Shared appearance vector for a (category, colour) pair, fixed across
    scenes: the category and colour live in disjoint coordinate blocks, and
    instance jitter later occupies the remaining channels."""
    vec = np.zeros(channels)
    vec[category] = 1.2
    vec[len(NOUNS) + color] = 0.6
    return vec


def evaluate_expression(tokens: list[ExprToken], objects: list[SceneObject]) -> list[int]:
    """Deterministic expression semantics: indices of objects matching the
    head noun, the verb's motion kind and the optional adjective/adverb
    filters.  `tokens` hold a noun and a verb, as every generated expression
    does."""
    nouns = [t.surface for t in tokens if t.tag == NOUN]
    adjectives = [t.surface for t in tokens if t.tag == ADJ]
    verbs = [t.surface for t in tokens if t.tag == VERB]
    adverbs = [t.surface for t in tokens if t.tag == ADV]
    category = NOUNS.index(nouns[0])
    color = COLORS.index(adjectives[0]) if adjectives else None
    kind = VERB_KINDS[verbs[0]]
    direction = ADVERB_DIRECTIONS[adverbs[0]] if adverbs else None
    out = []
    for i, obj in enumerate(objects):
        if obj.category != category:
            continue
        if color is not None and obj.color != color:
            continue
        if obj.motion.kind != kind:
            continue
        if direction is not None and tuple(obj.motion.direction) != direction:
            continue
        out.append(i)
    return out


def _sample_motion(rng, kind, cfg: BenchmarkConfig, axis: int, sign: int) -> MotionProgram:
    """Motion along `axis` (0=vertical, 1=horizontal) with unit speed."""
    if kind == STATIC:
        return MotionProgram(STATIC, 0, 0, (0, 0))
    travel = (cfg.height if axis == 0 else cfg.width) - OBJECT_SIZE
    durations = _durations(kind, cfg.frames)
    duration = int(rng.integers(durations.start, min(durations.stop, travel + 1)))
    onset = int(rng.integers(0, cfg.frames - duration + 1))
    direction = (sign, 0) if axis == 0 else (0, sign)
    return MotionProgram(kind, onset, duration, direction)


def _sample_start(rng, motion: MotionProgram, cfg: BenchmarkConfig, axis: int, lane: int):
    """Start cell such that the whole displacement stays on the grid."""
    size = OBJECT_SIZE
    span = (cfg.height if axis == 0 else cfg.width) - size
    reach = motion.duration
    sign = motion.direction[axis] if motion.kind != STATIC else 0
    if sign > 0:
        coord = int(rng.integers(0, span - reach + 1))
    elif sign < 0:
        coord = int(rng.integers(reach, span + 1))
    else:
        coord = int(rng.integers(0, span + 1))
    lane_coord = lane * size
    return (coord, lane_coord) if axis == 0 else (lane_coord, coord)


def _masks(objects, frames: int, height: int, width: int) -> np.ndarray:
    """Each object's square along its motion program's path, as a bool
    [n_objects, frames, height, width] array: the square starts at `start`
    and, from frame `onset` on, moves one cell in `direction` per frame until
    it has moved `duration` cells."""
    t = np.arange(frames)
    offsets = np.arange(OBJECT_SIZE)
    masks = np.zeros((len(objects), frames * height * width), dtype=bool)
    for idx, obj in enumerate(objects):
        m = obj.motion
        moved = np.minimum(np.maximum(t, m.onset), m.onset + m.duration) - m.onset
        rows = obj.start[0] + m.direction[0] * moved
        cols = obj.start[1] + m.direction[1] * moved
        cells = (t[:, None, None], rows[:, None, None] + offsets[:, None],
                 cols[:, None, None] + offsets)
        masks[idx, np.ravel_multi_index(cells, (frames, height, width))] = True
    return masks.reshape(len(objects), frames, height, width)


def _render(objects, cfg: BenchmarkConfig, rng) -> np.ndarray:
    t, h, w, c = cfg.frames, cfg.height, cfg.width, FEATURE_CHANNELS
    position_field = sinusoidal_grid(h, w, c).reshape(h, w, c) * POSITION_FIELD_SCALE
    features = rng.normal(scale=BACKGROUND_NOISE, size=(t, h, w, c))
    features += position_field
    masks = _masks(objects, t, h, w)
    cells = features.reshape(t * h * w, c)  # a view: one row a cell
    for obj, mask in zip(objects, masks):
        # per-instance signature: same base look, unit-length jitter scaled to
        # APPEARANCE_NOISE (instances stay visually similar but separable);
        # jitter avoids the category/colour block
        jitter = rng.normal(size=c)
        jitter[:len(NOUNS) + len(COLORS)] = 0.0
        jitter *= APPEARANCE_NOISE / np.linalg.norm(jitter)
        cells[np.flatnonzero(mask)] += base_appearance(obj.category, obj.color, c) + jitter
    return features.astype(np.float32)


def _build_expression(rng, objects, target_idx: int | None,
                      want_targets: list[int]) -> TaggedExpression:
    """Compose a token sequence whose audited matches equal `want_targets`."""
    if target_idx is not None:
        obj = objects[target_idx]
        category, color, kind = obj.category, obj.color, obj.motion.kind
        direction = tuple(obj.motion.direction)
    else:
        # no-target: category present in the scene, motion kind absent for it
        cats = sorted({o.category for o in objects})
        category = int(cats[rng.integers(0, len(cats))])
        present = {o.motion.kind for o in objects if o.category == category}
        absent = [k for k in (STATIC, SHORT_BURST, LONG_HORIZON) if k not in present]
        if not absent:
            raise _Retry
        kind = absent[int(rng.integers(0, len(absent)))]
        color, direction = None, None

    for _ in range(8):
        tokens: list[ExprToken] = []

        def add(surface):
            tokens.append(TOKENS[surface])

        if rng.random() < 0.5:
            add(FILLERS[int(rng.integers(0, len(FILLERS)))])
        if color is not None and rng.random() < ADJECTIVE_PROB:
            add(COLORS[color])
        add(NOUNS[category])
        verbs = KIND_VERBS[kind]
        add(verbs[int(rng.integers(0, len(verbs)))])
        if direction is not None and direction != (0, 0) and rng.random() < ADVERB_PROB:
            add(next(a for a, d in ADVERB_DIRECTIONS.items() if d == direction))
        if rng.random() < LANDMARK_PROB:
            other_cats = sorted({o.category for o in objects if o.category != category})
            if other_cats:
                add(PREPOSITIONS[int(rng.integers(0, len(PREPOSITIONS)))])
                add(NOUNS[other_cats[int(rng.integers(0, len(other_cats)))]])
        matches = evaluate_expression(tokens, objects)
        if matches == sorted(want_targets):
            return TaggedExpression(tokens=tokens, target_ids=matches)
    raise _Retry


def _draw(cfg: BenchmarkConfig, rng) -> tuple[list[SceneObject], list[TaggedExpression]]:
    """One try at a scene's objects and expressions; raises _Retry when the
    draw cannot satisfy the scene constraints."""
    axis = int(rng.integers(0, 2))
    n_objects = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
    lanes = rng.choice((cfg.height if axis == 1 else cfg.width) // OBJECT_SIZE,
                       size=n_objects, replace=False)

    objects: list[SceneObject] = []
    category = int(rng.integers(0, len(NOUNS)))
    color = int(rng.integers(0, len(COLORS)))
    sign = int(rng.choice([-1, 1]))
    multi_target = (not cfg.probe) and rng.random() < MULTI_TARGET_PROB

    if cfg.probe:
        # same appearance, same direction: one long walker, one short dart
        group_kinds = [LONG_HORIZON, SHORT_BURST]
    elif multi_target:
        base_kind, alt_kind = rng.permutation([STATIC, SHORT_BURST, LONG_HORIZON])[:2]
        group_kinds = [base_kind, base_kind, alt_kind]
    else:
        group_kinds = list(rng.permutation([STATIC, SHORT_BURST, LONG_HORIZON])[: int(rng.integers(2, 4))])

    for i in range(n_objects):
        if i < len(group_kinds):
            cat_i, col_i, kind = category, color, group_kinds[i]
            sign_i = sign
        else:
            cat_i = int(rng.integers(0, len(NOUNS)))
            col_i = int(rng.integers(0, len(COLORS)))
            if cfg.probe and cat_i == category:
                cat_i = (cat_i + 1) % len(NOUNS)
            kind = [STATIC, SHORT_BURST, LONG_HORIZON][int(rng.integers(0, 3))]
            sign_i = int(rng.choice([-1, 1]))
        motion = _sample_motion(rng, kind, cfg, axis, sign_i)
        start = _sample_start(rng, motion, cfg, axis, int(lanes[i]))
        objects.append(SceneObject(category=cat_i, color=col_i, start=start, motion=motion))

    expressions: list[TaggedExpression] = []
    for _ in range(EXPRESSIONS_PER_SCENE):
        if cfg.probe:
            target = 0  # the long-horizon member of the contrast pair
            expressions.append(_build_expression(rng, objects, target, [target]))
        elif multi_target:
            want = [i for i, o in enumerate(objects)
                    if o.category == category and o.color == color
                    and o.motion.kind == group_kinds[0]]
            expressions.append(_build_expression(rng, objects, want[0], want))
        elif rng.random() < NO_TARGET_PROB:
            expressions.append(_build_expression(rng, objects, None, []))
        else:
            if rng.random() < 0.7:
                target = int(rng.integers(0, len(group_kinds)))
            else:
                target = int(rng.integers(0, n_objects))
            expressions.append(_build_expression(rng, objects, target, [target]))
    return objects, expressions


def _plan(seed: int, cfg: BenchmarkConfig):
    """The rng of `seed`, and the objects and expressions drawn from it for
    `cfg` once a try satisfies the scene constraints.  `_render` goes on
    drawing the features from the same rng."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    for _ in range(64):
        try:
            return rng, *_draw(cfg, rng)
        except _Retry:
            continue
    raise GenerationError(f"could not satisfy scene constraints for seed {seed}")


def generate(seed: int, config: BenchmarkConfig | None = None) -> Scene:
    """Deterministic scene for a seed; identical inputs give identical bytes.
    The scene holds the features; its masks are derived from the objects'
    motion programs on each read."""
    cfg = config if config is not None else BenchmarkConfig()
    rng, objects, expressions = _plan(seed, cfg)
    return Scene(seed=seed, config=cfg, objects=objects, expressions=expressions,
                 features=_render(objects, cfg, rng))


# -- dataset io ---------------------------------------------------------------

REGENERATE = "regenerate it with `motionscope gen`"
MAGIC = b"MSCOPE04"
# a scene file's header, little-endian: the magic, the seed, the config's
# frames, height, width and probe switch (0 or 1), and the plan's `_digest`
HEADER = struct.Struct("<8sQ4I32s")


def _describe(objects, expressions) -> dict:
    """A scene's plan: each object's category, color, start, onset, duration
    and direction, and each expression as its list of words."""
    return {
        "objects": [
            {
                "category": o.category,
                "color": o.color,
                "start": list(o.start),
                "onset": o.motion.onset,
                "duration": o.motion.duration,
                "direction": list(o.motion.direction),
            }
            for o in objects
        ],
        "expressions": [[t.surface for t in e.tokens] for e in expressions],
    }


def _digest(plan: dict) -> bytes:
    """The SHA-256 of `plan`, a `_describe` value, written as JSON text."""
    return hashlib.sha256(json.dumps(plan).encode()).digest()


def save_scene(scene: Scene, directory) -> None:
    """Write `scene` as `<seed>.bin`: the `HEADER` (the magic `MSCOPE04`, the
    seed, the config and the digest of the objects and expressions), then
    the features [T, H, W, C] as little-endian float32 in C order, written
    from their own buffer.  A seed outside 0..2^64-1 raises ValueError."""
    if not 0 <= scene.seed < 2 ** 64:
        raise ValueError(f"scene seed {scene.seed} does not fit a scene file's 64-bit seed")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = scene.config
    with open(directory / f"{scene.seed}.bin", "wb") as fh:
        fh.write(HEADER.pack(MAGIC, scene.seed, cfg.frames, cfg.height, cfg.width, cfg.probe,
                             _digest(_describe(scene.objects, scene.expressions))))
        fh.write(np.ascontiguousarray(scene.features, dtype="<f4"))


def load_scene(directory, seed: int) -> Scene:
    """Read the scene `<seed>.bin` of `directory`, as `save_scene` writes it.
    The features are read straight into a float32 [T, H, W, C] array.  The
    rest is a replay of the generator: `_plan` draws the objects and
    expressions of `seed` for the header's config, and their digest must be
    the header's.  The masks are not stored: like a generated scene's, they
    are derived from the replayed objects' motion programs on each read.

    Raises ValueError, naming the file, for a file that does not start with
    the `MSCOPE04` magic (as the two-file `MSCOPE03` scenes of earlier
    versions do not) or is shorter than the header; a header seed that is not
    the file's name, so a file copied over another seed's is rejected; a
    probe switch other than 0 or 1, or a config that `BenchmarkConfig.validate`
    rejects; a size that does not fit the config, checked before the features
    are allocated; non-finite features; and a digest that is not the
    replay's, which an edited header or a generator or numpy that draws other
    random streams gives.  Each rejection that regenerating mends asks for it
    with `motionscope gen`."""
    path = Path(directory) / f"{seed}.bin"
    with open(path, "rb") as fh:
        header = fh.read(HEADER.size)
        if header[:len(MAGIC)] != MAGIC:
            raise ValueError(f"{path} starts with {header[:len(MAGIC)]!r}, not the {MAGIC!r} "
                             f"header; {REGENERATE}")
        if len(header) < HEADER.size:
            raise ValueError(f"{path} holds {len(header)} bytes, fewer than its "
                             f"{HEADER.size}-byte header")
        _, stored_seed, t, h, w, probe, digest = HEADER.unpack(header)
        if stored_seed != seed:
            raise ValueError(f"{path} holds scene {stored_seed}, not scene {seed}; {REGENERATE}")
        if probe not in (0, 1):
            raise ValueError(f"{path}: config: probe must be 0 or 1, got {probe}")
        cfg = BenchmarkConfig(frames=t, height=h, width=w, probe=bool(probe))
        try:
            cfg.validate()
        except ValueError as err:
            raise ValueError(f"{path}: config: {err}") from None
        c = FEATURE_CHANNELS
        expected = HEADER.size + 4 * t * h * w * c
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path} holds {size} bytes, but a {t}x{h}x{w}x{c} scene "
                             f"needs {expected}")
        # allocated only once the file is known to hold them
        features = np.empty((t, h, w, c), dtype="<f4")
        if fh.readinto(features) != features.nbytes:
            raise ValueError(f"{path} held fewer than {expected} bytes when read")
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: features hold a non-finite value")
    _, objects, expressions = _plan(seed, cfg)
    if _digest(_describe(objects, expressions)) != digest:
        raise ValueError(f"{path}: the objects and expressions that seed {seed} draws do not "
                         f"have the file's digest; {REGENERATE}")
    return Scene(seed=seed, config=cfg, objects=objects, expressions=expressions,
                 features=features)


def load_dataset(directory) -> list[Scene]:
    """Every scene of `directory` in seed order.  A missing directory, one
    that holds no `*.bin` scene, or a `*.bin` whose stem is not a seed >= 0
    written in decimal without a sign, separator or leading zero (`-3`, `03`,
    `+3` and `1_0` are not) raises ValueError naming it; `load_scene` checks
    each file."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"scene directory {directory} does not exist")
    seeds = []
    for path in sorted(directory.glob("*.bin")):
        if not (path.stem.isdecimal() and str(int(path.stem)) == path.stem):
            raise ValueError(f"{path} is not a scene: scene files are named <seed>.bin")
        seeds.append(int(path.stem))
    seeds.sort()
    if not seeds:
        raise ValueError(f"scene directory {directory} holds no *.bin scene")
    return [load_scene(directory, s) for s in seeds]


# -- metrics -------------------------------------------------------------------


def metric_j(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean IoU over aligned target-frame pairs; empty-vs-empty counts 1."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred.reshape(-1, pred.shape[-2], pred.shape[-1]).astype(bool)
    g = gt.reshape(-1, gt.shape[-2], gt.shape[-1]).astype(bool)
    inter = np.logical_and(p, g).sum(axis=(1, 2))
    union = np.logical_or(p, g).sum(axis=(1, 2))
    iou = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(iou.mean())


def _pad_border(mask: np.ndarray) -> np.ndarray:
    """`np.pad` of a boolean [..., H, W] stack by one False cell, without its set-up cost."""
    padded = np.zeros(mask.shape[:-2] + (mask.shape[-2] + 2, mask.shape[-1] + 2), dtype=bool)
    padded[..., 1:-1, 1:-1] = mask
    return padded


def boundary(mask: np.ndarray) -> np.ndarray:
    """Mask cells with at least one 4-neighbour outside the mask (grid edges
    count as outside).  Works on [..., H, W] stacks."""
    m = np.asarray(mask).astype(bool)
    padded = _pad_border(m)
    interior = (
        padded[..., 1:-1, :-2] & padded[..., 1:-1, 2:]
        & padded[..., :-2, 1:-1] & padded[..., 2:, 1:-1]
    )
    return m & ~interior


def _dilate(mask: np.ndarray) -> np.ndarray:
    padded = _pad_border(mask)
    h, w = mask.shape[-2:]
    out = np.zeros_like(mask)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= padded[..., 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    return out


def metric_f(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean boundary F-measure with one-cell tolerance over aligned pairs."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred.reshape(-1, pred.shape[-2], pred.shape[-1]).astype(bool)
    g = gt.reshape(-1, gt.shape[-2], gt.shape[-1]).astype(bool)
    pb = boundary(p)
    gb = boundary(g)
    pb_n = pb.sum(axis=(1, 2))
    gb_n = gb.sum(axis=(1, 2))
    hits_p = (pb & _dilate(gb)).sum(axis=(1, 2))
    hits_g = (gb & _dilate(pb)).sum(axis=(1, 2))
    precision = hits_p / np.maximum(pb_n, 1)
    recall = hits_g / np.maximum(gb_n, 1)
    denominator = np.maximum(precision + recall, 1e-300)
    f = 2.0 * precision * recall / denominator
    p_empty = ~p.any(axis=(1, 2))
    g_empty = ~g.any(axis=(1, 2))
    f = np.where(p_empty & g_empty, 1.0, np.where(p_empty | g_empty, 0.0, f))
    return float(f.mean())


def video_iou(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """IoU aggregated over all frames of each of the N masks `pred` [N, ...]
    with each of the G masks `gt` [G, ...]: an [N, G] table, in which a pair
    whose union is empty counts 1."""
    p = pred.astype(bool)[:, None]
    g = gt.astype(bool)[None]
    frames = tuple(range(2, p.ndim))
    union = np.logical_or(p, g).sum(axis=frames)
    return np.where(union > 0, np.logical_and(p, g).sum(axis=frames) / np.maximum(union, 1), 1.0)
