"""Procedural grid-motion benchmark plus region/boundary metrics.

Scenes are feature videos on a small grid: every object stamps its appearance
vector onto the cells it occupies, on top of background noise and a fixed
low-amplitude positional field (so object tokens can reflect where an object
is, the way backbone features do).  Every standard scene contains at least two
objects of the same category and near-identical appearance that differ only in
their motion, so expressions can only be resolved by motion understanding.

Expressions are pre-tagged token lists; their semantics are deterministic:
the head noun fixes the category, an adjective fixes the colour, the verb
fixes the motion kind and an optional adverb fixes the direction.  The
generator audits every emitted expression against the motion programs so the
stored target ids always equal the semantic matches.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .language import (ADJ, ADV, ALL_TAGS, NOUN, OTHER, PREP, VERB, ExprToken,
                       TaggedExpression, expression_from_json, expression_to_json)
from .perceiver import sinusoidal_grid

MAGIC = b"MSCOPE01"

STATIC = "static"
SHORT_BURST = "short-burst"
LONG_HORIZON = "long-horizon"

NOUNS = ["circle", "square", "triangle", "diamond", "star", "cross", "hexagon", "ring", "arrow", "dot"]
COLORS = ["red", "blue", "green", "yellow"]
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
VOCAB_IDS = {surface: i for i, (surface, _) in enumerate(VOCAB)}


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

    def position(self, start: tuple[int, int], t: int) -> tuple[int, int]:
        moved = max(0, min(t, self.onset + self.duration) - self.onset)
        return (start[0] + self.direction[0] * moved, start[1] + self.direction[1] * moved)


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
    channels: int = 32
    object_size: int = 2
    min_objects: int = 3
    max_objects: int = 5
    expressions_per_scene: int = 3
    background_noise: float = 0.05
    appearance_noise: float = 0.5
    position_field_scale: float = 0.5
    landmark_prob: float = 0.5
    adjective_prob: float = 0.6
    adverb_prob: float = 0.35
    no_target_prob: float = 0.1
    multi_target_prob: float = 0.1
    probe: bool = False  # probe scenes contrast long-horizon vs short-burst movers
    ensure_contrast: bool = True

    def validate(self) -> None:
        travel = min(self.width, self.height) - self.object_size
        long_min = -(-3 * self.frames // 4)  # ceil
        if long_min > min(self.frames, travel):
            raise GenerationError(
                f"long-horizon motion needs {long_min} moving frames but only "
                f"{min(self.frames, travel)} fit the grid"
            )
        if self.frames // 4 < 1:
            raise GenerationError(f"{self.frames} frames leave no room for short bursts")
        if self.max_objects > self.height // self.object_size:
            raise GenerationError("more objects than disjoint lanes")


@dataclass
class Scene:
    seed: int
    config: BenchmarkConfig
    objects: list[SceneObject]
    expressions: list[TaggedExpression]
    features: np.ndarray  # [T, H, W, C]
    masks: np.ndarray  # [n_objects, T, H, W], {0, 1}
    probe: bool = False

    def target_masks(self, expr: TaggedExpression) -> np.ndarray:
        return self.masks[list(expr.target_ids)]


def base_appearance(category: int, color: int, channels: int) -> np.ndarray:
    """Shared appearance vector for a (category, colour) pair, fixed across scenes.

    With enough channels the category and colour live in disjoint coordinate
    blocks (instance jitter later occupies the remainder); narrow feature
    spaces fall back to dense random directions.
    """
    if channels >= len(NOUNS) + len(COLORS) + 2:
        vec = np.zeros(channels)
        vec[category] = 1.2
        vec[len(NOUNS) + color] = 0.6
        return vec
    rng = np.random.default_rng(np.random.SeedSequence([917, category, color]))
    cat = rng.normal(size=channels)
    tint = rng.normal(size=channels)
    return cat / np.linalg.norm(cat) + 0.5 * tint / np.linalg.norm(tint)


def evaluate_expression(tokens: list[ExprToken], objects: list[SceneObject]) -> list[int]:
    """Deterministic expression semantics: indices of objects matching the
    head noun, optional adjective/adverb filters and the verb's motion kind."""
    nouns = [t.surface for t in tokens if t.tag == NOUN]
    adjectives = [t.surface for t in tokens if t.tag == ADJ]
    verbs = [t.surface for t in tokens if t.tag == VERB]
    adverbs = [t.surface for t in tokens if t.tag == ADV]
    if not nouns:
        return []
    category = NOUNS.index(nouns[0])
    color = COLORS.index(adjectives[0]) if adjectives else None
    kind = VERB_KINDS[verbs[0]] if verbs else None
    direction = ADVERB_DIRECTIONS[adverbs[0]] if adverbs else None
    out = []
    for i, obj in enumerate(objects):
        if obj.category != category:
            continue
        if color is not None and obj.color != color:
            continue
        if kind is not None and obj.motion.kind != kind:
            continue
        if direction is not None and tuple(obj.motion.direction) != direction:
            continue
        out.append(i)
    return out


def _sample_motion(rng, kind, cfg: BenchmarkConfig, axis: int, sign: int) -> MotionProgram:
    """Motion along `axis` (0=vertical, 1=horizontal) with unit speed."""
    t = cfg.frames
    if kind == STATIC:
        return MotionProgram(STATIC, 0, 0, (0, 0))
    travel = (cfg.height if axis == 0 else cfg.width) - cfg.object_size
    if kind == SHORT_BURST:
        duration = int(rng.integers(2, max(t // 4, 2) + 1))
    else:
        low = -(-3 * t // 4)
        high = min(t, travel)
        duration = int(rng.integers(low, high + 1))
    onset = int(rng.integers(0, t - duration + 1))
    direction = (sign, 0) if axis == 0 else (0, sign)
    return MotionProgram(kind, onset, duration, direction)


def _sample_start(rng, motion: MotionProgram, cfg: BenchmarkConfig, axis: int, lane: int):
    """Start cell such that the whole displacement stays on the grid."""
    size = cfg.object_size
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


def _render(objects, cfg: BenchmarkConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    t, h, w, c = cfg.frames, cfg.height, cfg.width, cfg.channels
    size = cfg.object_size
    position_field = sinusoidal_grid(h, w, c).reshape(h, w, c) * cfg.position_field_scale
    features = rng.normal(scale=cfg.background_noise, size=(t, h, w, c))
    features += position_field
    masks = np.zeros((len(objects), t, h, w))
    appearances = []
    jitter_start = len(NOUNS) + len(COLORS)
    for obj in objects:
        # per-instance signature: same base look, unit-length jitter scaled to
        # appearance_noise (instances stay visually similar but separable);
        # jitter avoids the category/colour block when the space allows it
        jitter = rng.normal(size=c)
        if c >= jitter_start + 2:
            jitter[:jitter_start] = 0.0
        jitter *= cfg.appearance_noise / np.linalg.norm(jitter)
        appearances.append(base_appearance(obj.category, obj.color, c) + jitter)
    for idx, obj in enumerate(objects):
        for frame in range(t):
            y, x = obj.motion.position(obj.start, frame)
            features[frame, y:y + size, x:x + size] += appearances[idx]
            masks[idx, frame, y:y + size, x:x + size] = 1.0
    return features, masks


def _build_expression(rng, objects, cfg: BenchmarkConfig, target_idx: int | None,
                      want_targets: list[int], video: str) -> TaggedExpression:
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

        def add(surface, tag):
            tokens.append(ExprToken(surface, tag, VOCAB_IDS[surface]))

        if rng.random() < 0.5:
            add(FILLERS[int(rng.integers(0, len(FILLERS)))], OTHER)
        use_adj = color is not None and rng.random() < cfg.adjective_prob
        if use_adj:
            add(COLORS[color], ADJ)
        add(NOUNS[category], NOUN)
        verbs = KIND_VERBS[kind]
        add(verbs[int(rng.integers(0, len(verbs)))], VERB)
        if direction is not None and direction != (0, 0) and rng.random() < cfg.adverb_prob:
            adverb = next(a for a, d in ADVERB_DIRECTIONS.items() if d == direction)
            add(adverb, ADV)
        if rng.random() < cfg.landmark_prob:
            other_cats = sorted({o.category for o in objects if o.category != category})
            if other_cats:
                add(PREPOSITIONS[int(rng.integers(0, len(PREPOSITIONS)))], PREP)
                add(NOUNS[other_cats[int(rng.integers(0, len(other_cats)))]], NOUN)
        matches = evaluate_expression(tokens, objects)
        if matches == sorted(want_targets):
            return TaggedExpression(tokens=tokens, target_ids=matches, video=video)
        # tighten with the adjective next try; otherwise resample wording
        if target_idx is not None and not use_adj:
            continue
    raise _Retry


def _build_scene(seed: int, cfg: BenchmarkConfig, rng) -> Scene:
    axis = int(rng.integers(0, 2))
    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    lanes = rng.choice((cfg.height if axis == 1 else cfg.width) // cfg.object_size,
                       size=n_objects, replace=False)

    objects: list[SceneObject] = []
    category = int(rng.integers(0, len(NOUNS)))
    color = int(rng.integers(0, len(COLORS)))
    sign = int(rng.choice([-1, 1]))
    multi_target = (not cfg.probe) and rng.random() < cfg.multi_target_prob

    if cfg.probe:
        # same appearance, same direction: one long walker, one short dart
        group_kinds = [LONG_HORIZON, SHORT_BURST]
    elif multi_target:
        base_kind, alt_kind = rng.permutation([STATIC, SHORT_BURST, LONG_HORIZON])[:2]
        group_kinds = [base_kind, base_kind, alt_kind]
    else:
        group_kinds = list(rng.permutation([STATIC, SHORT_BURST, LONG_HORIZON])[: int(rng.integers(2, 4))])
    if not cfg.ensure_contrast:
        group_kinds = group_kinds[:1]
    if len(group_kinds) > n_objects:
        group_kinds = group_kinds[:n_objects]

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

    video = f"scene-{seed}"
    expressions: list[TaggedExpression] = []
    for _ in range(cfg.expressions_per_scene):
        if cfg.probe:
            target = 0  # the long-horizon member of the contrast pair
            expressions.append(_build_expression(rng, objects, cfg, target, [target], video))
        elif multi_target:
            want = [i for i, o in enumerate(objects)
                    if o.category == category and o.color == color
                    and o.motion.kind == group_kinds[0]]
            if len(want) < 2:
                raise _Retry
            expressions.append(_build_expression(rng, objects, cfg, want[0], want, video))
        elif rng.random() < cfg.no_target_prob:
            expressions.append(_build_expression(rng, objects, cfg, None, [], video))
        else:
            if rng.random() < 0.7:
                target = int(rng.integers(0, len(group_kinds)))
            else:
                target = int(rng.integers(0, n_objects))
            expressions.append(_build_expression(rng, objects, cfg, target, [target], video))

    features, masks = _render(objects, cfg, rng)
    return Scene(seed=seed, config=cfg, objects=objects, expressions=expressions,
                 features=features, masks=masks, probe=cfg.probe)


def generate(seed: int, config: BenchmarkConfig | None = None) -> Scene:
    """Deterministic scene for a seed; identical inputs give identical bytes."""
    cfg = config if config is not None else BenchmarkConfig()
    cfg.validate()
    rng = np.random.default_rng(seed)
    for _ in range(64):
        try:
            return _build_scene(seed, cfg, rng)
        except _Retry:
            continue
    raise GenerationError(f"could not satisfy scene constraints for seed {seed}")


# -- dataset io ---------------------------------------------------------------


def save_scene(scene: Scene, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "seed": scene.seed,
        "probe": scene.probe,
        "config": asdict(scene.config),
        "objects": [
            {
                "category": o.category,
                "color": o.color,
                "start": list(o.start),
                "kind": o.motion.kind,
                "onset": o.motion.onset,
                "duration": o.motion.duration,
                "direction": list(o.motion.direction),
            }
            for o in scene.objects
        ],
        "expressions": [expression_to_json(e) for e in scene.expressions],
    }
    with open(directory / f"{scene.seed}.json", "w") as fh:
        json.dump(meta, fh)
    with open(directory / f"{scene.seed}.bin", "wb") as fh:
        fh.write(MAGIC)
        fh.write(scene.features.astype("<f8").tobytes())
        fh.write(scene.masks.astype("<f8").tobytes())


def load_scene(directory, seed: int) -> Scene:
    """Read the scene `<seed>.json` and `<seed>.bin` of `directory`.

    Raises ValueError, naming the file and the field, for a missing top-level
    key, a `seed` field that differs from `seed`, a config key that
    `BenchmarkConfig` does not have, a `probe` flag that is not a bool or
    differs from `config.probe`, an object whose category, color or motion
    kind is unknown, an expression entry that cannot be read or has no
    tokens, a token tag outside `ALL_TAGS`, a vocab id outside the
    vocabulary, a target id that names no object or repeats one, a `.bin`
    without the header or whose size does not fit the scene, non-finite
    features and mask values other than 0 and 1.  An absent `probe` means
    False."""
    directory = Path(directory)
    json_path = directory / f"{seed}.json"
    with open(json_path) as fh:
        meta = json.load(fh)
    missing = sorted({"config", "objects", "expressions", "seed"} - set(meta))
    if missing:
        raise ValueError(f"{json_path}: scene lacks the keys {missing}")
    if meta["seed"] != seed:
        raise ValueError(f"{json_path}: seed field says {meta['seed']!r}, "
                         f"but the file name says {seed}")
    unknown = sorted(set(meta["config"]) - {f.name for f in fields(BenchmarkConfig)})
    if unknown:
        raise ValueError(f"{json_path}: config holds unknown keys {unknown}")
    cfg = BenchmarkConfig(**meta["config"])
    probe = meta.get("probe", False)
    if not isinstance(probe, bool):
        raise ValueError(f"{json_path}: probe is {probe!r}, not a bool")
    if probe != cfg.probe:
        raise ValueError(f"{json_path}: probe is {probe!r}, but config.probe is {cfg.probe!r}")
    objects = []
    for index, o in enumerate(meta["objects"]):
        where = f"{json_path}: object {index}"
        if o["category"] not in range(len(NOUNS)):
            raise ValueError(f"{where}: category {o['category']!r} is outside [0, {len(NOUNS)})")
        if o["color"] not in range(len(COLORS)):
            raise ValueError(f"{where}: color {o['color']!r} is outside [0, {len(COLORS)})")
        if o["kind"] not in KIND_VERBS:
            raise ValueError(f"{where}: kind {o['kind']!r} is not one of {list(KIND_VERBS)}")
        objects.append(SceneObject(
            category=o["category"],
            color=o["color"],
            start=tuple(o["start"]),
            motion=MotionProgram(o["kind"], o["onset"], o["duration"], tuple(o["direction"])),
        ))
    expressions = []
    for index, entry in enumerate(meta["expressions"]):
        where = f"{json_path}: expression {index}"
        try:
            expr = expression_from_json(entry)
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{where}: malformed entry ({err!r})") from None
        if not expr.tokens:
            raise ValueError(f"{where} has no tokens")
        for tok in expr.tokens:
            if tok.tag not in ALL_TAGS:
                raise ValueError(f"{where}: token {tok.surface!r} has unknown tag {tok.tag!r}")
            if not 0 <= tok.vocab_id < len(VOCAB):
                raise ValueError(f"{where}: token {tok.surface!r} has vocab id {tok.vocab_id}, "
                                 f"outside [0, {len(VOCAB)})")
        for obj_idx in expr.target_ids:
            if not 0 <= obj_idx < len(objects):
                raise ValueError(f"{where}: target id {obj_idx} is outside [0, {len(objects)})")
        if len(set(expr.target_ids)) != len(expr.target_ids):
            raise ValueError(f"{where}: target ids {expr.target_ids} name an object twice")
        expressions.append(expr)
    bin_path = directory / f"{seed}.bin"
    raw = bin_path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{bin_path} does not start with the {MAGIC!r} header")
    t, h, w, c = cfg.frames, cfg.height, cfg.width, cfg.channels
    n = len(objects)
    n_feat = t * h * w * c
    expected = len(MAGIC) + 8 * (n_feat + n * t * h * w)
    if len(raw) != expected:
        raise ValueError(f"{bin_path} holds {len(raw)} bytes, but a {t}x{h}x{w}x{c} scene "
                         f"with {n} objects needs {expected}")
    body = np.frombuffer(raw, dtype="<f8", offset=len(MAGIC))
    features = body[:n_feat].reshape(t, h, w, c).copy()
    masks = body[n_feat:].reshape(n, t, h, w).copy()
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{bin_path}: features hold a non-finite value")
    if not np.all((masks == 0.0) | (masks == 1.0)):
        raise ValueError(f"{bin_path}: masks hold a value other than 0 and 1")
    return Scene(seed=meta["seed"], config=cfg, objects=objects, expressions=expressions,
                 features=features, masks=masks, probe=probe)


def load_dataset(directory) -> list[Scene]:
    """Every scene of `directory` in seed order.  A missing directory, one
    that holds no `*.json` scene, or a `*.json` not named by an integer seed
    raises ValueError naming it."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"scene directory {directory} does not exist")
    seeds = []
    for path in sorted(directory.glob("*.json")):
        try:
            seeds.append(int(path.stem))
        except ValueError:
            raise ValueError(f"{path} is not a scene: scene files are named <seed>.json") from None
    seeds.sort()
    if not seeds:
        raise ValueError(f"scene directory {directory} holds no *.json scene")
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


def video_iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """IoU aggregated over all frames of one target."""
    p = pred.astype(bool)
    g = gt.astype(bool)
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)
