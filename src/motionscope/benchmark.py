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
words select (`evaluate_expression`), and a motion program's kind is the one
whose range of durations (`_durations`) holds its duration, so a scene file
stores neither: `load_scene` derives them, and the masks, from the words and
the motion programs.

The recipe is fixed, as a benchmark dataset's is: the module constants
`OBJECT_SIZE`, `MIN_OBJECTS`, `MAX_OBJECTS`, `EXPRESSIONS_PER_SCENE`,
`BACKGROUND_NOISE`, `APPEARANCE_NOISE`, `POSITION_FIELD_SCALE`,
`LANDMARK_PROB`, `ADJECTIVE_PROB`, `ADVERB_PROB`, `NO_TARGET_PROB` and
`MULTI_TARGET_PROB` set it.  A scene is a function of its seed and a
`BenchmarkConfig`, which holds only the data's shape and the probe switch.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import check_field_types, json_object, read_json
from .language import ADJ, ADV, NOUN, OTHER, PREP, VERB, ExprToken, TaggedExpression
from .perceiver import sinusoidal_grid

MAGIC = b"MSCOPE03"

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
# a word's token: its tag and vocab id are fixed by VOCAB
TOKENS = {surface: ExprToken(surface, tag, i) for i, (surface, tag) in enumerate(VOCAB)}
MOTION_DIRECTIONS = {(0, 0), *ADVERB_DIRECTIONS.values()}  # what a motion program may take

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
    disjoint, so a program's duration names its kind."""
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
    channels: int = 32
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
        if self.channels < 1:
            raise GenerationError(f"a scene needs at least one feature channel, "
                                  f"got {self.channels}")
        # lanes run across the motion axis, which is either one
        lanes = min(self.height, self.width) // OBJECT_SIZE
        if MAX_OBJECTS > lanes:
            raise GenerationError(
                f"a {self.height}x{self.width} grid has {lanes} disjoint lanes on its "
                f"narrow side, but a scene holds up to {MAX_OBJECTS} objects")


@dataclass
class Scene:
    seed: int
    config: BenchmarkConfig
    objects: list[SceneObject]
    expressions: list[TaggedExpression]
    features: np.ndarray  # [T, H, W, C], float32
    masks: np.ndarray  # [n_objects, T, H, W], bool

    @property
    def probe(self) -> bool:
        return self.config.probe

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
    it has moved `duration` cells.  A square that leaves the grid raises
    ValueError naming the object."""
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
        try:
            masks[idx, np.ravel_multi_index(cells, (frames, height, width))] = True
        except ValueError:  # a cell off the grid, negative ones included
            raise ValueError(f"object {idx}: start {list(obj.start)} moves its square off "
                             f"the {height}x{width} grid") from None
    return masks.reshape(len(objects), frames, height, width)


def _render(objects, cfg: BenchmarkConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    t, h, w, c = cfg.frames, cfg.height, cfg.width, cfg.channels
    position_field = sinusoidal_grid(h, w, c).reshape(h, w, c) * POSITION_FIELD_SCALE
    features = rng.normal(scale=BACKGROUND_NOISE, size=(t, h, w, c))
    features += position_field
    masks = _masks(objects, t, h, w)
    cells = features.reshape(t * h * w, c)  # a view: one row a cell
    jitter_start = len(NOUNS) + len(COLORS)
    for obj, mask in zip(objects, masks):
        # per-instance signature: same base look, unit-length jitter scaled to
        # APPEARANCE_NOISE (instances stay visually similar but separable);
        # jitter avoids the category/colour block when the space allows it
        jitter = rng.normal(size=c)
        if c >= jitter_start + 2:
            jitter[:jitter_start] = 0.0
        jitter *= APPEARANCE_NOISE / np.linalg.norm(jitter)
        cells[np.flatnonzero(mask)] += base_appearance(obj.category, obj.color, c) + jitter
    return features.astype(np.float32), masks


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


def _build_scene(seed: int, cfg: BenchmarkConfig, rng) -> Scene:
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
            if len(want) < 2:
                raise _Retry
            expressions.append(_build_expression(rng, objects, want[0], want))
        elif rng.random() < NO_TARGET_PROB:
            expressions.append(_build_expression(rng, objects, None, []))
        else:
            if rng.random() < 0.7:
                target = int(rng.integers(0, len(group_kinds)))
            else:
                target = int(rng.integers(0, n_objects))
            expressions.append(_build_expression(rng, objects, target, [target]))

    features, masks = _render(objects, cfg, rng)
    return Scene(seed=seed, config=cfg, objects=objects, expressions=expressions,
                 features=features, masks=masks)


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

REGENERATE = "regenerate a scene file of an earlier version with `motionscope gen`"


def save_scene(scene: Scene, directory) -> None:
    """Write `scene` as `<seed>.json` and `<seed>.bin`, which hold only what
    `load_scene` cannot work out itself.  The `.json` holds the config, each
    object's category, color, start, onset, duration and direction, and each
    expression as its list of words.  The `.bin` holds the header `MSCOPE03`,
    then the features [T, H, W, C] as little-endian float32 in C order,
    written from their own buffer.  Motion kinds, tokens, target ids and
    masks are derived on load."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": asdict(scene.config),
        "objects": [
            {
                "category": o.category,
                "color": o.color,
                "start": list(o.start),
                "onset": o.motion.onset,
                "duration": o.motion.duration,
                "direction": list(o.motion.direction),
            }
            for o in scene.objects
        ],
        "expressions": [[t.surface for t in e.tokens] for e in scene.expressions],
    }
    with open(directory / f"{scene.seed}.json", "w") as fh:
        json.dump(meta, fh)
    with open(directory / f"{scene.seed}.bin", "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.ascontiguousarray(scene.features, dtype="<f4"))


def _check_keys(entry: dict, keys, where: str) -> None:
    """ValueError naming `where` and the keys unless `entry` holds exactly `keys`."""
    problems = [f"{text} {names}" for text, names in (
        ("lacks the keys", sorted(set(keys) - set(entry))),
        ("holds unknown keys", sorted(set(entry) - set(keys)))) if names]
    if problems:
        raise ValueError(f"{where} {' and '.join(problems)}; {REGENERATE}")


def load_scene(directory, seed: int) -> Scene:
    """Read the scene `<seed>.json` and `<seed>.bin` of `directory`, as
    `save_scene` writes them, and derive what they do not store: each motion
    program's kind from its duration, each expression's tokens from its
    words through `VOCAB` and its target ids through `evaluate_expression`,
    and the masks from the motion programs.  The features are read straight
    into a float32 [T, H, W, C] array, and the masks are a bool
    [n_objects, T, H, W] array.

    Raises ValueError, naming the file and the field, for a `.json` that is
    not JSON; a top level, `config` or object entry that is not a JSON object,
    or that lacks a key or holds an unknown one; `objects` or `expressions`
    that is not a JSON list; a config value whose type is not its field's, or
    a config that `BenchmarkConfig.validate` rejects; fewer than MIN_OBJECTS
    or more than MAX_OBJECTS objects; an object whose category or color is
    unknown, or whose motion program has fields that are not ints, a
    direction that is not a unit step or [0, 0], moving frames outside the
    scene's, a duration that fits no motion kind, a unit direction with
    duration 0 or [0, 0] with a positive one, or a square that leaves the
    grid; an expression that is not a non-empty list of vocabulary words; and
    a `.bin` without the header or whose size does not fit the scene, or with
    non-finite features.  A file of an earlier version, whose JSON holds keys
    that are now derived or fixed by the recipe or whose `.bin` starts with
    `MSCOPE01` or `MSCOPE02`, is rejected with a request to regenerate it with
    `motionscope gen`, which rebuilds a scene from its seed and config."""
    directory = Path(directory)
    json_path = directory / f"{seed}.json"
    meta = json_object(read_json(json_path), json_path)
    _check_keys(meta, ("config", "objects", "expressions"), f"{json_path}: scene")
    for key in ("objects", "expressions"):
        if not isinstance(meta[key], list):
            raise ValueError(f"{json_path}: {key} must be a JSON list, "
                             f"got {type(meta[key]).__name__}")
    config = json_object(meta["config"], f"{json_path}: config")
    _check_keys(config, [f.name for f in fields(BenchmarkConfig)], f"{json_path}: config")
    cfg = BenchmarkConfig(**config)
    try:
        check_field_types(cfg)
        cfg.validate()
    except ValueError as err:
        raise ValueError(f"{json_path}: config: {err}") from None
    # the recipe's object count also bounds the masks that loading builds
    if not MIN_OBJECTS <= len(meta["objects"]) <= MAX_OBJECTS:
        raise ValueError(f"{json_path}: {len(meta['objects'])} objects, but a scene holds "
                         f"{MIN_OBJECTS} to {MAX_OBJECTS}")
    durations = {kind: _durations(kind, cfg.frames) for kind in KIND_VERBS}
    objects = []
    for index, o in enumerate(meta["objects"]):
        where = f"{json_path}: object {index}"
        _check_keys(json_object(o, where),
                    ("category", "color", "start", "onset", "duration", "direction"), where)
        for key in ("category", "color", "onset", "duration"):
            if type(o[key]) is not int:
                raise ValueError(f"{where}: {key} {o[key]!r} is not an int")
        if not 0 <= o["category"] < len(NOUNS):
            raise ValueError(f"{where}: category {o['category']!r} is outside [0, {len(NOUNS)})")
        if not 0 <= o["color"] < len(COLORS):
            raise ValueError(f"{where}: color {o['color']!r} is outside [0, {len(COLORS)})")
        for key in ("start", "direction"):
            if not (isinstance(o[key], list) and len(o[key]) == 2
                    and all(type(v) is int for v in o[key])):
                raise ValueError(f"{where}: {key} {o[key]!r} is not a pair of ints")
        if tuple(o["direction"]) not in MOTION_DIRECTIONS:
            raise ValueError(f"{where}: direction {o['direction']} is neither a unit step "
                             f"nor [0, 0]")
        if not 0 <= o["onset"] <= cfg.frames:
            raise ValueError(f"{where}: onset {o['onset']} is outside [0, {cfg.frames}]")
        if not 0 <= o["duration"] <= cfg.frames - o["onset"]:
            raise ValueError(f"{where}: duration {o['duration']} is outside "
                             f"[0, {cfg.frames - o['onset']}], the frames from its onset on")
        kind = next((k for k, span in durations.items() if o["duration"] in span), None)
        if kind is None:
            ranges = ", ".join(f"{k} {span[0]}..{span[-1]}" for k, span in durations.items())
            raise ValueError(f"{where}: duration {o['duration']} fits no motion kind of a "
                             f"{cfg.frames}-frame scene ({ranges})")
        if (o["duration"] == 0) != (o["direction"] == [0, 0]):
            raise ValueError(f"{where}: direction {o['direction']} does not fit duration "
                             f"{o['duration']}: a program has a unit direction exactly "
                             f"when it moves")
        objects.append(SceneObject(
            category=o["category"],
            color=o["color"],
            start=tuple(o["start"]),
            motion=MotionProgram(kind, o["onset"], o["duration"], tuple(o["direction"])),
        ))
    expressions = []
    for index, words in enumerate(meta["expressions"]):
        where = f"{json_path}: expression {index}"
        if not isinstance(words, list):
            got = (f"an object with the keys {sorted(words)}" if isinstance(words, dict)
                   else type(words).__name__)
            raise ValueError(f"{where} must be a JSON list of words, got {got}; {REGENERATE}")
        if not words:
            raise ValueError(f"{where} has no tokens")
        for word in words:
            if not (isinstance(word, str) and word in TOKENS):
                raise ValueError(f"{where}: {word!r} is not a word of the vocabulary")
        tokens = [TOKENS[word] for word in words]
        expressions.append(TaggedExpression(tokens, evaluate_expression(tokens, objects)))
    bin_path = directory / f"{seed}.bin"
    t, h, w, c = cfg.frames, cfg.height, cfg.width, cfg.channels
    expected = len(MAGIC) + 4 * t * h * w * c
    with open(bin_path, "rb") as fh:
        header = fh.read(len(MAGIC))
        if header in (b"MSCOPE01", b"MSCOPE02"):
            raise ValueError(f"{bin_path} is an {header.decode()} scene file of an earlier "
                             f"version, which is no longer read; regenerate it with "
                             f"`motionscope gen`")
        if header != MAGIC:
            raise ValueError(f"{bin_path} does not start with the {MAGIC!r} header")
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{bin_path} holds {size} bytes, but a {t}x{h}x{w}x{c} scene "
                             f"needs {expected}")
        # allocated only once the file is known to hold them
        features = np.empty((t, h, w, c), dtype="<f4")
        if fh.readinto(features) != features.nbytes:
            raise ValueError(f"{bin_path} held fewer than {expected} bytes when read")
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{bin_path}: features hold a non-finite value")
    try:
        masks = _masks(objects, t, h, w)
    except ValueError as err:
        raise ValueError(f"{json_path}: {err}") from None
    return Scene(seed=seed, config=cfg, objects=objects, expressions=expressions,
                 features=features, masks=masks)


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


def video_iou(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """IoU aggregated over all frames of each of the N masks `pred` [N, ...]
    with each of the G masks `gt` [G, ...]: an [N, G] table, in which a pair
    whose union is empty counts 1."""
    p = pred.astype(bool)[:, None]
    g = gt.astype(bool)[None]
    frames = tuple(range(2, p.ndim))
    union = np.logical_or(p, g).sum(axis=frames)
    return np.where(union > 0, np.logical_and(p, g).sum(axis=frames) / np.maximum(union, 1), 1.0)
