import dataclasses
import hashlib
import json
import re
import shutil
import struct

import numpy as np
import pytest

from motionscope.benchmark import (
    LONG_HORIZON,
    MAX_OBJECTS,
    MIN_OBJECTS,
    OBJECT_SIZE,
    SHORT_BURST,
    STATIC,
    VOCAB,
    HEADER,
    MAGIC,
    REGENERATE,
    FEATURE_CHANNELS,
    BenchmarkConfig,
    GenerationError,
    Scene,
    _describe,
    _digest,
    _dilate,
    _durations,
    _masks,
    _pad_border,
    boundary,
    evaluate_expression,
    generate,
    load_dataset,
    load_scene,
    metric_f,
    metric_j,
    save_scene,
    video_iou,
)
from motionscope.language import STATIC_TAGS, VERB


def small_config(**overrides):
    # the narrowest square grid that holds MAX_OBJECTS lanes
    base = dict(frames=8, height=10, width=10)
    base.update(overrides)
    return BenchmarkConfig(**base)


def rewrite_header(path, **values):
    """Rewrite the named `HEADER` fields of the scene file at `path`:
    `magic`, `seed`, `frames`, `height`, `width`, `probe` or `digest`."""
    raw = path.read_bytes()
    names = ("magic", "seed", "frames", "height", "width", "probe", "digest")
    header = dict(zip(names, HEADER.unpack_from(raw)))
    header.update(values)
    path.write_bytes(HEADER.pack(*header.values()) + raw[HEADER.size:])


def edited_scene(tmp_path, edit, seed=6, config=None):
    """Save scene `seed` of `config` (the small one unless given), let `edit`
    change its description in place (its config as a dict, and its objects
    and expressions as `_describe` gives them), and write the file of what
    the edit left: the header holds that config and the digest of those
    objects and expressions.  Returns the file's path."""
    scene = generate(seed, config or small_config())
    save_scene(scene, tmp_path)
    described = {"config": dataclasses.asdict(scene.config),
                 **_describe(scene.objects, scene.expressions)}
    edit(described)
    path = tmp_path / f"{seed}.bin"
    rewrite_header(path, **described.pop("config"), digest=_digest(described))
    return path


def assert_not_replayed(path, seed=6):
    """Loading the scene at `path` fails naming the file, the seed whose
    replay does not have the file's digest, and the regenerate hint."""
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: the objects and expressions that seed {seed} draws do not have the "
            f"file's digest; {REGENERATE}")):
        load_scene(path.parent, seed)


def assert_masks_are_derived(scene) -> set[int]:
    """`scene.masks` is the bool [n_objects, T, H, W] array that `_masks`
    draws from the scene's objects, and each expression's `target_masks` are
    its targets' rows of it, of shape (0, T, H, W) for no target.  Returns
    the target counts of the scene's expressions."""
    cfg = scene.config
    masks = scene.masks
    assert masks.dtype == bool
    assert masks.shape == (len(scene.objects), cfg.frames, cfg.height, cfg.width)
    assert np.array_equal(masks, _masks(scene.objects, cfg.frames, cfg.height, cfg.width))
    for expr in scene.expressions:
        targets = scene.target_masks(expr)
        assert targets.dtype == bool
        assert np.array_equal(targets, masks[expr.target_ids])  # shapes too
    return {len(expr.target_ids) for expr in scene.expressions}


def set_entry(described, keys, value):
    """Set the entry that the path `keys` names in the nested dicts and lists
    `described`."""
    *parents, last = keys
    for key in parents:
        described = described[key]
    described[last] = value


class TestGenerator:
    def test_scene_stores_no_masks(self):
        """The masks are derived from the objects on each read, not held."""
        assert ([f.name for f in dataclasses.fields(Scene)]
                == ["seed", "config", "objects", "expressions", "features"])

    def test_same_seed_bit_identical(self):
        cfg = small_config()
        a = generate(17, cfg)
        b = generate(17, cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.masks, b.masks)
        assert a.expressions == b.expressions
        assert [o.motion for o in a.objects] == [o.motion for o in b.objects]

    def test_single_static_object_mask_is_constant_support(self):
        cfg = small_config()
        static = 0
        for seed in range(10):
            scene = generate(seed, cfg)
            for obj, mask in zip(scene.objects, scene.masks):
                if obj.motion.kind != STATIC:
                    continue
                static += 1
                for t in range(cfg.frames):
                    assert np.array_equal(mask[t], mask[0])
                assert mask[0].sum() == OBJECT_SIZE ** 2
        assert static > 0

    def test_contrast_pair_present_and_audited(self):
        cfg = small_config()
        for seed in range(20):
            scene = generate(seed, cfg)
            pairs = {}
            for obj in scene.objects:
                pairs.setdefault((obj.category, obj.color), []).append(obj.motion.kind)
            assert any(len(kinds) >= 2 for kinds in pairs.values())
            for expr in scene.expressions:
                assert evaluate_expression(expr.tokens, scene.objects) == sorted(expr.target_ids)

    def test_probe_scene_targets_long_horizon_member(self):
        cfg = small_config(probe=True)
        for seed in range(10):
            scene = generate(seed, cfg)
            assert scene.probe
            assert scene.objects[0].motion.kind == LONG_HORIZON
            assert scene.objects[1].motion.kind == SHORT_BURST
            assert scene.objects[0].category == scene.objects[1].category
            assert scene.objects[0].color == scene.objects[1].color
            assert scene.objects[0].motion.direction == scene.objects[1].motion.direction
            for expr in scene.expressions:
                assert expr.target_ids == [0]

    def test_motion_program_invariants(self):
        cfg = small_config()
        for seed in range(30):
            scene = generate(seed, cfg)
            for obj in scene.objects:
                m = obj.motion
                assert m.onset + m.duration <= cfg.frames
                if m.kind == SHORT_BURST:
                    assert 0 < m.duration <= cfg.frames // 4
                if m.kind == LONG_HORIZON:
                    assert m.duration >= 3 * cfg.frames // 4
                assert m.duration in _durations(m.kind, cfg.frames)

    def test_kind_ranges_of_every_valid_config_are_disjoint(self):
        """Twins that differ in motion kind must move for different numbers
        of frames, so the kinds' ranges may not overlap in any config that
        `validate` accepts."""
        for frames in range(1, 65):
            cfg = BenchmarkConfig(frames=frames, height=64, width=64)
            try:
                cfg.validate()
            except GenerationError:
                assert frames < 4
                continue
            spans = [set(_durations(kind, frames)) for kind in (STATIC, SHORT_BURST, LONG_HORIZON)]
            assert sum(map(len, spans)) == len(set().union(*spans))
            assert set().union(*spans) <= set(range(frames + 1))

    def test_masks_stay_on_grid_and_disjoint(self):
        cfg = small_config()
        for seed in range(10):
            scene = generate(seed, cfg)
            assert scene.masks.max() <= 1.0
            # lane placement keeps objects disjoint in every frame
            assert np.all(scene.masks.sum(axis=0) <= 1.0)

    def test_masks_equal_a_per_frame_loop_over_the_motion_programs(self):
        """The squares that `generate` draws and `load_scene` derives equal one
        slice per frame at start + direction * max(0, min(t, onset + duration)
        - onset), the reference form of a motion program's path."""
        for probe in (False, True):
            cfg = small_config(probe=probe)
            for seed in range(20):
                scene = generate(seed, cfg)
                want = np.zeros_like(scene.masks)
                for i, obj in enumerate(scene.objects):
                    m = obj.motion
                    for t in range(cfg.frames):
                        moved = max(0, min(t, m.onset + m.duration) - m.onset)
                        y = obj.start[0] + m.direction[0] * moved
                        x = obj.start[1] + m.direction[1] * moved
                        want[i, t, y:y + OBJECT_SIZE, x:x + OBJECT_SIZE] = True
                assert np.array_equal(scene.masks, want)

    def test_expression_tokens_have_valid_vocab_ids(self):
        scene = generate(3, small_config())
        for expr in scene.expressions:
            for tok in expr.tokens:
                assert 0 <= tok.vocab_id < len(VOCAB)
                assert VOCAB[tok.vocab_id] == (tok.surface, tok.tag)
            tags = {t.tag for t in expr.tokens}
            assert tags & STATIC_TAGS
            verbs = [t for t in expr.tokens if t.tag == VERB]
            assert len(verbs) <= 1

    def test_unsatisfiable_config_rejected(self):
        with pytest.raises(GenerationError):
            generate(0, small_config(width=4, height=4, frames=16))

    @pytest.mark.parametrize("height,width", [(20, 8), (8, 20)])
    def test_grid_without_lanes_on_either_side_rejected(self, height, width):
        """A vertical-motion scene lays its lanes across the width, a
        horizontal one across the height, so the narrow side must hold
        MAX_OBJECTS lanes."""
        cfg = small_config(height=height, width=width)
        message = re.escape(f"{height}x{width} grid has 4 disjoint lanes") + ".*" + str(MAX_OBJECTS)
        with pytest.raises(GenerationError, match=message):
            cfg.validate()
        with pytest.raises(GenerationError, match=message):
            generate(9, cfg)

    @pytest.mark.parametrize("seed,overrides,file_digest,plan_digest", [
        (0, {}, "341a8a692408ef329ae01324a839eb27c528435e82716b79d17146adf449136c",
         "a379d27a67c4c201a42ae1cc2f251e71da89a77d1fea642009d56f0b3fa271e9"),
        (1000, {}, "e689a630b330e2abc6732d0f76b1ce6ffa1bdeb6258339f91759ad7a834e4807",
         "798aee56d13ba06b3bf951b8927c21634e7fd08298b1e95e718e061b38b835bf"),
        (2000, {"probe": True}, "183f63da00ab6f9d6098e7319578afceff3525c29c50d46f3c461ddc600aac0f",
         "89982491736e5470d46e209284bc0b647be69a749929f7fff6d2dcf0e63cad0d"),
        (0, {"height": 32, "width": 32},
         "76de22f48cde362ebabb59ec50e72551d98a9906799bbb60f670b348aa6a2426",
         "86e487624afac8ff585d6d09435fb7a762fe1dbf8db9ab2ee07997f7143ba69d"),
    ], ids=["default", "val-seed", "probe", "hires"])
    def test_default_recipe_is_pinned(self, tmp_path, seed, overrides, file_digest, plan_digest):
        """The bytes of full-size scene files pin the recipe constants: the
        file's digest every feature byte, and the header's digest the objects
        and the words."""
        save_scene(generate(seed, BenchmarkConfig(**overrides)), tmp_path)
        raw = (tmp_path / f"{seed}.bin").read_bytes()
        assert HEADER.unpack_from(raw)[-1].hex() == plan_digest
        assert hashlib.sha256(raw).hexdigest() == file_digest


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        scene = generate(5, small_config())
        save_scene(scene, tmp_path)
        loaded = load_scene(tmp_path, 5)
        assert np.array_equal(loaded.features, scene.features)
        assert np.array_equal(loaded.masks, scene.masks)
        assert scene.masks.dtype == bool and loaded.masks.dtype == bool
        assert loaded.expressions == scene.expressions
        assert loaded.probe == scene.probe
        assert loaded.objects == scene.objects

    @pytest.mark.parametrize("overrides,seeds,target_counts", [
        ({}, range(0, 8), {0, 1, 2, 3}),
        ({"probe": True}, range(2000, 2008), {1}),
        ({"height": 32, "width": 32}, range(0, 4), {0, 1}),
        (dict(frames=8, height=10, width=10), range(0, 40), {0, 1, 2, 3}),
    ], ids=["default", "probe", "hires", "10x10"])
    def test_derived_kinds_targets_and_masks_equal_the_generated_ones(self, tmp_path, overrides,
                                                                      seeds, target_counts):
        """A file stores no object, kind, word, target id or mask, yet loads
        them back equal to what the generator drew.  Generated and loaded
        scenes alike derive their masks from their objects, for expressions
        of no, one and several targets."""
        seen = set()
        for seed in seeds:
            scene = generate(seed, BenchmarkConfig(**overrides))
            save_scene(scene, tmp_path)
            loaded = load_scene(tmp_path, seed)
            assert [o.motion.kind for o in loaded.objects] == [o.motion.kind for o in scene.objects]
            assert loaded.objects == scene.objects
            assert [e.tokens for e in loaded.expressions] == [e.tokens for e in scene.expressions]
            assert ([e.target_ids for e in loaded.expressions]
                    == [e.target_ids for e in scene.expressions])
            seen |= assert_masks_are_derived(scene) | assert_masks_are_derived(loaded)
            assert np.array_equal(loaded.masks, scene.masks)
        assert seen == target_counts

    def test_edited_duration_and_word_are_rejected(self, tmp_path):
        """Object 1 of this scene walks down from (1, 2) for 7 of 8 frames.
        A file whose digest is that of a plan in which it moves 2 frames and
        expression 0 says `darting` is not what seed 6 draws."""
        def edit(described):
            assert described["objects"][1]["duration"] == 7
            assert described["expressions"][0] == ["the", "dot", "resting"]
            described["objects"][1]["duration"] = 2
            described["expressions"][0][2] = "darting"

        assert_not_replayed(edited_scene(tmp_path, edit))

    def test_scene_files_renamed_to_another_seed_are_rejected(self, tmp_path):
        save_scene(generate(5, small_config()), tmp_path)
        (tmp_path / "5.bin").rename(tmp_path / "6.bin")
        message = re.escape(f"{tmp_path / '6.bin'} holds scene 5, not scene 6; {REGENERATE}")
        with pytest.raises(ValueError, match=message):
            load_scene(tmp_path, 6)
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path)

    def test_scene_file_copied_over_another_seeds_is_rejected(self, tmp_path):
        """Scenes 5 and 6 of one config have the same shape, so a copy of
        scene 5's file over scene 6's has the size that scene 6 needs; the
        seed in its header names it."""
        for seed in (5, 6):
            save_scene(generate(seed, small_config()), tmp_path)
        shutil.copyfile(tmp_path / "5.bin", tmp_path / "6.bin")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / '6.bin'} holds scene 5")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("keys,value", [
        pytest.param(("expressions", 0, 2), "darting", id="verb"),
        pytest.param(("objects", 1), 5, id="object-entry"),
        pytest.param(("config", "probe"), True, id="other-config"),
        pytest.param(("objects", 1, "start"), "ab", id="start-not-a-pair"),
        pytest.param(("objects", 1, "start"), [1.0, 2], id="start-float"),
        pytest.param(("objects", 1, "start"), [2, 2], id="start-off-grid"),
        pytest.param(("objects", 1, "start"), [1, 9], id="start-past-edge"),
        pytest.param(("objects", 1, "start"), [-1, 2], id="start-negative"),
        pytest.param(("objects", 1, "onset"), 0.0, id="onset-float"),
        pytest.param(("objects", 1, "onset"), 1.5, id="onset-fraction"),
        pytest.param(("objects", 1, "onset"), -1, id="onset-negative"),
        pytest.param(("objects", 1, "onset"), 1000000, id="onset-past-end"),
        pytest.param(("objects", 1, "duration"), True, id="duration-bool"),
        pytest.param(("objects", 1, "duration"), -2, id="duration-negative"),
        pytest.param(("objects", 1, "duration"), 9, id="duration-past-end"),
        pytest.param(("objects", 1, "direction"), [1], id="direction-short"),
        pytest.param(("objects", 1, "direction"), [5, 5], id="direction-long-step"),
        pytest.param(("objects", 1, "direction"), [1, 1], id="direction-diagonal"),
    ])
    def test_scene_its_seed_does_not_replay_is_rejected(self, tmp_path, keys, value):
        """Object 1 of this scene starts at (1, 2) and walks down on frames
        0..6 of 8.  A file whose digest is that of any plan the generator did
        not draw for this seed and the header's config is rejected, even one
        that Python compares equal to it (0.0 for the onset 0): the digest is
        taken over the plan's JSON text.  With the probe switch on, seed 6
        draws another plan."""
        assert_not_replayed(edited_scene(tmp_path, lambda d: set_entry(d, keys, value)))

    def test_magic_header(self, tmp_path):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw[:8] == MAGIC == b"MSCOPE04"
        (tmp_path / "6.bin").write_bytes(b"BADMAGIC" + raw[8:])
        with pytest.raises(ValueError):
            load_scene(tmp_path, 6)

    def test_bin_layout_is_pinned(self, tmp_path):
        """The scene file: the magic; the seed as a little-endian uint64; the
        frames, height, width and probe switch as little-endian uint32s; the
        SHA-256 of the objects and words as `_describe` gives them, written
        as JSON text; then the features as little-endian float32, and nothing
        else.  The digest pins the bytes."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        plan = json.dumps(_describe(scene.objects, scene.expressions)).encode()
        assert raw == (b"MSCOPE04" + struct.pack("<Q4I", 6, 8, 10, 10, 0)
                       + hashlib.sha256(plan).digest() + scene.features.astype("<f4").tobytes())
        assert hashlib.sha256(raw).hexdigest() == (
            "d125c3516179e5cce693c8345af7d435ded897ac99484780798b0b948eb7b4dd")

    def test_float64_format_is_rejected_with_the_regenerate_hint(self, tmp_path):
        """An `MSCOPE01` file of earlier versions, float64 features and float64
        mask cells, is not read: a scene is rebuilt from its seed and config."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        path.write_bytes(b"MSCOPE01" + scene.features.astype("<f8").tobytes()
                         + np.where(scene.masks, 1.0, 0.0).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*MSCOPE01.*"
                           + re.escape("regenerate it with `motionscope gen`")):
            load_scene(tmp_path, 6)

    def test_mscope02_format_is_rejected_with_the_regenerate_hint(self, tmp_path):
        """An `MSCOPE02` file of earlier versions, float32 features and one
        mask byte a cell, is not read either."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        path.write_bytes(b"MSCOPE02" + scene.features.astype("<f4").tobytes()
                         + scene.masks.astype("u1").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*MSCOPE02.*"
                           + re.escape("regenerate it with `motionscope gen`")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["trailing", "truncated"])
    def test_bin_size_mismatch_names_file_and_byte_counts(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        raw = path.read_bytes()
        t, h, w, c = scene.features.shape
        assert len(raw) == HEADER.size + 4 * t * h * w * c
        bad = raw + b"\0" * 8 if edit == "trailing" else raw[:-10]
        path.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            load_scene(tmp_path, 6)
        message = str(exc.value)
        assert str(path) in message
        assert str(len(raw)) in message and str(len(bad)) in message

    def test_size_is_checked_before_arrays_are_allocated(self, tmp_path):
        """A header that claims 2**31 rows fails the size check, not an
        allocation of the features it implies."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.bin"
        rewrite_header(path, height=2 ** 31)
        cfg = small_config()
        needed = HEADER.size + 4 * cfg.frames * 2 ** 31 * cfg.width * FEATURE_CHANNELS
        with pytest.raises(ValueError, match=re.escape(f"{path} holds") + ".*"
                           + re.escape(f"needs {needed}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["nan_feature"])
    def test_bad_bin_values_name_file_and_field(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        features = scene.features.astype("<f4")
        features.reshape(-1)[3] = np.nan
        path.write_bytes(path.read_bytes()[:HEADER.size] + features.tobytes())
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: features"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("word", ["bogus", "Red", 11, None, ["red", "ADJ", 11]])
    def test_bad_expression_names_file_and_field(self, tmp_path, word):
        """A word that is not the replay's changes the digest, whether or not
        it is one of the vocabulary."""
        assert_not_replayed(edited_scene(
            tmp_path, lambda d: set_entry(d, ("expressions", 1, 0), word)))

    @pytest.mark.parametrize("text", [b'{"seed": 6,', b"\xff\xfe{}"], ids=["truncated", "not-utf8"])
    def test_unreadable_json_names_the_file(self, tmp_path, text):
        """Bytes that are not a scene file, here JSON text that is cut short
        or not UTF-8, fail on the magic, naming the file."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.bin"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} starts with "):
            load_scene(tmp_path, 6)

    def test_object_without_a_key_names_file_index_and_key(self, tmp_path):
        assert_not_replayed(edited_scene(tmp_path, lambda d: d["objects"][1].pop("onset")))

    @pytest.mark.parametrize("keys,value", [
        (("expressions", 1), []),
        (("expressions", 1, 0), ["red", "ADJ"]),
        (("expressions", 1), "the red dot"),
    ], ids=["no tokens", "short token entry", "string entry"])
    def test_malformed_expression_names_file_and_index(self, tmp_path, keys, value):
        assert_not_replayed(edited_scene(tmp_path, lambda d: set_entry(d, keys, value)))

    @pytest.mark.parametrize("field,value", [("category", 99), ("category", -1),
                                             ("category", True), ("color", 4), ("color", False)])
    def test_bad_object_names_file_index_and_field(self, tmp_path, field, value):
        """Object 1 of this scene has color 0, which Python compares equal to
        False, but JSON writes otherwise."""
        assert_not_replayed(edited_scene(
            tmp_path, lambda d: set_entry(d, ("objects", 1, field), value)))

    def test_scene_of_an_earlier_version_names_file_keys_and_regenerate_hint(self, tmp_path):
        """A directory of the two-file format of earlier versions, a
        `<seed>.bin` with the `MSCOPE03` magic beside a `<seed>.json` that
        holds the config, objects and words, is not read: the `.bin` is
        named, with the request to regenerate it."""
        scene = generate(6, small_config())
        (tmp_path / "6.json").write_text(json.dumps(
            {"config": dataclasses.asdict(scene.config),
             **_describe(scene.objects, scene.expressions)}))
        path = tmp_path / "6.bin"
        path.write_bytes(b"MSCOPE03" + scene.features.astype("<f4").tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*MSCOPE03.*"
                           + re.escape(REGENERATE)):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key", ["kind", "target_ids", "seed"])
    def test_derived_key_names_file_key_and_regenerate_hint(self, tmp_path, key):
        """A plan holding what earlier versions stored beside what it derives
        from (an object's kind, an expression's target ids, the scene's seed)
        is not the replay's plan."""
        def edit(described):
            if key == "kind":
                described["objects"][1]["kind"] = "static"
            elif key == "target_ids":
                described["expressions"][1] = {"tokens": described["expressions"][1],
                                               "target_ids": [1]}
            else:
                described["seed"] = 6

        assert_not_replayed(edited_scene(tmp_path, edit))

    def test_probe_flag_is_stored_once(self, tmp_path):
        """The header holds the probe switch, and the plan does not."""
        for seed, probe in ((6, False), (7, True)):
            scene = generate(seed, small_config(probe=probe))
            assert scene.probe is probe
            save_scene(scene, tmp_path)
            header = HEADER.unpack_from((tmp_path / f"{seed}.bin").read_bytes())
            assert header[5] == probe
            assert "probe" not in json.dumps(_describe(scene.objects, scene.expressions))
            assert load_scene(tmp_path, seed).probe is probe

    def test_probe_switch_other_than_0_or_1_names_file(self, tmp_path):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.bin"
        rewrite_header(path, probe=2)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: config: probe must be 0 or 1, got 2")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key", ["objects", "expressions"])
    def test_list_that_is_not_a_list_names_file_and_key(self, tmp_path, key):
        assert_not_replayed(edited_scene(tmp_path, lambda d: d.update({key: 5})))

    @pytest.mark.parametrize("duration", [1, 5, 8, 11])
    def test_duration_that_fits_no_kind_names_file_object_and_field(self, tmp_path, duration):
        """In a 16-frame scene a static program takes 0 moving frames, a short
        burst 2 to 4 and a long-horizon one 12 to 16; object 0 of this scene
        walks up from frame 0 for 14 frames."""
        def edit(described):
            assert (described["objects"][0]["onset"] == 0
                    and described["objects"][0]["duration"] == 14)
            described["objects"][0]["duration"] = duration

        assert_not_replayed(edited_scene(tmp_path, edit, config=BenchmarkConfig()))

    @pytest.mark.parametrize("index,field,value", [
        (0, "direction", [1, 0]),
        (0, "direction", [0, -1]),
        (1, "duration", 0),
        (1, "direction", [0, 0]),
    ], ids=["static-moves-down", "static-moves-left", "walker-stopped", "walker-without-step"])
    def test_direction_that_does_not_fit_the_duration_names_file_object_and_field(
            self, tmp_path, index, field, value):
        """Object 0 of this scene is static and object 1 walks down for 7
        frames."""
        def edit(described):
            assert (described["objects"][0]["duration"] == 0
                    and described["objects"][1]["duration"] == 7)
            described["objects"][index][field] = value

        assert_not_replayed(edited_scene(tmp_path, edit))

    @pytest.mark.parametrize("key,value,message", [
        ("frames", 3, "3 frames leave no room for short bursts"),
        ("frames", 16, "long-horizon motion needs 12 moving frames but only 8 fit the grid"),
        ("width", 8, "a 10x8 grid has 4 disjoint lanes"),
    ])
    def test_config_that_validate_rejects_names_file(self, tmp_path, key, value, message):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.bin"
        rewrite_header(path, **{key: value})
        with pytest.raises(ValueError, match=re.escape(f"{path}: config: {message}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("count", [MIN_OBJECTS - 1, MAX_OBJECTS + 1])
    def test_object_count_outside_the_recipe_names_file(self, tmp_path, count):
        """This scene holds 4 objects; the edit repeats them and cuts the list
        to `count`."""
        def edit(described):
            described["objects"] = (described["objects"] * 2)[:count]

        assert_not_replayed(edited_scene(tmp_path, edit))

    @pytest.mark.parametrize("key", ["objects", "expressions", "config"])
    def test_missing_top_level_key_names_file_and_key(self, tmp_path, key):
        """A plan without its objects or its expressions is not the replay's,
        and a file cut after the seed lacks the header's config."""
        if key == "config":
            save_scene(generate(6, small_config()), tmp_path)
            path = tmp_path / "6.bin"
            path.write_bytes(path.read_bytes()[:16])
            with pytest.raises(ValueError, match=re.escape(
                    f"{path} holds 16 bytes, fewer than its {HEADER.size}-byte header")):
                load_scene(tmp_path, 6)
        else:
            assert_not_replayed(edited_scene(tmp_path, lambda d: d.pop(key)))

    def test_seed_outside_the_header_is_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"scene seed {2 ** 64} does not fit")):
            save_scene(generate(2 ** 64, small_config()), tmp_path)
        assert not list(tmp_path.iterdir())

    def test_load_dataset_sorted(self, tmp_path):
        for seed in (11, 2, 7):
            save_scene(generate(seed, small_config()), tmp_path)
        scenes = load_dataset(tmp_path)
        assert [s.seed for s in scenes] == [2, 7, 11]

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "empty"])
    def test_load_dataset_rejects_directory_without_scenes(self, tmp_path, exists):
        directory = tmp_path / "scenes"
        if exists:
            directory.mkdir()
        with pytest.raises(ValueError, match=re.escape(str(directory))):
            load_dataset(directory)

    def test_load_dataset_names_a_bin_that_is_not_a_scene(self, tmp_path):
        save_scene(generate(2, small_config()), tmp_path)
        notes = tmp_path / "notes.bin"
        notes.write_bytes(b"")
        with pytest.raises(ValueError, match=re.escape(str(notes))):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stem", ["-3", "03", "+3", "1_0"])
    def test_load_dataset_names_a_scene_whose_stem_is_not_a_canonical_seed(self, tmp_path, stem):
        """`int` reads each of these stems, but none is how `save_scene`
        names a seed, and `load_scene` would open another file or none."""
        save_scene(generate(3, small_config()), tmp_path)
        path = tmp_path / f"{stem}.bin"
        (tmp_path / "3.bin").rename(path)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not a scene"):
            load_dataset(tmp_path)


class TestMetricJ:
    def test_perfect(self):
        m = np.zeros((2, 4, 4))
        m[:, 1:3, 1:3] = 1
        assert metric_j(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1
        b[3, 3] = 1
        assert metric_j(a, b) == 0.0

    def test_half_overlap_equal_area_is_one_third(self):
        a = np.zeros((4, 6))
        b = np.zeros((4, 6))
        a[1:3, 0:4] = 1
        b[1:3, 2:6] = 1
        assert abs(metric_j(a, b) - 1.0 / 3.0) < 1e-12

    def test_empty_vs_empty_counts_one(self):
        assert metric_j(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metric_j(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = rng.random((5, 5)) > 0.6
            b = rng.random((5, 5)) > 0.6
            assert metric_j(a, b) == metric_j(b, a)
            assert 0.0 <= metric_j(a, b) <= 1.0


def brute_force_f(pred, gt, tol=1):
    """Direct boundary matching: a boundary cell matches if some boundary cell
    of the other mask lies within Chebyshev distance tol."""
    pb = np.argwhere(boundary(pred))
    gb = np.argwhere(boundary(gt))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0

    def matched(points, others):
        hits = 0
        for p in points:
            if any(max(abs(p[0] - o[0]), abs(p[1] - o[1])) <= tol for o in others):
                hits += 1
        return hits / len(points)

    precision = matched(pb, gb)
    recall = matched(gb, pb)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestMetricF:
    def test_perfect(self):
        m = np.zeros((5, 5))
        m[1:4, 1:4] = 1
        assert metric_f(m, m) == 1.0

    def test_one_pixel_shift_within_tolerance(self):
        a = np.zeros((6, 6))
        b = np.zeros((6, 6))
        a[2:4, 1:3] = 1
        b[2:4, 2:4] = 1
        assert metric_f(a, b) == 1.0

    def test_three_pixel_shift_matches_brute_force(self):
        a = np.zeros((10, 10))
        b = np.zeros((10, 10))
        a[4, 0:5] = 1  # thin shape
        b[7, 0:5] = 1
        assert abs(metric_f(a, b) - brute_force_f(a, b)) < 1e-12

    def test_random_cases_match_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.random((7, 7)) > 0.6
            b = rng.random((7, 7)) > 0.6
            assert abs(metric_f(a, b) - brute_force_f(a, b)) < 1e-12

    def test_empty_rules(self):
        empty = np.zeros((4, 4))
        full = np.ones((4, 4))
        assert metric_f(empty, empty) == 1.0
        assert metric_f(empty, full) == 0.0
        assert metric_f(full, empty) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.random((6, 6)) > 0.55
            b = rng.random((6, 6)) > 0.55
            assert abs(metric_f(a, b) - metric_f(b, a)) < 1e-12


def np_pad_border(mask):
    return np.pad(mask, [(0, 0)] * (mask.ndim - 2) + [(1, 1), (1, 1)], constant_values=False)


def np_pad_boundary(mask):
    padded = np_pad_border(mask)
    interior = (padded[..., 1:-1, :-2] & padded[..., 1:-1, 2:]
                & padded[..., :-2, 1:-1] & padded[..., 2:, 1:-1])
    return mask & ~interior


def np_pad_dilate(mask):
    padded = np_pad_border(mask)
    h, w = mask.shape[-2:]
    out = np.zeros_like(mask)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= padded[..., 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    return out


@pytest.mark.parametrize("fill", ["random", "empty", "full"])
@pytest.mark.parametrize("shape", [(6, 7), (3, 4, 5, 6)], ids=["HW", "KTHW"])
def test_border_padding_equals_np_pad(shape, fill):
    """The padded stack, boundaries and dilations equal their `np.pad` forms."""
    rng = np.random.default_rng(3)
    mask = {"random": rng.random(shape) > 0.5, "empty": np.zeros(shape, dtype=bool),
            "full": np.ones(shape, dtype=bool)}[fill]
    padded = _pad_border(mask)
    assert padded.dtype == bool and np.array_equal(padded, np_pad_border(mask))
    assert np.array_equal(boundary(mask), np_pad_boundary(mask))
    assert np.array_equal(_dilate(mask), np_pad_dilate(mask))


def test_video_iou_aggregates_over_frames():
    a = np.zeros((2, 3, 3))
    b = np.zeros((2, 3, 3))
    a[0, 0, 0] = 1
    b[0, 0, 0] = 1
    a[1, 1, 1] = 1
    b[1, 2, 2] = 1
    assert abs(video_iou(a[None], b[None])[0, 0] - 1.0 / 3.0) < 1e-12


def test_video_iou_table_matches_each_pair():
    """Row n, column g is the IoU of prediction n and target g over all their
    frames, 1 for an empty pair, and an empty target set gives [N, 0]."""
    rng = np.random.default_rng(4)
    pred = rng.random((4, 3, 5, 5)) > 0.7
    pred[2] = False
    gt = rng.random((3, 3, 5, 5)) > 0.6
    gt[1] = False
    table = video_iou(pred, gt)
    assert table.shape == (4, 3) and table.dtype == np.float64
    for n in range(4):
        for g in range(3):
            union = np.logical_or(pred[n], gt[g]).sum()
            expected = np.logical_and(pred[n], gt[g]).sum() / union if union else 1.0
            assert table[n, g] == expected
    assert table[2, 1] == 1.0 and table[2, 0] == 0.0
    assert video_iou(pred, gt[:0]).shape == (4, 0)
    assert video_iou(pred[:0], gt).shape == (0, 3)
