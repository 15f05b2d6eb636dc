import dataclasses
import hashlib
import json
import re

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
    MAGIC,
    REGENERATE,
    BenchmarkConfig,
    GenerationError,
    Scene,
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
    base = dict(frames=8, height=10, width=10, channels=16)
    base.update(overrides)
    return BenchmarkConfig(**base)


def edited_scene(tmp_path, edit, seed=6, config=None):
    """Save scene `seed` of `config` (the small one unless given), let `edit`
    change its parsed `.json` in place and write it back; returns its path."""
    save_scene(generate(seed, config or small_config()), tmp_path)
    path = tmp_path / f"{seed}.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    return path


def assert_not_replayed(path, where, seed=6):
    """Loading the scene at `path` fails naming the file, `where` (the first
    entry that differs from what `seed` generates) and the regenerate hint."""
    with pytest.raises(ValueError, match=re.escape(f"{path}: {where}") + ".*"
                       + re.escape(f"but seed {seed} gives") + ".*" + re.escape(REGENERATE)):
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


def set_entry(meta, keys, value):
    """Set the entry that the path `keys` names in the parsed JSON `meta`."""
    *parents, last = keys
    for key in parents:
        meta = meta[key]
    meta[last] = value


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

    @pytest.mark.parametrize("seed,overrides,bin_digest,json_digest", [
        (0, {}, "84153a73d9dd8d2bc4e2c6a75e671fdd969055adbdff0025644d2756d329dc88",
         "f80a7b9c1abe9337af7248f4156b8c05aa9f74d231c96c4ce4745b81808a05fa"),
        (1000, {}, "c9c3a5cde26bc5c40f16593eb6a52c01d6b39458884048990b1fafc3d54f5cd6",
         "a90265712b1400164ccf6434cca660644d129a79b02b94a77756d3f6916f541e"),
        (2000, {"probe": True}, "caa16563e1634bdaf61b0e8fa708d4ec9d57ccf12c9f4a0d10de44af9b8b212b",
         "679a4a524eb93a18d2de3e1b8c9fd560f52fe6041c0e5f330faa02146a88cbcc"),
        (0, {"height": 32, "width": 32},
         "11e6c873510b21e15dfae417ce1b07f034d9fffb2a7c397a0d49cb5dd04bd867",
         "2e5b9a0d63bf7e12c5bad9744080aa21b7855ae458bef57b868004c09a5f1d64"),
    ], ids=["default", "val-seed", "probe", "hires"])
    def test_default_recipe_is_pinned(self, tmp_path, seed, overrides, bin_digest, json_digest):
        """The bytes of full-size scene files pin the recipe constants: the
        `.bin` the features, the `.json` the objects and the words."""
        save_scene(generate(seed, BenchmarkConfig(**overrides)), tmp_path)
        assert hashlib.sha256((tmp_path / f"{seed}.bin").read_bytes()).hexdigest() == bin_digest
        assert hashlib.sha256((tmp_path / f"{seed}.json").read_bytes()).hexdigest() == json_digest


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
        (dict(frames=8, height=10, width=10, channels=16), range(0, 40), {0, 1, 2, 3}),
    ], ids=["default", "probe", "hires", "10x10x16"])
    def test_derived_kinds_targets_and_masks_equal_the_generated_ones(self, tmp_path, overrides,
                                                                      seeds, target_counts):
        """A file stores no kind, tag, vocab id, target id or mask, yet loads
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
        Shortened to 2 moving frames, its masks would leave the path that its
        features show; loading names it, the first of the two edits."""
        def edit(meta):
            assert meta["objects"][1]["duration"] == 7
            assert meta["expressions"][0] == ["the", "dot", "resting"]
            meta["objects"][1]["duration"] = 2
            meta["expressions"][0][2] = "darting"

        assert_not_replayed(edited_scene(tmp_path, edit), "object 1")

    def test_scene_files_renamed_to_another_seed_are_rejected(self, tmp_path):
        save_scene(generate(5, small_config()), tmp_path)
        for suffix in (".json", ".bin"):
            (tmp_path / f"5{suffix}").rename(tmp_path / f"6{suffix}")
        assert_not_replayed(tmp_path / "6.json", "object 0")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / "6.json"))):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("keys,value,where", [
        pytest.param(("expressions", 0, 2), "darting", "expression 0", id="verb"),
        pytest.param(("objects", 1), 5, "object 1", id="object-entry"),
        pytest.param(("config", "probe"), True, "object 0", id="other-config"),
        pytest.param(("objects", 1, "start"), "ab", "object 1", id="start-not-a-pair"),
        pytest.param(("objects", 1, "start"), [1.0, 2], "object 1", id="start-float"),
        pytest.param(("objects", 1, "start"), [2, 2], "object 1", id="start-off-grid"),
        pytest.param(("objects", 1, "start"), [1, 9], "object 1", id="start-past-edge"),
        pytest.param(("objects", 1, "start"), [-1, 2], "object 1", id="start-negative"),
        pytest.param(("objects", 1, "onset"), 0.0, "object 1", id="onset-float"),
        pytest.param(("objects", 1, "onset"), 1.5, "object 1", id="onset-fraction"),
        pytest.param(("objects", 1, "onset"), -1, "object 1", id="onset-negative"),
        pytest.param(("objects", 1, "onset"), 1000000, "object 1", id="onset-past-end"),
        pytest.param(("objects", 1, "duration"), True, "object 1", id="duration-bool"),
        pytest.param(("objects", 1, "duration"), -2, "object 1", id="duration-negative"),
        pytest.param(("objects", 1, "duration"), 9, "object 1", id="duration-past-end"),
        pytest.param(("objects", 1, "direction"), [1], "object 1", id="direction-short"),
        pytest.param(("objects", 1, "direction"), [5, 5], "object 1", id="direction-long-step"),
        pytest.param(("objects", 1, "direction"), [1, 1], "object 1", id="direction-diagonal"),
    ])
    def test_scene_its_seed_does_not_replay_is_rejected(self, tmp_path, keys, value, where):
        """Object 1 of this scene starts at (1, 2) and walks down on frames
        0..6 of 8.  Any entry the generator did not draw for this seed and
        config is rejected, even one that Python compares equal to it (0.0
        for the onset 0)."""
        assert_not_replayed(edited_scene(tmp_path, lambda meta: set_entry(meta, keys, value)),
                            where)

    def test_magic_header(self, tmp_path):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw[:8] == MAGIC == b"MSCOPE03"
        (tmp_path / "6.bin").write_bytes(b"BADMAGIC" + raw[8:])
        with pytest.raises(ValueError):
            load_scene(tmp_path, 6)

    def test_bin_layout_is_pinned(self, tmp_path):
        """The `.bin` format: the header, then the features as little-endian
        float32, and nothing else.  The digest pins the bytes."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw == MAGIC + scene.features.astype("<f4").tobytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "3d182831f38ecfd11606b28f2380cd3b8b51c7699184c6fb99c8bb544459eca4")

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
        assert len(raw) == 8 + 4 * t * h * w * c
        bad = raw + b"\0" * 8 if edit == "trailing" else raw[:-10]
        path.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            load_scene(tmp_path, 6)
        message = str(exc.value)
        assert str(path) in message
        assert str(len(raw)) in message and str(len(bad)) in message

    def test_size_is_checked_before_arrays_are_allocated(self, tmp_path):
        """A config that claims 2**40 channels fails the size check, not an
        allocation of the arrays it implies."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"]["channels"] = 2 ** 40
        path.write_text(json.dumps(meta))
        cfg = small_config()
        needed = 8 + 4 * cfg.frames * cfg.height * cfg.width * 2 ** 40
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / '6.bin'} holds") + ".*"
                           + re.escape(f"needs {needed}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["nan_feature"])
    def test_bad_bin_values_name_file_and_field(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        features = scene.features.astype("<f4")
        features.reshape(-1)[3] = np.nan
        path.write_bytes(MAGIC + features.tobytes())
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: features"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("word", ["bogus", "Red", 11, None, ["red", "ADJ", 11]])
    def test_bad_expression_names_file_and_field(self, tmp_path, word):
        """A word that is not the replay's is rejected, whether or not it is
        one of the vocabulary."""
        path = edited_scene(tmp_path, lambda meta: set_entry(meta, ("expressions", 1, 0), word))
        assert_not_replayed(path, "expression 1")

    @pytest.mark.parametrize("text", [b'{"seed": 6,', b"\xff\xfe{}"], ids=["truncated", "not-utf8"])
    def test_unreadable_json_names_the_file(self, tmp_path, text):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not readable JSON"):
            load_scene(tmp_path, 6)

    def test_object_without_a_key_names_file_index_and_key(self, tmp_path):
        assert_not_replayed(edited_scene(tmp_path, lambda meta: meta["objects"][1].pop("onset")),
                            "object 1")

    @pytest.mark.parametrize("keys,value", [
        (("expressions", 1), []),
        (("expressions", 1, 0), ["red", "ADJ"]),
        (("expressions", 1), "the red dot"),
    ], ids=["no tokens", "short token entry", "string entry"])
    def test_malformed_expression_names_file_and_index(self, tmp_path, keys, value):
        path = edited_scene(tmp_path, lambda meta: set_entry(meta, keys, value))
        assert_not_replayed(path, "expression 1")

    @pytest.mark.parametrize("field,value", [("category", 99), ("category", -1),
                                             ("category", True), ("color", 4), ("color", False)])
    def test_bad_object_names_file_index_and_field(self, tmp_path, field, value):
        """Object 1 of this scene has color 0, which Python compares equal to
        False."""
        path = edited_scene(tmp_path, lambda meta: set_entry(meta, ("objects", 1, field), value))
        assert_not_replayed(path, "object 1")

    def test_scene_of_an_earlier_version_names_file_keys_and_regenerate_hint(self, tmp_path):
        """Earlier versions stored the recipe in the config and the probe flag
        a second time at the top level."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"].update(object_size=2, min_objects=3, max_objects=5, ensure_contrast=True)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: config holds unknown keys "
                f"['ensure_contrast', 'max_objects', 'min_objects', 'object_size']") + ".*"
                + re.escape("`motionscope gen`")):
            load_scene(tmp_path, 6)
        meta["probe"] = False
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: scene holds unknown keys ['probe']") + ".*"
                + re.escape("`motionscope gen`")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key", ["kind", "target_ids", "seed"])
    def test_derived_key_names_file_key_and_regenerate_hint(self, tmp_path, key):
        """The keys that earlier versions stored beside what they derive from
        are rejected, not read or ignored: an object's kind, an expression's
        tokens and target ids, and the scene's seed."""
        def edit(meta):
            if key == "kind":
                meta["objects"][1]["kind"] = "static"
            elif key == "target_ids":
                meta["expressions"][1] = {"tokens": meta["expressions"][1], "target_ids": [1]}
            else:
                meta["seed"] = 6

        path = edited_scene(tmp_path, edit)
        where = {"kind": "object 1 is", "target_ids": "expression 1 is",
                 "seed": "scene holds unknown keys ['seed']"}[key]
        with pytest.raises(ValueError, match=re.escape(f"{path}: {where}") + ".*"
                           + re.escape(REGENERATE)):
            load_scene(tmp_path, 6)

    def test_probe_flag_is_stored_once(self, tmp_path):
        for seed, probe in ((6, False), (7, True)):
            scene = generate(seed, small_config(probe=probe))
            assert scene.probe is probe
            save_scene(scene, tmp_path)
            meta = json.loads((tmp_path / f"{seed}.json").read_text())
            assert "probe" not in meta and meta["config"]["probe"] is probe
            assert load_scene(tmp_path, seed).probe is probe

    @pytest.mark.parametrize("edit,where,got", [
        ("top level 5", "", "int"),
        ("top level null", "", "NoneType"),
        ("config", ": config", "list"),
    ])
    def test_json_of_the_wrong_shape_names_file_and_entry(self, tmp_path, edit, where, got):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        if edit == "top level 5":
            meta = 5
        elif edit == "top level null":
            meta = None
        else:
            meta["config"] = [8, 10, 10, 8]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}{where} must be a JSON object, got {got}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key", ["objects", "expressions"])
    def test_list_that_is_not_a_list_names_file_and_key(self, tmp_path, key):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta[key] = 5
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {key} must be a JSON list, "
                                                       f"got int")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("duration", [1, 5, 8, 11])
    def test_duration_that_fits_no_kind_names_file_object_and_field(self, tmp_path, duration):
        """In a 16-frame scene a static program takes 0 moving frames, a short
        burst 2 to 4 and a long-horizon one 12 to 16; object 0 of this scene
        walks up from frame 0 for 14 frames."""
        def edit(meta):
            assert meta["objects"][0]["onset"] == 0 and meta["objects"][0]["duration"] == 14
            meta["objects"][0]["duration"] = duration

        assert_not_replayed(edited_scene(tmp_path, edit, config=BenchmarkConfig()), "object 0")

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
        def edit(meta):
            assert meta["objects"][0]["duration"] == 0 and meta["objects"][1]["duration"] == 7
            meta["objects"][index][field] = value

        assert_not_replayed(edited_scene(tmp_path, edit), f"object {index}")

    @pytest.mark.parametrize("key,value,message", [
        ("frames", 3, "3 frames leave no room for short bursts"),
        ("frames", 16, "long-horizon motion needs 12 moving frames but only 8 fit the grid"),
        ("width", 8, "a 10x8 grid has 4 disjoint lanes"),
        ("channels", 15, "channels must be at least 16, the width of the appearance layout, "
                         "got 15"),
    ])
    def test_config_that_validate_rejects_names_file(self, tmp_path, key, value, message):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"][key] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(f"{path}: config: {message}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("count", [MIN_OBJECTS - 1, MAX_OBJECTS + 1])
    def test_object_count_outside_the_recipe_names_file(self, tmp_path, count):
        """This scene holds 4 objects; the edit repeats them and cuts the list
        to `count`."""
        def edit(meta):
            meta["objects"] = (meta["objects"] * 2)[:count]

        assert_not_replayed(edited_scene(tmp_path, edit), f"{count} objects")

    @pytest.mark.parametrize("key,value,expected", [("probe", "yes", "bool"), ("probe", 1, "bool"),
                                                    ("frames", "8", "int"), ("height", True, "int")])
    def test_config_value_of_wrong_type_names_file_and_key(self, tmp_path, key, value, expected):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"][key] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: config: {key} must be of type {expected}, got {value!r}")):
            load_scene(tmp_path, 6)

    def test_unknown_config_key_names_file_and_key(self, tmp_path):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"]["frame"] = meta["config"].pop("frames")
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*'frame'"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key", ["objects", "expressions", "config"])
    def test_missing_top_level_key_names_file_and_key(self, tmp_path, key):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*\\['{key}'\\]"):
            load_scene(tmp_path, 6)

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

    def test_load_dataset_names_a_json_that_is_not_a_scene(self, tmp_path):
        save_scene(generate(2, small_config()), tmp_path)
        notes = tmp_path / "notes.json"
        notes.write_text("{}")
        with pytest.raises(ValueError, match=re.escape(str(notes))):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stem", ["-3", "03", "+3", "1_0"])
    def test_load_dataset_names_a_scene_whose_stem_is_not_a_canonical_seed(self, tmp_path, stem):
        """`int` reads each of these stems, but none is how `save_scene`
        names a seed, and `load_scene` would open another file or none."""
        save_scene(generate(3, small_config()), tmp_path)
        for suffix in (".json", ".bin"):
            (tmp_path / f"3{suffix}").rename(tmp_path / f"{stem}{suffix}")
        path = tmp_path / f"{stem}.json"
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
