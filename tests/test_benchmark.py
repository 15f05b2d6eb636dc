import hashlib
import json
import re

import numpy as np
import pytest

from motionscope.benchmark import (
    LONG_HORIZON,
    MAX_OBJECTS,
    OBJECT_SIZE,
    SHORT_BURST,
    STATIC,
    VOCAB,
    BenchmarkConfig,
    GenerationError,
    _dilate,
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
from motionscope.language import MOTION_TAGS, STATIC_TAGS, VERB


def small_config(**overrides):
    # the narrowest square grid that holds MAX_OBJECTS lanes
    base = dict(frames=8, height=10, width=10, channels=8)
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestGenerator:
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

    def test_masks_stay_on_grid_and_disjoint(self):
        cfg = small_config()
        for seed in range(10):
            scene = generate(seed, cfg)
            assert scene.masks.max() <= 1.0
            # lane placement keeps objects disjoint in every frame
            assert np.all(scene.masks.sum(axis=0) <= 1.0)

    def test_masks_equal_a_per_frame_loop_over_the_motion_programs(self):
        """The squares that `generate` draws and `load_scene` checks equal one
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

    @pytest.mark.parametrize("seed,overrides,digest", [
        (0, {}, "b9e258d5540f0657ab469449947a4743202822b6d254473325bb9d41824a4451"),
        (1000, {}, "06a28b880591bd653ddebb3bffd28f75ce9e125b8d26e06f615f08b919b1e1fa"),
        (2000, {"probe": True}, "7777e4267c17c34ac081772ce5f45005067b9825205e1a9f260e888a086d77d7"),
        (0, {"height": 32, "width": 32},
         "200c827429330447966828bd828b26a2b40855d80c12d0d22e918e93d471d652"),
    ], ids=["default", "val-seed", "probe", "hires"])
    def test_default_recipe_is_pinned(self, tmp_path, seed, overrides, digest):
        """The `.bin` bytes of full-size scenes pin the recipe constants."""
        save_scene(generate(seed, BenchmarkConfig(**overrides)), tmp_path)
        assert hashlib.sha256((tmp_path / f"{seed}.bin").read_bytes()).hexdigest() == digest


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
        assert [o.start for o in loaded.objects] == [o.start for o in scene.objects]

    def test_magic_header(self, tmp_path):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw[:8] == b"MSCOPE02"
        (tmp_path / "6.bin").write_bytes(b"BADMAGIC" + raw[8:])
        with pytest.raises(ValueError):
            load_scene(tmp_path, 6)

    def test_bin_layout_is_pinned(self, tmp_path):
        """The `.bin` format: header, features as little-endian float32 and
        masks as one byte a cell, 0 or 1.  The digest pins the bytes."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw == (b"MSCOPE02" + scene.features.astype("<f4").tobytes()
                       + np.where(scene.masks, 1, 0).astype("u1").tobytes())
        assert hashlib.sha256(raw).hexdigest() == (
            "daf2cef477f1cfe6afb765ba659f7d1b8ad798577061975c4b0f6b57cf5c89f8")

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

    @pytest.mark.parametrize("edit", ["trailing", "truncated"])
    def test_bin_size_mismatch_names_file_and_byte_counts(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        raw = path.read_bytes()
        t, h, w, c = scene.features.shape
        assert len(raw) == 8 + t * h * w * (4 * c + len(scene.objects))
        bad = raw + b"\0" * 8 if edit == "trailing" else raw[:-10]
        path.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            load_scene(tmp_path, 6)
        message = str(exc.value)
        assert str(path) in message
        assert str(len(raw)) in message and str(len(bad)) in message

    def test_size_is_checked_before_arrays_are_allocated(self, tmp_path):
        """A config that claims 2**40 frames fails the size check, not an
        allocation of the arrays it implies."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"]["frames"] = 2 ** 40
        path.write_text(json.dumps(meta))
        cfg = small_config()
        needed = 8 + 2 ** 40 * cfg.height * cfg.width * (4 * cfg.channels + len(meta["objects"]))
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / '6.bin'} holds") + ".*"
                           + re.escape(f"needs {needed}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["nan_feature", "mask_byte_2"])
    def test_bad_bin_values_name_file_and_field(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        raw = path.read_bytes()
        features = np.frombuffer(raw, dtype="<f4", count=scene.features.size, offset=8).copy()
        masks = np.frombuffer(raw, dtype="u1", offset=8 + features.nbytes).copy()
        if edit == "nan_feature":
            features[3], field = np.nan, "features"
        else:
            masks[5], field = 2, "masks"
        path.write_bytes(b"MSCOPE02" + features.tobytes() + masks.tobytes())
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {field}"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("field,value", [("tag", "NUON"), ("vocab id", 999),
                                             ("target id", 42)])
    def test_bad_expression_names_file_and_field(self, tmp_path, field, value):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        expr = meta["expressions"][1]
        if field == "target id":
            expr["target_ids"] = [value]
        else:
            expr["tokens"][0][1 if field == "tag" else 2] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: expression 1: .*{field}"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("token", [["square", "VERB", 1], ["bogus", "OTHER", 19]],
                             ids=["noun-as-verb", "unknown-surface"])
    def test_token_contradicting_the_vocabulary_names_file_token_and_entry(self, tmp_path, token):
        """A token is its vocab entry: a noun's id tagged VERB would route the
        noun's embedding into the motion cues."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["expressions"][1]["tokens"][0] = token
        path.write_text(json.dumps(meta))
        surface, tag, vocab_id = token
        entry = VOCAB[vocab_id]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expression 1: token {surface!r} has (surface, tag) {(surface, tag)}, "
                f"but vocab entry {vocab_id} is {entry}")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("text", [b'{"seed": 6,', b"\xff\xfe{}"], ids=["truncated", "not-utf8"])
    def test_unreadable_json_names_the_file(self, tmp_path, text):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not readable JSON"):
            load_scene(tmp_path, 6)

    def test_object_without_a_key_names_file_index_and_key(self, tmp_path):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        del meta["objects"][1]["onset"]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: object 1 lacks the keys \\['onset'\\]"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit,message", [
        ("tokens", "has no tokens"),
        ("token entry", "malformed entry .*not enough values to unpack"),
        ("target twice", "target ids \\[0, 0\\] name an object twice"),
    ], ids=["no tokens", "short token entry", "repeated target"])
    def test_malformed_expression_names_file_and_index(self, tmp_path, edit, message):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        expr = meta["expressions"][1]
        if edit == "tokens":
            expr["tokens"] = []
        elif edit == "token entry":
            expr["tokens"][0] = ["red", "ADJ"]
        else:
            expr["target_ids"] = [0, 0]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: expression 1:? {message}"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("field,value", [("category", 99), ("category", -1),
                                             ("color", 4), ("kind", "flying")])
    def test_bad_object_names_file_index_and_field(self, tmp_path, field, value):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["objects"][1][field] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: object 1: {field} {value!r}"):
            load_scene(tmp_path, 6)

    def test_scene_of_an_earlier_version_names_file_keys_and_regenerate_hint(self, tmp_path):
        """Earlier versions stored the recipe in the config and the probe flag
        a second time at the top level."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["probe"] = False
        meta["config"].update(object_size=2, min_objects=3, max_objects=5, ensure_contrast=True)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: config holds unknown keys "
                f"['ensure_contrast', 'max_objects', 'min_objects', 'object_size']") + ".*"
                + re.escape("`motionscope gen`")):
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
        ("object entry", ": object 1", "int"),
    ])
    def test_json_of_the_wrong_shape_names_file_and_entry(self, tmp_path, edit, where, got):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        if edit == "top level 5":
            meta = 5
        elif edit == "top level null":
            meta = None
        elif edit == "config":
            meta["config"] = [8, 10, 10, 8]
        else:
            meta["objects"][1] = 5
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

    @pytest.mark.parametrize("field,value,message", [
        ("start", "ab", "is not a pair of ints"),
        ("start", [1.0, 2], "is not a pair of ints"),
        ("direction", [1], "is not a pair of ints"),
        ("onset", 1.5, "is not an int"),
        ("duration", True, "is not an int"),
        ("direction", [5, 5], "is neither a unit step nor \\[0, 0\\]"),
        ("direction", [1, 1], "is neither a unit step nor \\[0, 0\\]"),
        ("onset", 1000000, "is outside \\[0, 8\\]"),
        ("onset", -1, "is outside \\[0, 8\\]"),
        ("duration", -2, "is outside \\[0, 8\\]"),
        ("duration", 9, "is outside \\[0, 8\\]"),
        ("start", [2, 2], "moves its square off the 10x10 grid"),
        ("start", [1, 9], "moves its square off the 10x10 grid"),
        ("start", [-1, 2], "moves its square off the 10x10 grid"),
    ])
    def test_bad_motion_program_names_file_object_and_field(self, tmp_path, field, value,
                                                            message):
        """Object 1 of this scene starts at (1, 2) and moves down on frames
        0..6 of 8, so its square reaches row 8 of the 10x10 grid."""
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        assert meta["objects"][1]["start"] == [1, 2] and meta["objects"][1]["duration"] == 7
        meta["objects"][1][field] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: object 1: {field} .*{message}"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["start", "onset", "mask cell"])
    def test_masks_that_contradict_the_motion_program_name_file_and_object(self, tmp_path,
                                                                           edit):
        """A program that fits the grid but not the stored masks, or one mask
        cell set outside the stamped squares, is rejected."""
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        json_path, bin_path = tmp_path / "6.json", tmp_path / "6.bin"
        meta = json.loads(json_path.read_text())
        if edit == "start":
            meta["objects"][1]["start"] = [0, 2]
        elif edit == "onset":
            meta["objects"][1]["onset"] = 1
        else:
            masks = scene.masks.copy()
            assert not masks[1, 0, 9, 9]
            masks[1, 0, 9, 9] = True
            bin_path.write_bytes(b"MSCOPE02" + scene.features.astype("<f4").tobytes()
                                 + masks.astype("u1").tobytes())
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{bin_path}: the masks of object 1 differ from the squares its motion "
                f"program in 6.json stamps")):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key,value,expected", [("probe", "yes", "bool"), ("probe", 1, "bool"),
                                                    ("frames", "8", "int"), ("height", True, "int")])
    def test_config_value_of_wrong_type_names_file_and_key(self, tmp_path, key, value, expected):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"][key] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: config {key} is {value!r}, not {expected}")):
            load_scene(tmp_path, 6)

    def test_unknown_config_key_names_file_and_key(self, tmp_path):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["config"]["frame"] = meta["config"].pop("frames")
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*'frame'"):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("key", ["objects", "expressions", "config", "seed"])
    def test_missing_top_level_key_names_file_and_key(self, tmp_path, key):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*\\['{key}'\\]"):
            load_scene(tmp_path, 6)

    def test_seed_field_must_match_file_name(self, tmp_path):
        """A `4.json` whose seed field says 3 would load as a second scene 3."""
        save_scene(generate(3, small_config()), tmp_path)
        save_scene(generate(4, small_config()), tmp_path)
        path = tmp_path / "4.json"
        meta = json.loads(path.read_text())
        meta["seed"] = 3
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: seed field says 3, .* 4"):
            load_dataset(tmp_path)

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
