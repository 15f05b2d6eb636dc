import json
import re

import numpy as np
import pytest

from motionscope.benchmark import (
    LONG_HORIZON,
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
    base = dict(frames=8, height=8, width=8, channels=8, min_objects=3, max_objects=3,
                expressions_per_scene=2)
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
        cfg = small_config(min_objects=1, max_objects=1, ensure_contrast=False,
                           no_target_prob=0.0, multi_target_prob=0.0, expressions_per_scene=1)
        for seed in range(10):
            scene = generate(seed, cfg)
            obj = scene.objects[0]
            if obj.motion.kind != STATIC:
                continue
            for t in range(cfg.frames):
                assert np.array_equal(scene.masks[0, t], scene.masks[0, 0])
            assert scene.masks[0, 0].sum() == cfg.object_size ** 2

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
            generate(0, small_config(width=4, height=4, frames=16, max_objects=2, min_objects=2))


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        scene = generate(5, small_config())
        save_scene(scene, tmp_path)
        loaded = load_scene(tmp_path, 5)
        assert np.array_equal(loaded.features, scene.features)
        assert np.array_equal(loaded.masks, scene.masks)
        assert loaded.expressions == scene.expressions
        assert loaded.probe == scene.probe
        assert [o.start for o in loaded.objects] == [o.start for o in scene.objects]

    def test_magic_header(self, tmp_path):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        raw = (tmp_path / "6.bin").read_bytes()
        assert raw[:8] == b"MSCOPE01"
        (tmp_path / "6.bin").write_bytes(b"BADMAGIC" + raw[8:])
        with pytest.raises(ValueError):
            load_scene(tmp_path, 6)

    @pytest.mark.parametrize("edit", ["trailing", "truncated"])
    def test_bin_size_mismatch_names_file_and_byte_counts(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        raw = path.read_bytes()
        bad = raw + b"\0" * 8 if edit == "trailing" else raw[:-10]
        path.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            load_scene(tmp_path, 6)
        message = str(exc.value)
        assert str(path) in message
        assert str(len(raw)) in message and str(len(bad)) in message

    @pytest.mark.parametrize("edit", ["nan_feature", "half_mask"])
    def test_bad_bin_values_name_file_and_field(self, tmp_path, edit):
        scene = generate(6, small_config())
        save_scene(scene, tmp_path)
        path = tmp_path / "6.bin"
        body = np.frombuffer(path.read_bytes(), dtype="<f8", offset=8).copy()
        if edit == "nan_feature":
            body[3], field = np.nan, "features"
        else:
            body[scene.features.size + 5], field = 0.5, "masks"
        path.write_bytes(b"MSCOPE01" + body.tobytes())
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

    def test_probe_flag_must_be_a_bool(self, tmp_path):
        save_scene(generate(6, small_config()), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["probe"] = "yes"
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: probe is 'yes'"):
            load_scene(tmp_path, 6)
        del meta["probe"]
        path.write_text(json.dumps(meta))
        assert load_scene(tmp_path, 6).probe is False

    @pytest.mark.parametrize("probe", [False, True])
    def test_probe_flag_must_match_the_config(self, tmp_path, probe):
        """A scene whose top-level `probe` and `config.probe` disagree would be
        scored as a probe scene, or not, by whichever one a reader picks."""
        save_scene(generate(6, small_config(probe=probe)), tmp_path)
        path = tmp_path / "6.json"
        meta = json.loads(path.read_text())
        meta["probe"] = not probe
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: probe is {not probe}, "
                                             f"but config.probe is {probe}"):
            load_scene(tmp_path, 6)
        if probe:  # an absent flag means False, which a probe config contradicts
            del meta["probe"]
            path.write_text(json.dumps(meta))
            with pytest.raises(ValueError, match="probe is False, but config.probe is True"):
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
    assert abs(video_iou(a, b) - 1.0 / 3.0) < 1e-12
