import numpy as np
import pytest

from motionscope.benchmark import BenchmarkConfig, generate
from motionscope.config import TrainConfig
from motionscope.model import MotionSegModel, load_model_weights, save_model


def make(seed=0, **overrides):
    base = dict(channels=8, img_channels=8, grid_height=8, grid_width=8,
                n_static_queries=4, n_motion_queries=2, hmp_blocks=2, hmp_stages=1)
    base.update(overrides)
    cfg = TrainConfig(**base)
    return cfg, MotionSegModel(cfg, np.random.default_rng(seed))


def scene_for(cfg, seed=0):
    return generate(seed, BenchmarkConfig(frames=8, height=cfg.grid_height,
                                          width=cfg.grid_width, channels=cfg.img_channels,
                                          min_objects=2, max_objects=3))


class TestForward:
    def test_output_shapes(self):
        cfg, model = make()
        scene = scene_for(cfg)
        out = model.forward(scene.features, scene.expressions[0])
        t, h, w, _ = scene.features.shape
        assert out.object_tokens.shape == (t, 4, 8)
        assert out.mask_features.shape == (t, h, w, 8)
        assert out.class_logits.shape == (t, 4)
        assert out.frame_logits.shape == (t, 4, h * w)
        assert out.trajectories.trajectories.shape == (4, t, 8)
        assert out.motion_tokens.shape == (4, t, 8)
        assert out.video.tokens.shape == (2, 8)
        assert out.video_logits.shape == (2, t, h * w)

    def test_deterministic_given_seed(self):
        cfg, model_a = make(seed=3)
        _, model_b = make(seed=3)
        scene = scene_for(cfg)
        out_a = model_a.forward(scene.features, scene.expressions[0])
        out_b = model_b.forward(scene.features, scene.expressions[0])
        assert np.array_equal(out_a.video.score_logits.data, out_b.video.score_logits.data)
        assert np.array_equal(out_a.frame_logits.data, out_b.frame_logits.data)

    def test_unique_parameter_names(self):
        _, model = make()
        names = [p.name for p in model.params]
        assert len(names) == len(set(names))

    def test_hungarian_toggle_changes_trajectories_only_by_permutation(self):
        cfg, model = make(hungarian_enabled=False)
        scene = scene_for(cfg)
        out = model.forward(scene.features, scene.expressions[0])
        assert np.array_equal(out.trajectories.assignments,
                              np.tile(np.arange(4), (scene.features.shape[0], 1)))

    def test_default_forward_builds_at_most_90_graph_nodes(self):
        """Each attention block, each cue injection's attention and each
        hierarchical branch (padding and expansion included) is one node: a
        default-config forward builds 84 nodes, where a graph of elementary ops
        built 287.  The bound leaves room for small changes, not for splitting
        a block into elementary ops."""
        model = MotionSegModel(TrainConfig(), np.random.default_rng(0))
        scene = generate(3)
        out = model.forward(scene.features, scene.expressions[0])
        seen, stack = set(), [out.class_logits, out.motion_tokens, out.video.score_logits]
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) <= 90


class TestQueryVariants:
    def test_sentence_only_uses_one_cue_row(self):
        cfg, model = make(query_variant="sentence_only")
        scene = scene_for(cfg)
        out = model.forward(scene.features, scene.expressions[0])
        assert out.motion_cues.shape == (1, 8)
        assert np.array_equal(out.motion_cues.data[0], out.cues.sentence.data)

    def test_no_sentence_variant_drops_sentence_add(self):
        cfg, model = make(query_variant="ds_no_sentence")
        scene = scene_for(cfg)
        expr = scene.expressions[0]
        out = model.forward(scene.features, expr)
        motion_ids = [t.vocab_id for t in expr.tokens if t.tag in ("VERB", "ADV")]
        if motion_ids:
            expected = model.embedding.data[motion_ids]
            assert np.allclose(out.motion_cues.data, expected, atol=1e-12)

    def test_no_query_variant_tiles_cues(self):
        cfg, model = make(query_variant="ds_no_query")
        scene = scene_for(cfg)
        out = model.forward(scene.features, scene.expressions[0])
        k = out.cues.motion.shape[0]
        tiled = out.cues.motion.data[np.arange(2) % k]
        # motion queries are exactly the tiled cue rows
        q_static, q_motion, _ = model.build_queries(out.cues)
        assert np.array_equal(q_motion.data, tiled)


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg, model = make(seed=7)
        path = tmp_path / "model.bin"
        save_model(model, path)
        _, fresh = make(seed=8)
        assert not np.array_equal(fresh.embedding.data, model.embedding.data)
        load_model_weights(fresh, path)
        for a, b in zip(model.params, fresh.params):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)

    def test_missing_parameter_rejected(self, tmp_path):
        cfg, model = make()
        path = tmp_path / "model.bin"
        dropped = model.params.pop()
        save_model(model, path)
        _, fresh = make()
        with pytest.raises(ValueError, match="missing") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value) and dropped.name in str(exc.value)

    def test_unknown_parameter_names_path(self, tmp_path):
        cfg, model = make()
        path = tmp_path / "model.bin"
        model.params[0].name = "embed.tabl"
        save_model(model, path)
        _, fresh = make()
        with pytest.raises(ValueError, match="unknown parameter 'embed.tabl'") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value)

    def test_shape_mismatch_names_path(self, tmp_path):
        cfg, model = make(channels=16)
        path = tmp_path / "model.bin"
        save_model(model, path)
        _, fresh = make()
        with pytest.raises(ValueError, match="shape mismatch for 'embed.table'") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("cut", [4, 8, 100, 10_000])
    def test_truncated_checkpoint_names_path_and_parameter(self, tmp_path, cut):
        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-cut])
        _, fresh = make()
        with pytest.raises(ValueError, match="truncated") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value) and "parameter" in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        _, fresh = make()
        with pytest.raises(ValueError, match="trailing") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value)

    @staticmethod
    def append_entry(path, name: bytes, values: np.ndarray):
        """Add one parameter entry to a checkpoint and bump its count."""
        import struct

        raw = bytearray(path.read_bytes())
        (count,) = struct.unpack("<Q", raw[:8])
        raw[:8] = struct.pack("<Q", count + 1)
        raw += struct.pack("<Q", len(name)) + name
        raw += struct.pack("<Q", values.ndim) + struct.pack(f"<{values.ndim}Q", *values.shape)
        raw += values.astype("<f8").tobytes()
        path.write_bytes(bytes(raw))
        return count

    def test_repeated_name_rejected(self, tmp_path):
        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        index = self.append_entry(path, b"embed.table", np.full(model.embedding.shape, 7.0))
        _, fresh = make()
        with pytest.raises(ValueError, match="repeats") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value) and f"#{index}" in str(exc.value)

    def test_non_utf8_name_rejected(self, tmp_path):
        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        index = self.append_entry(path, b"\xff\xfe", np.zeros(1))
        _, fresh = make()
        with pytest.raises(ValueError, match="UTF-8") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value) and f"#{index}" in str(exc.value)

    def test_format_layout(self, tmp_path):
        import struct

        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        with open(path, "rb") as fh:
            (count,) = struct.unpack("<Q", fh.read(8))
            assert count == len(model.params)
            (name_len,) = struct.unpack("<Q", fh.read(8))
            name = fh.read(name_len).decode()
            assert name == model.params[0].name
            (ndim,) = struct.unpack("<Q", fh.read(8))
            shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
            assert shape == model.params[0].data.shape
