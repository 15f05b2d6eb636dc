import numpy as np
import pytest

from motionscope.benchmark import BenchmarkConfig, generate
from motionscope.config import TrainConfig
from motionscope.model import N_MOTION_QUERIES, MotionSegModel, load_model_weights, save_model


def make(seed=0, **overrides):
    base = dict(channels=16, grid_height=10, grid_width=10, hmp_stages=1)
    base.update(overrides)
    cfg = TrainConfig(**base)
    return cfg, MotionSegModel(cfg, np.random.default_rng(seed))


def scene_for(cfg, seed=0):
    return generate(seed, BenchmarkConfig(frames=8, height=cfg.grid_height,
                                          width=cfg.grid_width, channels=cfg.channels))


class TestForward:
    def test_output_shapes(self):
        cfg, model = make()
        scene = scene_for(cfg)
        out = model.forward(scene.features, scene.expressions[0])
        t, h, w, _ = scene.features.shape
        assert out.object_tokens.shape == (t, 8, 16)
        assert out.mask_features.shape == (t, h, w, 16)
        assert out.class_logits.shape == (t, 8)
        assert out.frame_logits.shape == (t, 8, h * w)
        assert out.video.tokens.shape == (4, 16)
        assert out.video_logits.shape == (4, t, h * w)

    def test_deterministic_given_seed(self):
        cfg, model_a = make(seed=3)
        _, model_b = make(seed=3)
        scene = scene_for(cfg)
        out_a = model_a.forward(scene.features, scene.expressions[0])
        out_b = model_b.forward(scene.features, scene.expressions[0])
        assert np.array_equal(out_a.video.score_logits.data, out_b.video.score_logits.data)
        assert np.array_equal(out_a.frame_logits.data, out_b.frame_logits.data)

    def test_generate_returns_float32_features(self):
        scene = generate(0)
        assert scene.features.dtype == np.float32

    def test_float32_features_give_the_float64_upcast_forward_bit_for_bit(self):
        """The perceiver converts float32 frames to float64 exactly, so the
        model computes the same bits as on frames already upcast."""
        model = MotionSegModel(TrainConfig(), np.random.default_rng(0))
        scene = generate(3)
        expr = scene.expressions[0]
        out32 = model.forward(scene.features, expr)
        out64 = model.forward(scene.features.astype(np.float64), expr)
        assert np.array_equal(out32.frame_logits.data, out64.frame_logits.data)
        assert np.array_equal(out32.video.tokens.data, out64.video.tokens.data)

    def test_scene_of_another_grid_rejected(self):
        cfg, model = make(grid_height=16, grid_width=16)
        scene = generate(0, BenchmarkConfig(height=32, width=32, channels=cfg.channels))
        with pytest.raises(ValueError, match="grid") as exc:
            model.forward(scene.features, scene.expressions[0])
        assert str(scene.features.shape) in str(exc.value) and "(16, 16, 16)" in str(exc.value)

    def test_width_below_the_appearance_layout_rejected(self):
        """The model reads scene features at its own width, and the grounding
        init puts 10 categories, 4 colours and 2 jitter axes on them."""
        make(channels=16)
        with pytest.raises(ValueError, match="channels must be at least 16.*got 15"):
            make(channels=15)

    def test_unique_parameter_names(self):
        _, model = make()
        names = [p.name for p in model.params]
        assert len(names) == len(set(names))

    def test_default_forward_builds_at_most_90_graph_nodes(self):
        """Each attention block, each cue injection's attention and each
        hierarchical branch (padding and expansion included) is one node: a
        default-config forward builds 84 nodes, where a graph of elementary ops
        built 287.  The bound leaves room for small changes, not for splitting
        a block into elementary ops."""
        model = MotionSegModel(TrainConfig(), np.random.default_rng(0))
        scene = generate(3)
        out = model.forward(scene.features, scene.expressions[0])
        seen, stack = set(), [out.class_logits, out.video.score_logits]
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) <= 90


def routed_queries(model, expr, features, monkeypatch):
    """The cues that `forward` builds for `expr` and the (static queries,
    motion queries, motion cues) that it builds from them, read by a spy on
    the model's `build_queries`."""
    seen = []
    build = model.build_queries

    def spy(cues):
        seen.append((cues, build(cues)))
        return seen[-1][1]

    monkeypatch.setattr(model, "build_queries", spy)
    model.forward(features, expr)
    (routed,) = seen
    return routed


class TestQueryVariants:
    def test_sentence_only_uses_one_cue_row(self, monkeypatch):
        cfg, model = make(query_variant="sentence_only")
        scene = scene_for(cfg)
        cues, (_, _, motion_cues) = routed_queries(model, scene.expressions[0], scene.features,
                                                   monkeypatch)
        assert motion_cues.shape == (1, cfg.channels)
        assert np.array_equal(motion_cues.data[0], cues.sentence.data)

    def test_no_sentence_variant_drops_sentence_add(self, monkeypatch):
        cfg, model = make(query_variant="ds_no_sentence")
        scene = scene_for(cfg)
        expr = scene.expressions[0]
        _, (_, _, motion_cues) = routed_queries(model, expr, scene.features, monkeypatch)
        motion_ids = [t.vocab_id for t in expr.tokens if t.tag in ("VERB", "ADV")]
        if motion_ids:
            expected = model.embedding.data[motion_ids]
            assert np.allclose(motion_cues.data, expected, atol=1e-12)

    def test_no_query_variant_tiles_cues(self, monkeypatch):
        cfg, model = make(query_variant="ds_no_query")
        scene = scene_for(cfg)
        cues, (_, q_motion, _) = routed_queries(model, scene.expressions[0], scene.features,
                                                monkeypatch)
        k = cues.motion.shape[0]
        # motion queries are exactly the tiled cue rows
        assert np.array_equal(q_motion.data, cues.motion.data[np.arange(N_MOTION_QUERIES) % k])


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
        cfg, model = make(channels=24)
        path = tmp_path / "model.bin"
        save_model(model, path)
        _, fresh = make()
        with pytest.raises(ValueError, match="shape mismatch for 'embed.table'") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        cfg, model = make()
        path = tmp_path / "model.bin"
        model.perceiver.attend.wk.data[0, 0] = value
        save_model(model, path)
        _, fresh = make()
        before = fresh.perceiver.attend.wk.data.copy()
        with pytest.raises(ValueError, match="'perceiver.attn.wk'") as exc:
            load_model_weights(fresh, path)
        assert str(path) in str(exc.value)
        # rejected before its values are written
        assert np.array_equal(fresh.perceiver.attend.wk.data, before)

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

    @pytest.mark.parametrize("field,values,where", [
        ("name length", [2**40], "the name of parameter #0"),
        ("rank", [2**40], "the shape of parameter 'embed.table' (rank 1099511627776)"),
        ("rank", [2**61], "the shape of parameter 'embed.table' (rank 2305843009213693952)"),
        ("extents", [2**40], "the values of parameter 'embed.table' (1099511627776, 16)"),
        ("extents", [2**40, 2**40],
         "the values of parameter 'embed.table' (1099511627776, 1099511627776)"),
    ], ids=["name-length", "rank", "rank-past-8-bytes", "extent", "extents-product"])
    def test_corrupt_length_field_names_path_and_field(self, tmp_path, field, values, where):
        """A length field of the first parameter set far past the file's size
        fails on the bytes left, before anything of that size is allocated,
        and extents whose product passes 2**64 do not wrap around."""
        import struct

        cfg, model = make()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = path.read_bytes()
        name_len = len(model.params[0].name)
        offset = {"name length": 8, "rank": 16 + name_len, "extents": 24 + name_len}[field]
        patch = struct.pack(f"<{len(values)}Q", *values)
        path.write_bytes(raw[:offset] + patch + raw[offset + len(patch):])
        _, fresh = make()
        with pytest.raises(ValueError) as exc:
            load_model_weights(fresh, path)
        message = str(exc.value)
        assert str(path) in message and where in message and "are left" in message

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
