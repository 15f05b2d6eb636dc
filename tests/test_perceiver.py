import numpy as np
import pytest

from motionscope.perceiver import (
    MaskFeatures,
    StaticPerceiver,
    frame_mask_logits,
    inject_cues,
    sinusoidal_grid,
)
from motionscope.tensor import Tensor

from gradcheck import grad_check, sigmoid


def dense(mask_features):
    """The [T, H, W, C] mask features a `MaskFeatures` value stands for."""
    return mask_features.pixels.data @ mask_features.w.data + mask_features.b.data


def identity_head(grid):
    """`MaskFeatures` whose mask features are exactly `grid` ([T, H, W, C] or
    one [H, W, C] frame): an identity `mask.w` and a zero `mask.b`."""
    grid = np.asarray(grid, dtype=float)
    c = grid.shape[-1]
    return MaskFeatures(Tensor(grid.reshape(-1, *grid.shape[-3:])), Tensor(np.eye(c)),
                        Tensor(np.zeros(c)))


def perceive_frame(perceiver, frame, q_hat):
    """One [H, W, C_img] frame through `perceive` as a video with T=1."""
    tokens, mask_features, logits = perceiver.perceive(frame[None], q_hat)
    return tokens.data[0], dense(mask_features)[0], logits.data[0]


def frame_masks(tokens, mask_features):
    """Per-token mask probabilities [N, H, W] of one frame."""
    h, w = mask_features.shape[1:3]
    return sigmoid(frame_mask_logits(tokens, mask_features)).reshape(tokens.shape[0], h, w)


def graph_injection(queries, cues):
    """Cue injection as a chain of graph ops, softmax built from `exp`, `sum`
    and `/`: the oracle of the injection's node."""
    scores = (queries @ cues.swapaxes(-1, -2)) * (1.0 / np.sqrt(queries.shape[-1]))
    e = (scores - Tensor(scores.data.max(axis=-1, keepdims=True))).exp()
    return queries + (e / e.sum(axis=-1, keepdims=True)) @ cues


def make_perceiver(grid=(4, 4)):
    return StaticPerceiver(channels=8, grid=grid, rng=np.random.default_rng(0))


@pytest.fixture
def perceiver():
    return make_perceiver()


class TestInjectCues:
    def test_single_cue_broadcast(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(5, 6)))
        cue = Tensor(rng.normal(size=(1, 6)))
        out = inject_cues(q, cue)
        assert np.allclose(out.data, q.data + cue.data, atol=1e-12)

    def test_zero_cues_leave_queries_unchanged(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(4, 6)))
        out = inject_cues(q, Tensor(np.zeros((3, 6))))
        assert np.array_equal(out.data, q.data)

    def test_matches_attention_composition(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(4, 6)))
        cues = Tensor(rng.normal(size=(3, 6)))
        expected = graph_injection(q, cues).data
        assert np.allclose(inject_cues(q, cues).data, expected, atol=1e-14)

    @pytest.mark.parametrize("n_queries,n_cues", [(4, 3), (8, 1), (2, 5)])
    def test_equals_graph_composition(self, n_queries, n_cues):
        """One attention node plus the residual add; the value equals the
        graph's bit for bit, and the query and cue gradients agree within
        1e-12 relative."""
        rng = np.random.default_rng(6)
        q0, cues0 = rng.normal(size=(n_queries, 6)), rng.normal(size=(n_cues, 6))
        g = rng.normal(size=(n_queries, 6))

        def run(inject):
            q, cues = Tensor(q0, requires_grad=True), Tensor(cues0, requires_grad=True)
            out = inject(q, cues)
            (out * Tensor(g)).sum().backward()
            return out, q, cues

        (got, q, cues), (want, *want_leaves) = run(inject_cues), run(graph_injection)
        assert np.array_equal(got.data, want.data)
        for leaf, want_leaf in zip((q, cues), want_leaves):
            assert np.abs(leaf.grad - want_leaf.grad).max() <= 1e-12 * np.abs(want_leaf.grad).max()
        residual, attended = got._parents
        assert residual is q and attended._parents == (q, cues, cues)

    def test_residual_in_cue_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = Tensor(rng.normal(size=(5, 6)))
            cues = rng.normal(size=(4, 6))
            delta = inject_cues(q, Tensor(cues)).data - q.data
            assert np.all(delta >= cues.min(axis=0) - 1e-9)
            assert np.all(delta <= cues.max(axis=0) + 1e-9)


class TestPerceiveFrame:
    def test_constant_grid_gives_identical_attention_contributions(self, perceiver):
        rng = np.random.default_rng(5)
        frame = np.broadcast_to(rng.normal(size=8), (4, 4, 8)).copy()
        q_hat = Tensor(rng.normal(size=(3, 8)))
        pix = Tensor(frame.reshape(1, 16, 8))
        keys = pix + perceiver.position_code
        contrib = perceiver.attend(q_hat, keys, pix).data[0]
        assert np.allclose(contrib, contrib[0], atol=1e-12)
        # with identical queries the tokens themselves coincide
        same_q = Tensor(np.broadcast_to(q_hat.data[0], (3, 8)).copy())
        tokens, _, _ = perceive_frame(perceiver, frame, same_q)
        assert np.allclose(tokens, tokens[0], atol=1e-12)

    def test_zero_grid_zero_biases_reduces_to_ffn_of_queries(self, perceiver):
        for param in perceiver.params:
            if ".b" in param.name:
                param.data[...] = 0.0
        rng = np.random.default_rng(6)
        q_hat = Tensor(rng.normal(size=(4, 8)))
        tokens, _, _ = perceive_frame(perceiver, np.zeros((4, 4, 8)), q_hat)
        ffn = perceiver.ffn
        expected = q_hat.data + np.maximum(q_hat.data @ ffn.w1.data, 0) @ ffn.w2.data
        assert np.allclose(tokens, expected, atol=1e-12)

    def test_query_permutation_equivariance(self, perceiver):
        rng = np.random.default_rng(7)
        frame = rng.normal(size=(4, 4, 8))
        q_hat = rng.normal(size=(5, 8))
        pi = rng.permutation(5)
        tokens, _, logits = perceive_frame(perceiver, frame, Tensor(q_hat))
        tokens_p, _, logits_p = perceive_frame(perceiver, frame, Tensor(q_hat[pi]))
        assert np.allclose(tokens[pi], tokens_p, atol=1e-12)
        assert np.allclose(logits[pi], logits_p, atol=1e-12)

    def test_batched_matches_per_frame(self, perceiver):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(3, 4, 4, 8))
        q_hat = Tensor(rng.normal(size=(2, 8)))
        tokens, mask_features, logits = perceiver.perceive(frames, q_hat)
        for t in range(3):
            tok_t, mf_t, lg_t = perceive_frame(perceiver, frames[t], q_hat)
            assert np.allclose(tokens.data[t], tok_t, atol=1e-12)
            assert np.allclose(dense(mask_features)[t], mf_t, atol=1e-12)
            assert np.allclose(logits.data[t], lg_t, atol=1e-12)

    def test_gradcheck_small_frame(self):
        perceiver = make_perceiver(grid=(3, 3))
        rng = np.random.default_rng(9)
        frame = rng.normal(size=(3, 3, 8))
        q_hat_base = rng.normal(size=(2, 8))
        target = rng.normal(size=(2, 8))

        def loss():
            tokens, mask_features, logits = perceiver.perceive(frame[None], Tensor(q_hat_base))
            masks = sigmoid(frame_mask_logits(tokens, mask_features))
            d = tokens - Tensor(target)
            return (d * d).sum() + masks.sum() * 0.1 + (logits * logits).sum()

        assert grad_check(perceiver.params, loss) < 1e-4

    # 2x8 and 8x2 hold the 4x4 grid's 16 pixels, so the position code would
    # broadcast over them without complaint; the last two have the 4x4 grid
    # but 16 channels, or no frame axis
    @pytest.mark.parametrize("shape", [(2, 2, 8, 8), (2, 8, 2, 8), (2, 3, 3, 8), (2, 8, 8, 8),
                                       (2, 4, 4, 16), (4, 4, 8)])
    def test_frames_of_another_grid_rejected(self, perceiver, shape):
        with pytest.raises(ValueError, match="grid") as exc:
            perceiver.perceive(np.zeros(shape), Tensor(np.zeros((3, 8))))
        assert str(shape) in str(exc.value) and "(4, 4, 8)" in str(exc.value)


class TestMaskPrediction:
    def test_zero_token_gives_half_everywhere(self):
        rng = np.random.default_rng(10)
        mf = identity_head(rng.normal(size=(3, 3, 4)))
        masks = frame_masks(Tensor(np.zeros((2, 4))), mf)
        assert np.array_equal(masks.data, np.full((2, 3, 3), 0.5))

    def test_aligned_token_peaks_at_matching_pixel(self):
        mf = np.zeros((2, 2, 4))
        mf[1, 0] = np.array([3.0, 0.0, 0.0, 0.0])
        token = np.array([[2.0, 0.0, 0.0, 0.0]])
        masks = frame_masks(Tensor(token), identity_head(mf)).data
        assert np.unravel_index(masks.argmax(), masks.shape) == (0, 1, 0)

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(11)
        tokens = rng.normal(size=(3, 5))
        mf = rng.normal(size=(4, 4, 5))
        masks = frame_masks(Tensor(tokens), identity_head(mf)).data
        for i in range(3):
            for y in range(4):
                for x in range(4):
                    expected = 1.0 / (1.0 + np.exp(-tokens[i] @ mf[y, x]))
                    assert abs(masks[i, y, x] - expected) < 1e-12

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        masks = frame_masks(Tensor(rng.normal(size=(2, 4))), identity_head(rng.normal(size=(3, 3, 4))))
        assert np.all(masks.data > 0.0) and np.all(masks.data < 1.0)

    def test_batched_logits_shape(self):
        rng = np.random.default_rng(13)
        tokens = Tensor(rng.normal(size=(2, 3, 4)))
        mf = identity_head(rng.normal(size=(2, 5, 5, 4)))
        assert frame_mask_logits(tokens, mf).shape == (2, 3, 25)


def test_sinusoidal_grid_is_deterministic_and_bounded():
    a = sinusoidal_grid(5, 7, 12)
    b = sinusoidal_grid(5, 7, 12)
    assert np.array_equal(a, b)
    assert a.shape == (35, 12)
    assert np.all(np.abs(a) <= 1.0)
