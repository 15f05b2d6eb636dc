import numpy as np
import pytest

from motionscope.decoder import MotionDecoder, VideoTokens, predict_video_masks, video_mask_logits
from motionscope.perceiver import MaskFeatures, inject_cues
from motionscope.tensor import Tensor, stable_sigmoid

from gradcheck import grad_check


def identity_head(grid):
    """`MaskFeatures` whose [T, H, W, C] mask features are exactly `grid`: an
    identity `mask.w` and a zero `mask.b`."""
    c = grid.shape[-1]
    return MaskFeatures(Tensor(grid), Tensor(np.eye(c)), Tensor(np.zeros(c)))


@pytest.fixture
def decoder():
    return MotionDecoder(channels=6, hidden=12, rng=np.random.default_rng(0))


class TestInjectMotion:
    def test_zero_cues_identity(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(3, 5)))
        assert np.array_equal(inject_cues(q, Tensor(np.zeros((2, 5)))).data, q.data)

    def test_single_cue_broadcast(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(3, 5)))
        cue = Tensor(rng.normal(size=(1, 5)))
        assert np.allclose(inject_cues(q, cue).data, q.data + cue.data, atol=1e-12)


class TestDecode:
    @staticmethod
    def _std(a):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return (a - mu) / np.sqrt(var + 1e-6)

    def test_single_token_attended_by_every_query(self, decoder):
        rng = np.random.default_rng(3)
        q_hat = Tensor(rng.normal(size=(4, 6)))
        tokens = Tensor(rng.normal(size=(1, 1, 6)))
        out = decoder.decode(q_hat, tokens)
        # every query receives the same attended value
        attn, mlp = decoder.attend, decoder.ffn
        v = self._std(tokens.data.reshape(1, 6)) @ attn.wv.data + attn.bv.data
        contribution = v @ attn.wo.data + attn.bo.data
        hidden = q_hat.data + contribution
        ffn = np.maximum(self._std(hidden) @ mlp.w1.data + mlp.b1.data, 0) \
            @ mlp.w2.data + mlp.b2.data
        assert np.allclose(out.tokens.data, hidden + ffn, atol=1e-12)

    def test_zero_output_projection_reduces_to_ffn_residual(self, decoder):
        decoder.attend.wo.data[...] = 0.0
        decoder.attend.bo.data[...] = 0.0
        rng = np.random.default_rng(4)
        q_hat = Tensor(rng.normal(size=(3, 6)))
        out = decoder.decode(q_hat, Tensor(rng.normal(size=(2, 4, 6))))
        mlp = decoder.ffn
        expected = q_hat.data + np.maximum(self._std(q_hat.data) @ mlp.w1.data + mlp.b1.data, 0) \
            @ mlp.w2.data + mlp.b2.data
        assert np.allclose(out.tokens.data, expected, atol=1e-12)

    def test_key_order_invariance(self, decoder):
        rng = np.random.default_rng(5)
        q_hat = Tensor(rng.normal(size=(3, 6)))
        flat = rng.normal(size=(8, 6))
        # [M, 1, C]: one trajectory frame per key, so permuting M permutes the keys
        out = decoder.decode(q_hat, Tensor(flat[:, None]))
        out_p = decoder.decode(q_hat, Tensor(flat[rng.permutation(8), None]))
        assert np.allclose(out.tokens.data, out_p.tokens.data, atol=1e-12)
        assert np.allclose(out.score_logits.data, out_p.score_logits.data, atol=1e-12)

    def test_gradcheck(self, decoder):
        rng = np.random.default_rng(7)
        q_base = rng.normal(size=(2, 6))
        tokens = rng.normal(size=(2, 4, 6))
        target = rng.normal(size=(2, 6))

        def loss():
            out = decoder.decode(Tensor(q_base), Tensor(tokens))
            d = out.tokens - Tensor(target)
            return (d * d).sum() + out.score_logits.sum()

        assert grad_check(decoder.params, loss) < 1e-4


class TestVideoMasks:
    def test_all_scores_below_threshold_selects_nothing(self, decoder):
        rng = np.random.default_rng(8)
        out = decoder.decode(Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(2, 2, 6))))
        out.score_logits.data[...] = np.log(0.25)  # every score 0.2
        _, selected = predict_video_masks(out, identity_head(rng.normal(size=(2, 3, 3, 6))))
        assert selected.size == 0

    def test_zero_token_gives_empty_masks(self, decoder):
        """A zero token's probability is 0.5 at every pixel, which is not above 0.5."""
        rng = np.random.default_rng(9)
        out = decoder.decode(Tensor(rng.normal(size=(2, 6))), Tensor(rng.normal(size=(1, 2, 6))))
        out.tokens.data[0, :] = 0.0
        mf = identity_head(rng.normal(size=(2, 3, 3, 6)))
        masks, _ = predict_video_masks(out, mf)
        assert np.array_equal(masks[0], np.zeros((2, 3, 3), dtype=bool))

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(10)
        tokens = rng.normal(size=(2, 4))
        mf = rng.normal(size=(3, 2, 2, 4))
        logits = video_mask_logits(Tensor(tokens), identity_head(mf)).data.reshape(2, 3, 2, 2)
        masks, _ = predict_video_masks(VideoTokens(Tensor(tokens), Tensor(np.zeros(2))),
                                       identity_head(mf))
        assert masks.dtype == bool and masks.shape == (2, 3, 2, 2)
        for j in range(2):
            for t in range(3):
                for y in range(2):
                    for x in range(2):
                        assert abs(logits[j, t, y, x] - tokens[j] @ mf[t, y, x]) < 1e-12
                        assert masks[j, t, y, x] == (stable_sigmoid(logits[j, t, y, x]) > 0.5)
