import numpy as np
import pytest

from motionscope.hmp import (
    HmpBlock,
    HmpStack,
    enrich,
    hierarchical_branch,
    hierarchical_stages,
    highlight,
    merge,
    pad_to_multiple,
)
from motionscope.tensor import Tensor, grad_check, softmax, standardize, take


def make_stack(n_blocks=2, n_stages=2, channels=6, seed=0):
    return HmpStack(channels, 2 * channels, n_blocks, n_stages, np.random.default_rng(seed))


class TestHighlight:
    def test_single_cue_column_sums_to_one(self):
        rng = np.random.default_rng(0)
        traj, cue = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(1, 4)))
        attn, fw = highlight(traj, cue)
        assert attn.shape == (5, 1)
        assert abs(attn.data.sum() - 1.0) < 1e-12
        assert np.allclose(fw.data, attn.data[:, 0])

    def test_identical_frames_give_uniform_weights(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=4)
        traj = Tensor(np.broadcast_to(row, (6, 4)).copy())
        cues = Tensor(rng.normal(size=(3, 4)))
        attn, fw = highlight(traj, cues)
        assert np.allclose(attn.data, 1.0 / 6.0, atol=1e-12)
        assert np.allclose(fw.data, 3.0 / 6.0, atol=1e-12)

    def test_matches_direct_composition(self):
        rng = np.random.default_rng(2)
        traj, cues = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        attn, fw = highlight(Tensor(traj), Tensor(cues))
        expected = softmax(Tensor(traj @ cues.T / np.sqrt(4)), axis=0).data
        assert np.allclose(attn.data, expected, atol=1e-12)
        assert np.allclose(fw.data, expected.sum(axis=1), atol=1e-12)

    def test_frame_weights_sum_to_cue_count(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            _, fw = highlight(Tensor(rng.normal(size=(t, 6))), Tensor(rng.normal(size=(k, 6))))
            assert abs(fw.data.sum() - k) < 1e-9


class TestEnrich:
    def test_single_cue_adds_exactly_that_row(self):
        rng = np.random.default_rng(4)
        traj = Tensor(rng.normal(size=(5, 4)))
        cue = Tensor(rng.normal(size=(1, 4)))
        attn, fw = highlight(traj, cue)
        out = enrich(traj, attn, fw, cue)
        assert np.allclose(out.data, traj.data + cue.data[0], atol=1e-12)

    def test_equal_cue_rows_add_that_point(self):
        rng = np.random.default_rng(5)
        traj = Tensor(rng.normal(size=(4, 3)))
        v = rng.normal(size=3)
        cues = Tensor(np.broadcast_to(v, (3, 3)).copy())
        attn, fw = highlight(traj, cues)
        out = enrich(traj, attn, fw, cues)
        assert np.allclose(out.data, traj.data + v, atol=1e-12)

    def test_delta_within_cue_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            traj = Tensor(rng.normal(size=(6, 5)))
            cues = rng.normal(size=(3, 5))
            attn, fw = highlight(traj, Tensor(cues))
            delta = enrich(traj, attn, fw, Tensor(cues)).data - traj.data
            assert np.all(delta >= cues.min(axis=0) - 1e-9)
            assert np.all(delta <= cues.max(axis=0) + 1e-9)


class TestMerge:
    def test_equal_weights_give_pairwise_means(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        merged = merge(Tensor(x), Tensor(np.ones(6)))
        expected = (x[0::2] + x[1::2]) / 2.0
        assert np.array_equal(merged.data, expected)

    def test_degenerate_weight_keeps_first_token(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        merged = merge(Tensor(x), Tensor([1.0, 0.0, 1.0, 0.0]))
        assert np.array_equal(merged.data, x[[0, 2]])

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 5))
        w = rng.uniform(0.1, 2.0, size=8)
        merged = merge(Tensor(x), Tensor(w)).data
        for j in range(4):
            expected = (w[2 * j] * x[2 * j] + w[2 * j + 1] * x[2 * j + 1]) / (w[2 * j] + w[2 * j + 1])
            assert np.allclose(merged[j], expected, atol=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            merge(Tensor(np.zeros((5, 2))), Tensor(np.ones(5)))

    def test_equals_gathered_pairs_bit_for_bit(self):
        """Values and gradients equal the graph that gathers even and odd
        frames and forms (x0*w0 + x1*w1) / (w0 + w1)."""
        rng = np.random.default_rng(10)
        x0, w0 = rng.normal(size=(3, 8, 5)), rng.uniform(0.1, 2.0, size=(3, 8))
        g = rng.normal(size=(3, 4, 5))

        def run(merge_fn):
            x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
            out = merge_fn(x, w)
            (out * Tensor(g)).sum().backward()
            return out.data, x.grad, w.grad

        def gathered(x, w):
            even, odd = np.arange(0, 8, 2), np.arange(1, 8, 2)
            xa, xb = take(x, even, axis=-2), take(x, odd, axis=-2)
            wa = take(w, even, axis=-1).reshape(3, 4, 1)
            wb = take(w, odd, axis=-1).reshape(3, 4, 1)
            return (xa * wa + xb * wb) / (wa + wb)

        for got, want in zip(run(merge), run(gathered)):
            assert np.array_equal(got, want)


class TestHierarchicalCrossAttention:
    def test_zero_stages_is_identity(self):
        rng = np.random.default_rng(10)
        traj = Tensor(rng.normal(size=(4, 3)))
        out = hierarchical_branch(traj, Tensor(rng.normal(size=(2, 3))), 0)
        assert np.array_equal(out.data, traj.data)

    def test_full_collapse_and_expansion(self):
        rng = np.random.default_rng(11)
        traj = Tensor(rng.normal(size=(8, 4)))
        cues = Tensor(rng.normal(size=(2, 4)))
        coarse = hierarchical_stages(traj, cues, 3)
        assert coarse.shape == (1, 4)
        out = hierarchical_branch(traj, cues, 3)
        assert out.shape == (8, 4)
        assert np.array_equal(out.data, np.broadcast_to(coarse.data[0], (8, 4)))

    def test_matches_hand_rolled_composition(self):
        rng = np.random.default_rng(12)
        traj = rng.normal(size=(4, 5))
        cues = rng.normal(size=(2, 5))
        out = hierarchical_branch(Tensor(traj), Tensor(cues), 1).data

        attn = np.exp(traj @ cues.T / np.sqrt(5) - (traj @ cues.T / np.sqrt(5)).max(axis=0))
        attn = attn / attn.sum(axis=0)
        fw = attn.sum(axis=1)
        enriched = traj + (attn / fw[:, None]) @ cues
        coarse = np.stack([
            (fw[0] * enriched[0] + fw[1] * enriched[1]) / (fw[0] + fw[1]),
            (fw[2] * enriched[2] + fw[3] * enriched[3]) / (fw[2] + fw[3]),
        ])
        expected = np.repeat(coarse, 2, axis=0)
        assert np.allclose(out, expected, atol=1e-12)

    def test_padding_is_dropped_losslessly(self):
        rng = np.random.default_rng(13)
        traj = Tensor(rng.normal(size=(5, 4)))
        cues = Tensor(rng.normal(size=(2, 4)))
        out = hierarchical_branch(traj, cues, 2)
        assert out.shape == (5, 4)
        padded = pad_to_multiple(traj, 4)
        assert padded.shape == (8, 4)
        full = pad_to_multiple(traj, 4).data
        assert np.array_equal(full[5:], np.broadcast_to(traj.data[4], (3, 4)))

    def test_batched_matches_per_trajectory(self):
        rng = np.random.default_rng(14)
        trajs = rng.normal(size=(3, 8, 4))
        cues = Tensor(rng.normal(size=(2, 4)))
        batched = hierarchical_branch(Tensor(trajs), cues, 2).data
        for i in range(3):
            single = hierarchical_branch(Tensor(trajs[i]), cues, 2).data
            assert np.allclose(batched[i], single, atol=1e-12)


class TestHmpBlock:
    def test_zeroed_projections_make_identity(self):
        stack = make_stack(n_blocks=3, n_stages=2)
        for p in stack.params:
            if p.name.endswith(("attn.wo", "attn.bo", "hier.wo", "hier.bo", "ffn.w2", "ffn.b2")):
                p.tensor.data[...] = 0.0
        rng = np.random.default_rng(15)
        trajs = rng.normal(size=(4, 8, 6))
        cues = Tensor(rng.normal(size=(2, 6)))
        out = stack.forward(Tensor(trajs), cues)
        assert np.allclose(out.data, trajs, atol=1e-12)

    def test_single_frame_no_hierarchy_is_ffn_plus_selfattention_residual(self):
        def std(a):
            mu = a.mean(axis=-1, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
            return (a - mu) / np.sqrt(var + 1e-6)

        block = HmpBlock(4, 8, 0, np.random.default_rng(16), prefix="b")
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 4))
        out = block.forward(Tensor(x), Tensor(rng.normal(size=(2, 4))))
        # with one frame the attention mixes nothing: attended value is the token's own value path
        attn, ffn = block.attend, block.ffn
        v = std(x) @ attn.wv.data + attn.bv.data
        y = x + (v @ attn.wo.data + attn.bo.data)
        expected = y + np.maximum(std(y) @ ffn.w1.data + ffn.b1.data, 0) @ ffn.w2.data + ffn.b2.data
        assert np.allclose(out.data, expected, atol=1e-12)
        # and with a zeroed attention output projection only the FFN residual remains
        attn.wo.tensor.data[...] = 0.0
        attn.bo.tensor.data[...] = 0.0
        out2 = block.forward(Tensor(x), Tensor(rng.normal(size=(2, 4))))
        expected2 = x + np.maximum(std(x) @ ffn.w1.data + ffn.b1.data, 0) @ ffn.w2.data + ffn.b2.data
        assert np.allclose(out2.data, expected2, atol=1e-12)

    def test_hierarchical_branch_is_projected_and_added(self):
        block = HmpBlock(4, 8, 2, np.random.default_rng(23), prefix="b")
        for param in (block.attend.wo, block.attend.bo, block.ffn.w2, block.ffn.b2):
            param.tensor.data[...] = 0.0
        rng = np.random.default_rng(24)
        traj = Tensor(rng.normal(size=(3, 6, 4)))
        cues = Tensor(rng.normal(size=(2, 4)))
        branch = hierarchical_branch(standardize(traj), cues, 2).data
        expected = traj.data + branch @ block.wh.data + block.bh.data
        assert np.allclose(block.forward(traj, cues).data, expected, atol=1e-12)

    def test_gradcheck_full_block(self):
        stack = HmpStack(6, 12, 1, 2, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        trajs = rng.normal(size=(2, 8, 6))
        cues_base = rng.normal(size=(2, 6))
        target = rng.normal(size=(2, 8, 6))

        def loss():
            out = stack.forward(Tensor(trajs), Tensor(cues_base))
            d = out - Tensor(target)
            return (d * d).sum()

        assert grad_check(stack.params, loss) < 1e-4


class TestHmpStack:
    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            HmpStack(4, 8, 0, 2, np.random.default_rng(0))

    def test_identical_trajectories_stay_identical(self):
        stack = make_stack()
        rng = np.random.default_rng(20)
        one = rng.normal(size=(8, 6))
        trajs = np.stack([one, one, one])
        out = stack.forward(Tensor(trajs), Tensor(rng.normal(size=(2, 6)))).data
        assert np.allclose(out[0], out[1], atol=1e-12)
        assert np.allclose(out[0], out[2], atol=1e-12)

    def test_permutation_equivariance(self):
        stack = make_stack()
        rng = np.random.default_rng(21)
        trajs = rng.normal(size=(5, 8, 6))
        cues = Tensor(rng.normal(size=(3, 6)))
        pi = rng.permutation(5)
        out = stack.forward(Tensor(trajs), cues).data
        out_p = stack.forward(Tensor(trajs[pi]), cues).data
        assert np.allclose(out[pi], out_p, atol=1e-12)

    def test_stagewise_lengths_halve(self):
        rng = np.random.default_rng(22)
        traj = Tensor(rng.normal(size=(16, 4)))
        cues = Tensor(rng.normal(size=(2, 4)))
        for n in range(4):
            assert hierarchical_stages(traj, cues, n).shape == (16 // 2 ** n, 4)
