import numpy as np
import pytest

from motionscope.bank import ContrastiveProjector, MemoryBank, contrastive_loss
from motionscope.tensor import Parameter, Tensor

from gradcheck import grad_check


def unit(v):
    return v / np.linalg.norm(v)


class TestProjector:
    def test_output_is_unit_norm(self):
        proj = ContrastiveProjector(6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = proj.project(Tensor(rng.normal(size=6)))
            assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9

    def test_positive_scale_invariance_with_zero_biases(self):
        # relu with zero biases is positively homogeneous, so the normalized
        # output ignores positive input scale
        proj = ContrastiveProjector(5, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        a = proj.project(Tensor(x)).data
        b = proj.project(Tensor(4.2 * x)).data
        assert np.allclose(a, b, atol=1e-9)

    def test_matches_explicit_mlp_normalize_oracle(self):
        proj = ContrastiveProjector(4, rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        h = np.maximum(x @ proj.w1.data + proj.b1.data, 0.0)
        p = h @ proj.w2.data + proj.b2.data
        expected = p / (np.linalg.norm(p) + 1e-12)
        assert np.allclose(proj.project(Tensor(x)).data, expected, atol=1e-12)

    def test_zero_projection_stays_finite(self):
        proj = ContrastiveProjector(4, rng=np.random.default_rng(6))
        out = proj.project(Tensor(np.zeros(4)))
        assert np.all(np.isfinite(out.data))
        assert np.array_equal(out.data, np.zeros(4))


class TestMemoryBankUpdate:
    def test_beta_one_keeps_slot_after_init(self):
        bank = MemoryBank([0], [0], 3)
        first = unit(np.array([1.0, 2.0, 3.0]))
        bank.update(0, first, beta=1.0)
        bank.update(0, unit(np.array([-1.0, 0.5, 0.0])), beta=1.0)
        assert np.array_equal(bank.vectors[0], first)

    def test_beta_zero_copies_anchor(self):
        bank = MemoryBank([0], [0], 3)
        bank.update(0, unit(np.array([1.0, 0.0, 0.0])), beta=0.0)
        v = unit(np.array([0.0, 1.0, 0.0]))
        bank.update(0, v, beta=0.0)
        assert np.array_equal(bank.vectors[0], v)

    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.9, 1.0])
    def test_normalized_ema_closed_form(self, beta):
        rng = np.random.default_rng(7)
        bank = MemoryBank([0], [0], 8)
        m0 = unit(rng.normal(size=8))
        v = unit(rng.normal(size=8))
        bank.update(0, m0, beta=beta)
        gap = np.linalg.norm(bank.vectors[0] - v)
        for _ in range(100):
            expected = unit(beta * bank.vectors[0] + (1.0 - beta) * v)
            bank.update(0, v, beta=beta)
            assert np.allclose(bank.vectors[0], expected, atol=1e-12)
            new_gap = np.linalg.norm(bank.vectors[0] - v)
            assert new_gap <= gap + 1e-12
            gap = new_gap
        if beta < 1.0:
            assert gap < 1e-3

    def test_other_slots_untouched(self):
        rng = np.random.default_rng(8)
        bank = MemoryBank([0, 1, 0], [0, 0, 1], 4)
        for slot in range(3):
            bank.update(slot, unit(rng.normal(size=4)), beta=0.2)
        before = bank.vectors.copy()
        bank.update(1, unit(rng.normal(size=4)), beta=0.2)
        assert np.array_equal(bank.vectors[0], before[0])
        assert np.array_equal(bank.vectors[2], before[2])

    def test_renormalized_by_default(self):
        rng = np.random.default_rng(9)
        bank = MemoryBank([0], [0], 5)
        bank.update(0, unit(rng.normal(size=5)), beta=0.2)
        bank.update(0, unit(rng.normal(size=5)), beta=0.2)
        assert abs(np.linalg.norm(bank.vectors[0]) - 1.0) < 1e-12

    def test_bad_slot_rejected(self):
        bank = MemoryBank([0], [0], 2)
        with pytest.raises(IndexError):
            bank.update(3, np.zeros(2), beta=0.5)

    def test_bad_beta_rejected(self):
        bank = MemoryBank([0], [0], 2)
        with pytest.raises(ValueError):
            bank.update(0, np.zeros(2), beta=1.5)


class TestNegativeSampling:
    def setup_bank(self, categories, videos, channels=4):
        bank = MemoryBank(categories, videos, channels)
        rng = np.random.default_rng(10)
        for slot in range(bank.size):
            bank.update(slot, unit(rng.normal(size=channels)), beta=0.2)
        return bank

    def test_two_object_bank_returns_the_other(self):
        bank = self.setup_bank([0, 1], [0, 1])
        rng = np.random.default_rng(11)
        assert bank.sample_negatives(0, 100, rng).tolist() == [1]

    def test_hard_tier_always_included(self):
        categories = [5, 5, 5, 5] + [1] * 200
        videos = [7, 7, 7, 7] + list(range(100, 300))
        bank = self.setup_bank(categories, videos)
        rng = np.random.default_rng(12)
        for _ in range(10):
            chosen = set(bank.sample_negatives(0, 100, rng).tolist())
            assert {1, 2, 3}.issubset(chosen)
            assert len(chosen) == 100

    def test_tier_support_matches_direct_oracle(self):
        rng_setup = np.random.default_rng(13)
        categories = rng_setup.integers(0, 4, size=60)
        videos = rng_setup.integers(0, 15, size=60)
        bank = self.setup_bank(categories, videos)
        anchor = 5
        rng = np.random.default_rng(14)
        n = 20
        tier1 = {
            s for s in range(60)
            if s != anchor and categories[s] == categories[anchor] and videos[s] == videos[anchor]
        }
        tier2 = {
            s for s in range(60)
            if s != anchor and categories[s] == categories[anchor] and videos[s] != videos[anchor]
        }
        tier3 = {s for s in range(60) if s != anchor and categories[s] != categories[anchor]}
        for _ in range(25):
            chosen = bank.sample_negatives(anchor, n, rng).tolist()
            assert len(chosen) == min(n, 59)
            assert anchor not in chosen
            # hard tiers fill before easier tiers are touched
            assert tier1.issubset(chosen)
            used_t3 = len([c for c in chosen if c in tier3])
            if used_t3:
                assert tier2.issubset(chosen)

    def test_uninitialized_never_sampled(self):
        bank = MemoryBank([0, 0, 0], [0, 1, 2], 3)
        bank.update(0, np.ones(3), beta=0.2)
        bank.update(2, np.ones(3), beta=0.2)
        rng = np.random.default_rng(15)
        assert bank.sample_negatives(0, 10, rng).tolist() == [2]

    def test_no_eligible_returns_empty(self):
        bank = MemoryBank([0], [0], 3)
        bank.update(0, np.ones(3), beta=0.2)
        rng = np.random.default_rng(16)
        assert bank.sample_negatives(0, 10, rng).size == 0


class TestContrastiveLoss:
    def test_zero_negatives_gives_exact_zero(self):
        rng = np.random.default_rng(17)
        a = unit(rng.normal(size=6))
        loss = contrastive_loss(Tensor(a), unit(rng.normal(size=6)), np.zeros((0, 6)), tau=0.07)
        assert loss.item() == 0.0

    def test_symmetric_logits_give_log_two(self):
        a = np.array([1.0, 0.0])
        pos = np.array([0.0, 1.0])
        neg = np.array([[0.0, 1.0]])
        loss = contrastive_loss(Tensor(a), pos, neg, tau=0.07)
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            a = unit(rng.normal(size=8))
            pos = unit(rng.normal(size=8))
            negs = np.stack([unit(rng.normal(size=8)) for _ in range(5)])
            tau = 0.07
            expected = -np.log(
                np.exp(a @ pos / tau)
                / (np.exp(a @ pos / tau) + np.sum(np.exp(negs @ a / tau)))
            )
            got = contrastive_loss(Tensor(a), pos, negs, tau).item()
            assert abs(got - expected) < 1e-12

    def test_monotone_in_similarities(self):
        rng = np.random.default_rng(19)
        a = unit(rng.normal(size=6))
        pos = unit(rng.normal(size=6))
        negs = np.stack([unit(rng.normal(size=6)) for _ in range(4)])
        base = contrastive_loss(Tensor(a), pos, negs, tau=0.1).item()
        # raising the positive similarity lowers the loss
        better_pos = unit(pos + 0.2 * a)
        assert contrastive_loss(Tensor(a), better_pos, negs, tau=0.1).item() < base
        # raising any negative similarity raises the loss
        worse = negs.copy()
        worse[2] = unit(worse[2] + 0.2 * a)
        assert contrastive_loss(Tensor(a), pos, worse, tau=0.1).item() > base

    def test_anchor_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        anchor = Parameter("anchor", unit(rng.normal(size=6)))
        pos = unit(rng.normal(size=6))
        negs = np.stack([unit(rng.normal(size=6)) for _ in range(5)])

        def loss():
            return contrastive_loss(anchor, pos, negs, tau=0.07)

        assert grad_check([anchor], loss) < 1e-6

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(Tensor(np.ones(2)), np.ones(2), np.zeros((0, 2)), tau=0.0)


def test_snapshot_exports_initialized_slots(tmp_path):
    bank = MemoryBank([3, 4], [0, 1], 2)
    bank.update(1, np.array([0.6, 0.8]), beta=0.2)
    snap = bank.snapshot()
    assert len(snap) == 1
    assert snap[0]["target_id"] == 1 and snap[0]["category"] == 4
    path = tmp_path / "bank.json"
    bank.save_json(path)
    assert path.exists()
