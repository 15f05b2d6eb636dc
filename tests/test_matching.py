import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionscope.matching import TrajectorySet, cosine_cost, hungarian, identity_trajectories, link
from motionscope.tensor import Parameter, ShapeError, Tensor

from gradcheck import grad_check


def brute_force_min(costs):
    n = costs.shape[0]
    best_total, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        total = sum(costs[i, perm[i]] for i in range(n))
        if best_total is None or total < best_total:
            best_total, best_perm = total, perm
    return best_total, best_perm


def total_cost(costs, perm):
    return sum(costs[i, perm[i]] for i in range(costs.shape[0]))


def lexicographic_optimum(costs):
    """The lexicographically smallest of all minimum-cost permutations."""
    n = costs.shape[0]
    best_total, _ = brute_force_min(costs)
    return min(p for p in itertools.permutations(range(n)) if total_cost(costs, p) == best_total)


def padded_lexicographic_optimum(costs):
    """The lexicographic optimum of the zero-padded square, cut to the real
    rows.  `permutations` yields in lexicographic order, so the first
    minimum of the (exact, integer-valued) totals is the optimum."""
    n_rows, n_cols = costs.shape
    n = max(n_rows, n_cols)
    padded = np.zeros((n, n))
    padded[:n_rows, :n_cols] = costs
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    totals = padded[np.arange(n), perms].sum(axis=1)
    return tuple(perms[totals.argmin(), :n_rows].tolist())


def link_by_frame(values):
    """Reference linking: one cosine cost and one solve per frame, each
    against the previous frame's tokens in their linked order."""
    t_frames, n, _ = values.shape
    assignments = [np.arange(n)]
    prev = values[0]
    for t in range(1, t_frames):
        perm = hungarian(cosine_cost(prev, values[t]))
        assignments.append(perm)
        prev = values[t][perm]
    assignments = np.stack(assignments)
    trajectories = np.stack([values[t][assignments[t]] for t in range(t_frames)], axis=1)
    return assignments, trajectories


class TestHungarian:
    def test_identity_favoring(self):
        costs = np.ones((4, 4)) - np.eye(4)
        assert hungarian(costs).tolist() == [0, 1, 2, 3]

    def test_constant_matrix_breaks_tie_lexicographically(self):
        for c in (0.0, 0.3, -2.5):
            costs = np.full((5, 5), c)
            perm = hungarian(costs)
            assert perm.tolist() == [0, 1, 2, 3, 4]
            assert total_cost(costs, perm) == 5 * c

    def test_matches_brute_force_on_random_6x6(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            costs = rng.normal(size=(6, 6))
            perm = hungarian(costs)
            best_total, _ = brute_force_min(costs)
            assert total_cost(costs, perm) == best_total

    def test_tie_rich_integer_matrices_stay_optimal_and_lexicographic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            costs = rng.integers(0, 3, size=(5, 5)).astype(float)
            perm = hungarian(costs)
            best_total, _ = brute_force_min(costs)
            assert total_cost(costs, perm) == best_total
            # lexicographically smallest among all optimal permutations
            optimal = [
                p
                for p in itertools.permutations(range(5))
                if total_cost(costs, p) == best_total
            ]
            assert tuple(perm.tolist()) == min(optimal)

    @given(arrays(np.float64, st.tuples(st.integers(1, 6)).map(lambda s: s * 2),
                  elements=st.sampled_from([0.0, 1.0, 2.0])))
    def test_square_tie_rich_matrices_give_lexicographic_optimum(self, costs):
        assert tuple(hungarian(costs).tolist()) == lexicographic_optimum(costs)

    def test_tied_row_minimum_takes_first_column(self):
        # distinct first minima: row 0 ties columns 1 and 2 and takes 1
        costs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        assert hungarian(costs).tolist() == [1, 0, 2]
        assert tuple(hungarian(costs).tolist()) == lexicographic_optimum(costs)

    @pytest.mark.parametrize("costs", [
        [[0.0, 1.0], [0.0, 5.0]],
        [[0.0, 0.0, 1.0], [0.0, 2.0, 2.0], [3.0, 0.0, 0.0]],
        [[1.0, 2.0, 3.0], [1.0, 4.0, 6.0], [1.0, 6.0, 9.0]],
    ])
    def test_colliding_row_minima_run_the_full_search(self, costs):
        costs = np.array(costs)
        first = costs.argmin(axis=1)
        assert len(set(first.tolist())) < len(first)
        assert tuple(hungarian(costs).tolist()) == lexicographic_optimum(costs)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            costs = rng.normal(size=(5, 5))
            base = hungarian(costs)
            for c in (-3.0, 0.25, 10.0):
                assert np.array_equal(hungarian(costs + c), base)

    @pytest.mark.parametrize("shape",
                             [(6, 3), (3, 6), (4, 1), (1, 4), (0, 3), (3, 0), (0, 0), (1, 1)])
    def test_rectangular_equals_zero_padded_square(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            costs = rng.integers(-2, 3, size=shape).astype(float)
            n = max(shape)
            padded = np.zeros((n, n))
            padded[:shape[0], :shape[1]] = costs
            assert hungarian(costs).tolist() == hungarian(padded)[:shape[0]].tolist()

    @pytest.mark.parametrize("shape", [(r, c) for r in range(6) for c in range(6) if r != c],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @settings(max_examples=12)
    @given(data=st.data())
    def test_rectangular_gives_padded_lexicographic_optimum(self, shape, data):
        costs = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])))
        assert tuple(hungarian(costs).tolist()) == padded_lexicographic_optimum(costs)

    @pytest.mark.parametrize("costs, expected", [
        ([[1.0], [0.0], [0.0]], [1, 0, 2]),
        ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [0, 1, 2]),
    ])
    def test_tall_zero_cost_match_beats_unmatched(self, costs, expected):
        # a row may take a real column at cost 0 or stay unmatched at cost 0;
        # the earlier rows take the real columns, the later ones pad
        costs = np.array(costs)
        assert hungarian(costs).tolist() == expected
        assert tuple(expected) == padded_lexicographic_optimum(costs)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3), ()])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ShapeError):
            hungarian(np.zeros(shape))

    def test_non_finite_rejected(self):
        costs = np.zeros((2, 2))
        costs[0, 0] = np.nan
        with pytest.raises(ValueError):
            hungarian(costs)


class TestCosineCost:
    def test_zero_rows_score_zero(self):
        prev = np.array([[0.0, 0.0], [1.0, 0.0]])
        cur = np.array([[0.0, 1.0], [0.0, 0.0]])
        costs = cosine_cost(prev, cur)
        assert costs[0, 0] == 0.0 and costs[0, 1] == 0.0 and costs[1, 1] == 0.0
        assert costs[1, 0] == 0.0  # orthogonal

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        prev, cur = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert np.allclose(cosine_cost(prev, cur), cosine_cost(prev * 7.0, cur * 0.2))

    def test_stacked_equals_per_matrix(self):
        rng = np.random.default_rng(4)
        prev, cur = rng.normal(size=(5, 3, 4)), rng.normal(size=(5, 2, 4))
        prev[1, 0] = 0.0
        stacked = cosine_cost(prev, cur)
        assert stacked.shape == (5, 3, 2)
        for k in range(5):
            assert np.array_equal(stacked[k], cosine_cost(prev[k], cur[k]))


class TestLink:
    def test_single_frame_passthrough(self):
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(1, 3, 4))
        out = link(Tensor(tokens))
        assert np.array_equal(out.trajectories.data[:, 0, :], tokens[0])

    def test_constant_tokens_identity_assignment(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=(4, 5))
        tokens = np.stack([frame] * 6)
        out = link(Tensor(tokens))
        for t in range(6):
            assert out.assignments[t].tolist() == [0, 1, 2, 3]

    def test_swapped_signatures_are_swapped_back(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        tokens = np.stack([np.stack([a, b]), np.stack([b, a])])
        out = link(Tensor(tokens))
        assert out.assignments[1].tolist() == [1, 0]
        # brute-force check on the 2x2 cost
        costs = cosine_cost(tokens[0], tokens[1])
        best_total, best_perm = brute_force_min(costs)
        assert tuple(out.assignments[1]) == best_perm

    def test_multiset_of_tokens_preserved_per_frame(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(5, 4, 3))
        out = link(Tensor(tokens))
        for t in range(5):
            frame_rows = {tuple(r) for r in tokens[t]}
            traj_rows = {tuple(r) for r in out.trajectories.data[:, t, :]}
            assert frame_rows == traj_rows

    def test_permutation_consistency(self):
        rng = np.random.default_rng(3)
        tokens = rng.normal(size=(4, 5, 6))
        out = link(Tensor(tokens))
        pi = rng.permutation(5)
        permuted = tokens[:, pi, :]
        out2 = link(Tensor(permuted))
        # same trajectories as a set, relabeled by frame-1 order
        set_a = {tuple(out.trajectories.data[i].reshape(-1)) for i in range(5)}
        set_b = {tuple(out2.trajectories.data[i].reshape(-1)) for i in range(5)}
        assert set_a == set_b

    def test_gradients_flow_through_chosen_rows(self):
        rng = np.random.default_rng(4)
        w = Parameter("w", rng.normal(size=(3, 3)))
        base = rng.normal(size=(3, 2, 3))

        def loss():
            tokens = Tensor(base.reshape(6, 3)) @ w
            out = link(tokens.reshape(3, 2, 3))
            return (out.trajectories * out.trajectories).sum()

        assert grad_check([w], loss) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_frame_linking(self, seed):
        """Tokens that drift slowly, with zero rows and near-duplicate rows,
        give the same assignments and trajectories as solving each frame
        against the previous frame's linked tokens.  The frames mix solves
        whose row minima are distinct with solves whose minima collide."""
        rng = np.random.default_rng(seed)
        tokens = rng.normal(size=(6, 5)) + 0.1 * rng.normal(size=(9, 6, 5))
        tokens[4:7, 2] = tokens[4:7, 1] + 1e-12 * rng.normal(size=(3, 5))
        tokens[rng.integers(0, 9, size=2), rng.integers(0, 6, size=2)] = 0.0
        tokens = np.stack([frame[rng.permutation(6)] for frame in tokens])
        out = link(Tensor(tokens))
        assignments, trajectories = link_by_frame(tokens)
        assert np.array_equal(out.assignments, assignments)
        assert np.array_equal(out.trajectories.data, trajectories)
        minima = [cosine_cost(trajectories[:, t - 1], tokens[t]).argmin(axis=1) for t in range(1, 9)]
        distinct = sum(len(set(m.tolist())) == 6 for m in minima)
        assert 0 < distinct < 8

    def test_identity_trajectories(self):
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(3, 4, 2))
        out = identity_trajectories(Tensor(tokens))
        assert isinstance(out, TrajectorySet)
        assert np.array_equal(out.trajectories.data, tokens.swapaxes(0, 1))
