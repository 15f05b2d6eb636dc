"""Optimal assignment and adjacent-frame trajectory linking.

The solver is the O(n^3) shortest-augmenting-path algorithm run over pairs
(float cost, exact-integer tiebreak).  The integer part encodes the
permutation sequence in base n, so among all minimum-cost assignments the
lexicographically smallest permutation is returned deterministically; the
integer arithmetic is exact, so ties between literally equal costs resolve
the same way on every run.  A rectangular matrix is zero-padded to a square
here and nowhere else: a padded column stands for "unmatched".

A square matrix whose rows have pairwise distinct first minima skips the
search: the algorithm would give each row one relaxation against zero
potentials and take its first minimum, so those columns are its answer.
They are also the only optimal assignment, since any other gives each row a
minimum at or after its first one, and two permutations cannot differ that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, take

_INF = float("inf")


def hungarian(costs: np.ndarray) -> np.ndarray:
    """Minimum-total-cost row->column assignment of an [n_rows, n_cols] cost
    matrix, solved on its zero-padded square.  Returns one column per row; a
    column >= n_cols means the row is unmatched."""
    a = np.asarray(costs, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"hungarian needs a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("hungarian needs finite costs")
    n_rows, n_cols = a.shape
    if n_rows == n_cols > 0:
        first = a.argmin(axis=1)
        if len(set(first.tolist())) == n_rows:
            return first
    n = max(n_rows, n_cols)
    padded = np.zeros((n, n))
    padded[:n_rows, :n_cols] = a
    cost = padded.tolist()
    # tiebreak[i][j] = j * n^(n-1-i): summed over an assignment this is the
    # base-n encoding of the permutation sequence, so minimizing it picks the
    # lexicographically smallest permutation among equal-cost ones.
    powers = [n ** (n - 1 - i) for i in range(n)]

    u_f = [0.0] * (n + 1)
    u_s = [0] * (n + 1)
    v_f = [0.0] * (n + 1)
    v_s = [0] * (n + 1)
    match = [0] * (n + 1)  # column -> assigned row (1-based), 0 = free
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv_f = [_INF] * (n + 1)
        minv_s = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            p = powers[i0 - 1]
            delta_f = _INF
            delta_s = 0
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur_f = row[j - 1] - u_f[i0] - v_f[j]
                cur_s = (j - 1) * p - u_s[i0] - v_s[j]
                if cur_f < minv_f[j] or (cur_f == minv_f[j] and cur_s < minv_s[j]):
                    minv_f[j] = cur_f
                    minv_s[j] = cur_s
                    way[j] = j0
                if minv_f[j] < delta_f or (minv_f[j] == delta_f and minv_s[j] < delta_s):
                    delta_f = minv_f[j]
                    delta_s = minv_s[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u_f[match[j]] += delta_f
                    u_s[match[j]] += delta_s
                    v_f[j] -= delta_f
                    v_s[j] -= delta_s
                else:
                    minv_f[j] -= delta_f
                    minv_s[j] -= delta_s
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    perm = np.zeros(n, dtype=np.intp)
    for j in range(1, n + 1):
        perm[match[j] - 1] = j - 1
    return perm[:n_rows]


def cosine_cost(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Negative cosine similarity between token rows, [..., N, C] against
    [..., M, C] -> [..., N, M]; zero rows score 0."""
    pn = np.linalg.norm(prev, axis=-1, keepdims=True)
    cn = np.linalg.norm(cur, axis=-1, keepdims=True)
    a = np.divide(prev, pn, out=np.zeros_like(prev), where=pn > 0)
    b = np.divide(cur, cn, out=np.zeros_like(cur), where=cn > 0)
    return -(a @ b.swapaxes(-1, -2))


@dataclass
class TrajectorySet:
    """Per-frame tokens re-indexed into per-object trajectories."""

    trajectories: Tensor  # [N, T, C]
    assignments: np.ndarray  # [T, N]; assignments[t, i] = source row at frame t


def link(tokens: Tensor) -> TrajectorySet:
    """Chain adjacent frames by minimum-cost matching on detached values.

    Frame 1 is kept as-is; every later frame is permuted to follow the
    matched slot of the previous frame.  Gradients flow through the gathered
    token values, not through the discrete assignment.
    """
    t_frames, n, c = tokens.shape
    values = tokens.data
    # costs[t - 1] scores frame t-1's slots against frame t's; its rows are
    # taken in the order the previous frame was assigned
    costs = cosine_cost(values[:-1], values[1:])
    assignments = np.zeros((t_frames, n), dtype=np.intp)
    assignments[0] = np.arange(n)
    for t in range(1, t_frames):
        assignments[t] = hungarian(costs[t - 1][assignments[t - 1]])
    # one gather over the flattened (frame, slot) axis: trajectory i at frame
    # t comes from flat row t*n + assignments[t, i]
    flat_idx = (np.arange(t_frames)[None, :] * n + assignments.T).reshape(-1)
    gathered = take(tokens.reshape(t_frames * n, c), flat_idx, axis=0)
    return TrajectorySet(trajectories=gathered.reshape(n, t_frames, c), assignments=assignments)


def identity_trajectories(tokens: Tensor) -> TrajectorySet:
    """Linker ablation: keep per-frame slot order, no matching."""
    t_frames, n, _ = tokens.shape
    assignments = np.tile(np.arange(n, dtype=np.intp), (t_frames, 1))
    return TrajectorySet(trajectories=tokens.swapaxes(0, 1), assignments=assignments)
