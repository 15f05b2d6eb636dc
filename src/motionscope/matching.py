"""Optimal assignment and adjacent-frame trajectory linking.

The solver is the O(k^2 m) shortest-augmenting-path algorithm run over pairs
(float cost, exact-integer tiebreak): k = min(rows, cols) augmentations,
each over the m = max(rows, cols) entries of the other side.  The integer
part spells the assignment as digits in row order, so among all
minimum-cost assignments the lexicographically smallest is returned
deterministically; the integer arithmetic is exact, so ties between
literally equal costs resolve the same way on every run.

The answer is the one of the matrix zero-padded to a square, where a padded
column stands for "unmatched", but no square is built.  A wide or square
matrix searches its rows: row i on column j adds j · n_cols^(n_rows - 1 - i)
to the tiebreak.  A tall matrix searches its G columns over its rows, and
row i on column j adds (j - G) · (G + 1)^(n_rows - 1 - i).  That is digit j
against the constant digit G of an unmatched row, in base G + 1, and it
keeps the padded order: at the first row where two optimal padded
permutations differ, a real column j < G always beats a padded one, and two
permutations cannot first differ at a row unmatched in both, since the
unmatched rows take the padded columns G, G + 1, ... in row order.

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


class NonFiniteCosts(ValueError):
    """Raised by `hungarian` for a cost matrix that holds NaN or an infinity."""


def _search(cost: np.ndarray, tiebreak: list[list[int]]) -> list[int]:
    """Shortest augmenting paths over the k rows of a [k, m] cost table,
    k <= m, on pairs (float cost, exact-integer tiebreak) compared in that
    order.  Every row is matched; returns the row matched to each column,
    -1 for a column left free."""
    k, m = cost.shape
    rows = cost.tolist()
    u_f = [0.0] * (k + 1)
    u_s = [0] * (k + 1)
    v_f = [0.0] * (m + 1)
    v_s = [0] * (m + 1)
    match = [0] * (m + 1)  # column -> assigned row (1-based), 0 = free
    way = [0] * (m + 1)

    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv_f = [_INF] * (m + 1)
        minv_s = [0] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            ties = tiebreak[i0 - 1]
            delta_f = _INF
            delta_s = 0
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur_f = row[j - 1] - u_f[i0] - v_f[j]
                cur_s = ties[j - 1] - u_s[i0] - v_s[j]
                if cur_f < minv_f[j] or (cur_f == minv_f[j] and cur_s < minv_s[j]):
                    minv_f[j] = cur_f
                    minv_s[j] = cur_s
                    way[j] = j0
                if minv_f[j] < delta_f or (minv_f[j] == delta_f and minv_s[j] < delta_s):
                    delta_f = minv_f[j]
                    delta_s = minv_s[j]
                    j1 = j
            for j in range(m + 1):
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
    return [r - 1 for r in match[1:]]


def hungarian(costs: np.ndarray) -> np.ndarray:
    """Minimum-total-cost row->column assignment of an [n_rows, n_cols] cost
    matrix, the lexicographically smallest such permutation of its
    zero-padded square.  Returns one column per row; a column >= n_cols means
    the row is unmatched, and unmatched rows take n_cols, n_cols + 1, ... in
    row order."""
    a = np.asarray(costs, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"hungarian needs a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteCosts("hungarian needs finite costs")
    n_rows, n_cols = a.shape
    if n_rows == n_cols > 0:
        first = a.argmin(axis=1)
        if len(set(first.tolist())) == n_rows:
            return first
    perm = np.zeros(n_rows, dtype=np.intp)
    if n_rows <= n_cols:
        powers = [n_cols ** (n_rows - 1 - i) for i in range(n_rows)]
        row_of = _search(a, [[j * p for j in range(n_cols)] for p in powers])
        for j, i in enumerate(row_of):
            if i >= 0:
                perm[i] = j
        return perm
    # tall: the G = n_cols columns search the rows
    powers = [(n_cols + 1) ** (n_rows - 1 - i) for i in range(n_rows)]
    perm[:] = _search(a.T, [[(j - n_cols) * p for p in powers] for j in range(n_cols)])
    perm[perm < 0] = np.arange(n_cols, n_rows)
    return perm


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
