"""Optimal assignment and adjacent-frame trajectory linking.

`hungarian` answers for the cost matrix zero-padded to a square, where a
padded column stands for "unmatched", but builds no square.  It works on the
short side: the k = min(rows, cols) rows of the matrix, or of its transpose
when it is tall, against the m = max(rows, cols) entries of the other side.

The O(k^2 m) shortest-augmenting-path search runs on pairs (float cost,
exact-integer tiebreak).  Row i on column j adds (j - n_cols) ·
(n_cols + 1)^(n_rows - 1 - i) to the tiebreak: digit j against the digit
n_cols of an unmatched row, which adds nothing.  So the search returns the
lexicographically smallest minimum-cost permutation of the padded square: a
real column beats a padded one, and two optimal permutations cannot first
differ at a row unmatched in both, since unmatched rows take the padded
columns n_cols, n_cols + 1, ... in row order.  The integer arithmetic is
exact, so literal ties resolve the same way on every run.

When the short side's first row minima are pairwise distinct, they are the
answer: the search would give each short-side row one relaxation at zero
potentials and take its first minimum, as the tiebreak ranks tied columns by
index.  An optimum gives each short-side row one of its minima, so in a wide
or square matrix any other optimum gives each row a column at or after this
one.  In a tall one, let another optimum first differ from this answer at
row r.  A real column j there would make r j's first minimum, since the rows
before r take the same columns in both, so this answer gives r column j too.
So the other gives r a padded column, larger than this answer's.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, take

_INF = float("inf")


class NonFiniteCosts(ValueError):
    """Raised by `hungarian` for a cost matrix that holds NaN or an infinity."""


def _search(cost: np.ndarray, tiebreak: list[list[int]]) -> list[int]:
    """Shortest augmenting paths over the k rows of a [k, m] cost table,
    k <= m, on pairs (float cost, exact-integer tiebreak) compared in that
    order.  Every row is matched; returns each row's column."""
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
    return [match.index(i, 1) - 1 for i in range(1, k + 1)]


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
    tall = n_rows > n_cols
    short = a.T if tall else a
    # argmin rejects a [0, 0] matrix; without short-side rows the answer is empty
    cols = short.argmin(axis=1) if short.size else np.zeros(0, dtype=np.intp)
    if len(set(cols.tolist())) < len(cols):
        powers = [(n_cols + 1) ** (n_rows - 1 - i) for i in range(n_rows)]
        ties = [[(j - n_cols) * p for j in range(n_cols)] for p in powers]
        cols = np.array(_search(short, list(zip(*ties)) if tall else ties), dtype=np.intp)
    if not tall:
        return cols
    # the columns took rows `cols`; the rows left take n_cols, n_cols + 1, ...
    perm = np.full(n_rows, -1, dtype=np.intp)
    perm[cols] = np.arange(n_cols)
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


def link(tokens: Tensor) -> Tensor:
    """Per-frame tokens [T, N, C] re-indexed into per-object trajectories
    [N, T, C], by chaining adjacent frames with minimum-cost matching on
    detached values.

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
    return gathered.reshape(n, t_frames, c)
