"""Set-prediction losses: optimal matching of predictions to ground truth,
then class, mask and dice terms.  Frame level and video level are the same
loss, one prediction set per frame or one per video.

Each set of logits evaluates one softplus log(1 + e^x) and one sigmoid, both
from one exp (`tensor.softplus_sigmoid`).  The match costs read them over
every prediction; the set loss is one autodiff node over (class logits, mask
logits) whose value and hand-written backward gather the matched rows from
them.  BCE's gradient is sigmoid - y, so softplus reaches only loss values and
match costs, never a gradient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import hungarian
from .model import ForwardOutput
from .tensor import Tensor, node, softplus_sigmoid

DICE_SMOOTH = 1.0
# Mask2Former's set-loss weights (Cheng et al., CVPR 2022)
LAMBDA_CLS = 2.0
LAMBDA_MASK = 5.0
LAMBDA_DICE = 5.0

Match = tuple[int, int, float]  # (prediction index, target index, cost)


def _match_costs(mask_logits: np.ndarray, softplus: np.ndarray, probs: np.ndarray,
                 class_logits: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Pairwise assignment costs [..., n_pred, n_gt] from detached logits.

    Accepts stacked inputs: mask_logits [..., n_pred, P] with its softplus
    log(1 + e^x) and sigmoid, gt [..., n_gt, P], class_logits [..., n_pred]."""
    n_pixels = mask_logits.shape[-1]
    gt_t = gt.swapaxes(-1, -2)
    bce_pos = softplus.mean(axis=-1, keepdims=True)
    cross = mask_logits @ gt_t / n_pixels
    bce = bce_pos - cross
    inter = probs @ gt_t
    denom = probs.sum(axis=-1, keepdims=True) + gt.sum(axis=-1)[..., None, :]
    dice = 1.0 - (2.0 * inter + DICE_SMOOTH) / (denom + DICE_SMOOTH)
    # cost of predicting "object"; [B, N] logits, so the unused sigmoid is cheap
    cls = softplus_sigmoid(class_logits)[0] - class_logits
    return LAMBDA_CLS * cls[..., None] + LAMBDA_MASK * bce + LAMBDA_DICE * dice


def _assign(costs: np.ndarray) -> list[Match]:
    """Hungarian assignment of prediction rows to ground-truth columns.
    Returns (pred, gt, cost) per matched pair, in prediction order."""
    cols = hungarian(costs)
    return [(i, int(j), float(costs[i, j])) for i, j in enumerate(cols) if j < costs.shape[1]]


@dataclass
class MatchedLoss:
    loss: Tensor
    matches: list[Match]


def _set_loss(mask_logits: Tensor, class_logits: Tensor,
              gt: np.ndarray) -> tuple[Tensor, list[list[Match]]]:
    """Matched set loss of B independent prediction sets.

    mask_logits [B, N, P], class_logits [B, N], gt [B, G, P].  Each leading
    index matches its N predictions to its G targets on detached logits;
    matched predictions take mask + dice + positive class terms, unmatched
    ones are pushed to the negative class.  Returns the loss and the matches
    of each index.

    The loss is one node over (class_logits, mask_logits), or (class_logits,)
    when nothing matched: LAMBDA_CLS·mean BCE(class) + LAMBDA_MASK·mean
    BCE(matched rows) + LAMBDA_DICE·mean dice(matched rows).  Its value and
    backward repeat the scalar and elementwise steps of that sum built from
    plain ops, in their order, so loss and gradients are those of the
    plain-op graph bit for bit; the operand order keeps the graph's
    reverse-topological order upstream.
    """
    n_sets, n_pred, _ = mask_logits.shape
    matches: list[list[Match]] = [[] for _ in range(n_sets)]
    if gt.shape[1] > 0:
        softplus, probs = softplus_sigmoid(mask_logits.data)
        costs = _match_costs(mask_logits.data, softplus, probs, class_logits.data, gt)
        matches = [_assign(c) for c in costs]
    # set, prediction and target index of every matched pair, in set order
    pairs = [(s, p, t) for s, set_matches in enumerate(matches) for p, t, _ in set_matches]
    b, i, j = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    c = class_logits.data
    class_softplus, class_probs = softplus_sigmoid(c)
    class_targets = np.zeros((n_sets, n_pred))
    class_targets[b, i] = 1.0
    class_scale = 1.0 / c.size
    loss = LAMBDA_CLS * ((class_softplus - c * class_targets).sum() * class_scale)

    def class_grad(g):
        return (g * LAMBDA_CLS * class_scale) * (class_probs - class_targets)

    if not len(b):
        return node(loss, (class_logits,), lambda g, needs: (class_grad(g),)), matches
    # softplus and sigmoid are elementwise: their matched rows are those of
    # the matched logits
    x, y, p = mask_logits.data[b, i], gt[b, j], probs[b, i]
    bce_scale, dice_scale = 1.0 / y.size, 1.0 / len(y)
    num = (p * y).sum(axis=-1) * 2.0 + DICE_SMOOTH
    den = p.sum(axis=-1) + y.sum(axis=-1) + DICE_SMOOTH
    loss = (loss + LAMBDA_MASK * ((softplus[b, i] - x * y).sum() * bce_scale)
            + LAMBDA_DICE * ((1.0 - num / den).sum() * dice_scale))

    def backward(g, needs):
        d_mask = None
        if needs[1]:
            # dice: the ratio num/den takes -s per row, then the sigmoid's
            # two consumers (p·y summed and p summed) add, times p(1 - p)
            s = g * LAMBDA_DICE * dice_scale
            d_num, d_den = -s / den, s * num / (den * den)
            d_rows = y * (d_num * 2.0)[:, None]
            d_rows += d_den[:, None]
            d_rows *= p
            d_rows *= 1.0 - p
            # BCE: sigmoid - y, times its mean's scale
            d_bce = p - y
            d_bce *= g * LAMBDA_MASK * bce_scale
            d_rows += d_bce
            d_mask = np.zeros(mask_logits.shape)
            d_mask[b, i] = d_rows
        return class_grad(g) if needs[0] else None, d_mask

    return node(loss, (class_logits, mask_logits), backward), matches


def frame_loss(output: ForwardOutput, gt_masks: np.ndarray) -> Tensor:
    """Per-frame set loss: every frame matches its candidate tokens to the
    annotated objects present.  `gt_masks` [n_objects, T, H, W] holds 0/1
    or bool cells."""
    n_objects, t_frames, h, w = gt_masks.shape
    # astype keeps the swapped view's strides, so every product reads the
    # targets in the same memory order whatever dtype they come in
    gt = gt_masks.reshape(n_objects, t_frames, h * w).swapaxes(0, 1).astype(np.float64)
    loss, _ = _set_loss(output.frame_logits, output.class_logits, gt)
    return loss


def video_loss(output: ForwardOutput, target_masks: np.ndarray) -> MatchedLoss:
    """Video-level set loss of the motion queries against the expression's
    targets, as one prediction set.  `target_masks` [G, T, H, W] holds 0/1
    or bool cells."""
    n_queries = output.video.score_logits.shape[0]
    logits = output.video_logits.reshape(1, n_queries, -1)
    gt = target_masks.reshape(1, len(target_masks), logits.shape[-1]).astype(np.float64)
    loss, matches = _set_loss(logits, output.video.score_logits.reshape(1, n_queries), gt)
    return MatchedLoss(loss=loss, matches=matches[0])
