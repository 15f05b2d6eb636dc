"""Set-prediction losses: optimal matching of predictions to ground truth,
then class, mask and dice terms.  Frame level and video level are the same
loss, one prediction set per frame or one per video.

Each set of mask logits evaluates one softplus log(1 + e^x) and one sigmoid:
the match costs read both over every prediction, and the matched rows' BCE
value and gradient and the dice input and its gradient are gathered from
them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import hungarian
from .model import ForwardOutput
from .tensor import Tensor, bce_with_logits, node, stable_sigmoid, take

DICE_SMOOTH = 1.0

Match = tuple[int, int, float]  # (prediction index, target index, cost)


def dice_loss(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean soft dice loss over the leading axis; last axis is pixels."""
    t = Tensor(targets)
    inter = (probs * t).sum(axis=-1)
    denom = probs.sum(axis=-1) + Tensor(targets.sum(axis=-1))
    return (1.0 - (inter * 2.0 + DICE_SMOOTH) / (denom + DICE_SMOOTH)).mean()


def _match_costs(mask_logits: np.ndarray, softplus: np.ndarray, probs: np.ndarray,
                 class_logits: np.ndarray, gt: np.ndarray, lambda_cls: float,
                 lambda_mask: float, lambda_dice: float) -> np.ndarray:
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
    cls = np.logaddexp(0.0, class_logits) - class_logits  # cost of predicting "object"
    return lambda_cls * cls[..., None] + lambda_mask * bce + lambda_dice * dice


def _assign(costs: np.ndarray) -> list[Match]:
    """Hungarian assignment of prediction rows to ground-truth columns.
    Returns (pred, gt, cost) per matched pair, in prediction order."""
    cols = hungarian(costs)
    return [(i, int(j), float(costs[i, j])) for i, j in enumerate(cols) if j < costs.shape[1]]


@dataclass
class MatchedLoss:
    loss: Tensor
    matches: list[Match]


def _set_loss(mask_logits: Tensor, class_logits: Tensor, gt: np.ndarray, lambda_cls: float,
              lambda_mask: float, lambda_dice: float) -> tuple[Tensor, list[list[Match]]]:
    """Matched set loss of B independent prediction sets.

    mask_logits [B, N, P], class_logits [B, N], gt [B, G, P].  Each leading
    index matches its N predictions to its G targets on detached logits;
    matched predictions take mask + dice + positive class terms, unmatched
    ones are pushed to the negative class.  The terms are assembled in one
    batched expression.  Returns the loss and the matches of each index.
    """
    n_sets, n_pred, n_pixels = mask_logits.shape
    matches: list[list[Match]] = [[] for _ in range(n_sets)]
    if gt.shape[1] > 0:
        softplus = np.logaddexp(0.0, mask_logits.data)
        probs = stable_sigmoid(mask_logits.data)
        costs = _match_costs(mask_logits.data, softplus, probs, class_logits.data, gt,
                             lambda_cls, lambda_mask, lambda_dice)
        matches = [_assign(c) for c in costs]
    # set, prediction and target index of every matched pair, in set order
    pairs = [(s, p, t) for s, set_matches in enumerate(matches) for p, t, _ in set_matches]
    b, i, j = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    class_targets = np.zeros((n_sets, n_pred))
    class_targets[b, i] = 1.0
    loss = lambda_cls * bce_with_logits(class_logits, class_targets).mean()
    if len(b):
        logits = take(mask_logits.reshape(n_sets * n_pred, n_pixels), b * n_pred + i, axis=0)
        # softplus and sigmoid are elementwise: their matched rows are those
        # of the matched logits
        y, p = gt[b, j], probs[b, i]
        bce = node(softplus[b, i] - logits.data * y, (logits,), lambda g, needs: (g * (p - y),))
        sigmoid = node(p, (logits,), lambda g, needs: (g * p * (1.0 - p),))
        loss = loss + lambda_mask * bce.mean()
        loss = loss + lambda_dice * dice_loss(sigmoid, y)
    return loss, matches


def frame_loss(output: ForwardOutput, gt_masks: np.ndarray, lambda_cls: float,
               lambda_mask: float, lambda_dice: float) -> Tensor:
    """Per-frame set loss: every frame matches its candidate tokens to the
    annotated objects present."""
    n_objects, t_frames, h, w = gt_masks.shape
    gt = gt_masks.reshape(n_objects, t_frames, h * w).swapaxes(0, 1)
    loss, _ = _set_loss(output.frame_logits, output.class_logits, gt,
                        lambda_cls, lambda_mask, lambda_dice)
    return loss


def video_loss(output: ForwardOutput, target_masks: np.ndarray, lambda_cls: float,
               lambda_mask: float, lambda_dice: float) -> MatchedLoss:
    """Video-level set loss of the motion queries against the expression's
    targets, as one prediction set."""
    n_queries = output.video.score_logits.shape[0]
    logits = output.video_logits.reshape(1, n_queries, -1)
    gt = target_masks.reshape(1, len(target_masks), logits.shape[-1])
    loss, matches = _set_loss(logits, output.video.score_logits.reshape(1, n_queries), gt,
                              lambda_cls, lambda_mask, lambda_dice)
    return MatchedLoss(loss=loss, matches=matches[0])
