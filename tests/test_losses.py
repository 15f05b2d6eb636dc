import itertools

import numpy as np
import pytest

from motionscope import losses
from motionscope.bank import contrastive_loss
from motionscope.benchmark import FEATURE_CHANNELS, BenchmarkConfig, generate
from motionscope.config import TrainConfig
from motionscope.losses import (DICE_SMOOTH, LAMBDA_CLS, LAMBDA_DICE, LAMBDA_MASK, _assign,
                                _match_costs, _set_loss, frame_loss, video_loss)
from motionscope.model import N_MOTION_QUERIES, N_STATIC_QUERIES, MotionSegModel
from motionscope.tensor import Parameter, Tensor, node, softplus_sigmoid, stable_sigmoid, take
from motionscope.trainer import LAMBDA_CONTRASTIVE, Trainer

from gradcheck import grad_check, sigmoid


def bce_with_logits(logits, targets):
    """Elementwise binary cross entropy on logits as one plain node: softplus
    log(1 + e^x) - x·y, whose gradient is sigmoid - y."""
    y = np.asarray(targets, dtype=np.float64)
    softplus, sigmoid = softplus_sigmoid(logits.data)
    return node(softplus - logits.data * y, (logits,), lambda g, needs: (g * (sigmoid - y),))


def dice_loss(probs, targets):
    """Mean soft dice loss over the leading axis, from plain ops; last axis is pixels."""
    t = Tensor(targets)
    inter = (probs * t).sum(axis=-1)
    denom = probs.sum(axis=-1) + Tensor(targets.sum(axis=-1))
    return (Tensor(1.0) - (inter * 2.0 + DICE_SMOOTH) / (denom + DICE_SMOOTH)).mean()


def small_model(seed=0, **overrides):
    base = dict(grid_height=10, grid_width=10, hmp_stages=1)
    base.update(overrides)
    cfg = TrainConfig(**base)
    return cfg, MotionSegModel(cfg, np.random.default_rng(seed))


def small_scene(seed=0, **overrides):
    base = dict(frames=8, height=10, width=10)
    base.update(overrides)
    return generate(seed, BenchmarkConfig(**base))


class TestPrimitives:
    def test_bce_matches_definition(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=3.0, size=20)
        y = (rng.random(20) > 0.5).astype(float)
        got = bce_with_logits(Tensor(x), y).data
        p = 1.0 / (1.0 + np.exp(-x))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert np.allclose(got, expected, atol=1e-10)

    def test_bce_gradient(self):
        rng = np.random.default_rng(1)
        w = Parameter("w", rng.normal(size=6))
        y = (rng.random(6) > 0.5).astype(float)

        def loss():
            return bce_with_logits(w, y).sum()

        assert grad_check([w], loss) < 1e-8

    def test_dice_perfect_prediction_near_zero(self):
        gt = np.zeros((2, 16))
        gt[0, :4] = 1
        gt[1, 8:12] = 1
        probs = Tensor(gt.copy())
        assert dice_loss(probs, gt).item() < 1e-9

    def test_dice_disjoint_high(self):
        gt = np.zeros((1, 10))
        gt[0, :5] = 1
        pred = np.zeros((1, 10))
        pred[0, 5:] = 1
        assert dice_loss(Tensor(pred), gt).item() > 0.9


class TestMatching:
    def test_two_object_toy_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            logits = rng.normal(scale=2.0, size=(4, 12))
            cls = rng.normal(size=4)
            gt = (rng.random((2, 12)) > 0.5).astype(float)
            costs = _match_costs(logits, np.logaddexp(0.0, logits), stable_sigmoid(logits), cls, gt)
            matches = _assign(costs)
            got = sum(c for _, _, c in matches)
            best = min(
                costs[a, 0] + costs[b, 1]
                for a, b in itertools.permutations(range(4), 2)
            )
            assert abs(got - best) < 1e-12

    def test_assignment_is_injective(self):
        rng = np.random.default_rng(3)
        costs = rng.normal(size=(5, 3))
        matches = _assign(costs)
        preds = [m[0] for m in matches]
        gts = sorted(m[1] for m in matches)
        assert len(set(preds)) == len(preds)
        assert gts == [0, 1, 2]


class TestFrameLoss:
    def test_saturated_perfect_predictions_near_zero(self):
        _, model = small_model()
        scene = small_scene()
        out = model.forward(scene.features, scene.expressions[0])
        n_obj, t, h, w = scene.masks.shape
        # overwrite logits with saturated ground truth for the first n_obj tokens
        gt = scene.masks.reshape(n_obj, t, h * w)
        forged = np.full((t, N_STATIC_QUERIES, h * w), -10.0)
        cls = np.full((t, N_STATIC_QUERIES), -10.0)
        for j in range(n_obj):
            forged[:, j, :] = np.where(gt[j] > 0, 10.0, -10.0)
            cls[:, j] = 10.0
        out.frame_logits.data[...] = forged
        out.class_logits.data[...] = cls
        loss = frame_loss(out, scene.masks)
        assert loss.item() < 0.01

    def test_zero_objects_gives_pure_class_negative(self):
        _, model = small_model()
        scene = small_scene()
        out = model.forward(scene.features, scene.expressions[0])
        empty = np.zeros((0,) + scene.masks.shape[1:])
        loss = frame_loss(out, empty)
        expected = 2.0 * bce_with_logits(out.class_logits,
                                         np.zeros(out.class_logits.shape)).mean().item()
        assert abs(loss.item() - expected) < 1e-12

    def test_gradients_flow(self):
        _, model = small_model()
        scene = small_scene()

        def loss():
            out = model.forward(scene.features, scene.expressions[0])
            return frame_loss(out, scene.masks)

        l = loss()
        l.backward()
        grads = [np.abs(p.grad).max() for p in model.params if p.grad is not None]
        assert max(grads) > 0


class TestVideoLoss:
    def test_saturated_perfect_predictions_near_zero(self):
        _, model = small_model()
        scene = small_scene(seed=3)
        expr = next(e for s in [scene] for e in s.expressions if e.target_ids)
        out = model.forward(scene.features, expr)
        targets = scene.target_masks(expr)
        k, t, h, w = targets.shape
        forged = np.full((N_MOTION_QUERIES, t, h * w), -10.0)
        cls = np.full(N_MOTION_QUERIES, -10.0)
        flat = targets.reshape(k, t, h * w)
        for j in range(k):
            forged[j] = np.where(flat[j] > 0, 10.0, -10.0)
            cls[j] = 10.0
        out.video_logits.data[...] = forged.reshape(N_MOTION_QUERIES, t, h * w)
        out.video.score_logits.data[...] = cls
        result = video_loss(out, targets)
        assert result.loss.item() < 0.01
        assert len(result.matches) == k

    def test_no_targets_class_negative_only(self):
        _, model = small_model()
        scene = small_scene(seed=4)
        out = model.forward(scene.features, scene.expressions[0])
        result = video_loss(out, np.zeros((0,) + scene.masks.shape[1:]))
        expected = 2.0 * bce_with_logits(out.video.score_logits,
                                         np.zeros(N_MOTION_QUERIES)).mean().item()
        assert abs(result.loss.item() - expected) < 1e-12
        assert result.matches == []

    def test_two_target_matching_matches_brute_force(self):
        rng = np.random.default_rng(5)
        _, model = small_model(seed=6)
        scene = small_scene(seed=7)
        out = model.forward(scene.features, scene.expressions[0])
        targets = (rng.random((2,) + scene.masks.shape[1:]) > 0.7).astype(float)
        result = video_loss(out, targets)
        flat = targets.reshape(2, -1)
        logits = out.video_logits.data.reshape(N_MOTION_QUERIES, -1)
        costs = _match_costs(logits, np.logaddexp(0.0, logits), stable_sigmoid(logits),
                             out.video.score_logits.data, flat)
        best = min(
            costs[a, 0] + costs[b, 1]
            for a, b in itertools.permutations(range(N_MOTION_QUERIES), 2)
        )
        got = sum(c for _, _, c in result.matches)
        assert abs(got - best) < 1e-12

    def test_more_targets_than_queries_matches_every_query(self):
        rng = np.random.default_rng(8)
        _, model = small_model(seed=9)
        scene = small_scene(seed=10)
        out = model.forward(scene.features, scene.expressions[0])
        targets = (rng.random((5,) + scene.masks.shape[1:]) > 0.7).astype(float)
        result = video_loss(out, targets)
        logits = out.video_logits.data.reshape(N_MOTION_QUERIES, -1)
        costs = _match_costs(logits, np.logaddexp(0.0, logits), stable_sigmoid(logits),
                             out.video.score_logits.data, targets.reshape(5, -1))
        best = min(sum(costs[q, t] for q, t in enumerate(chosen))
                   for chosen in itertools.permutations(range(5), N_MOTION_QUERIES))
        assert [m[0] for m in result.matches] == list(range(N_MOTION_QUERIES))
        assert abs(sum(c for _, _, c in result.matches) - best) < 1e-12


def reference_set_loss(mask_logits, class_logits, gt):
    """The matched set loss built from its plain ops, with `_set_loss`'s
    signature and results: the class and matched rows' BCE by this file's
    `bce_with_logits`, and its `dice_loss` on `gradcheck.sigmoid` of the rows
    gathered by `take`, each recomputing its own softplus and sigmoid."""
    n_sets, n_pred, n_pixels = mask_logits.shape
    matches = [[] for _ in range(n_sets)]
    if gt.shape[1] > 0:
        x = mask_logits.data
        costs = _match_costs(x, *softplus_sigmoid(x), class_logits.data, gt)
        matches = [_assign(c) for c in costs]
    pairs = [(s, p, t) for s, set_matches in enumerate(matches) for p, t, _ in set_matches]
    b, i, j = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    class_targets = np.zeros((n_sets, n_pred))
    class_targets[b, i] = 1.0
    loss = LAMBDA_CLS * bce_with_logits(class_logits, class_targets).mean()
    if len(b):
        logits = take(mask_logits.reshape(n_sets * n_pred, n_pixels), b * n_pred + i, axis=0)
        loss = loss + LAMBDA_MASK * bce_with_logits(logits, gt[b, j]).mean()
        loss = loss + LAMBDA_DICE * dice_loss(sigmoid(logits), gt[b, j])
    return loss, matches


@pytest.mark.parametrize("n_targets", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("level,mask_dtype", [("frame", float), ("video", float),
                                              ("frame", bool), ("video", bool)],
                         ids=["frame", "video", "frame-bool", "video-bool"])
def test_set_losses_equal_reference_bit_for_bit(level, mask_dtype, n_targets):
    """Loss value and every parameter gradient equal the plain-op reference
    on 0/1 float targets exactly, for no target, one, two, and more targets
    than queries (5 against the 4 video queries, 9 against the 8 object
    queries), whether the losses receive the targets as float64 or as bool,
    the dtype of scene masks."""
    _, model = small_model(seed=11)
    scene = small_scene(seed=12)
    rng = np.random.default_rng(n_targets)
    masks = rng.random((n_targets,) + scene.masks.shape[1:]) > 0.7
    targets = masks.astype(float)
    _, t_frames, h, w = scene.masks.shape

    def run(loss_fn):
        for p in model.params:
            p.zero_grad()
        loss = loss_fn(model.forward(scene.features, scene.expressions[0]))
        loss.backward()
        return loss.data, [p.grad for p in model.params]

    if level == "frame":
        got = run(lambda out: frame_loss(out, masks.astype(mask_dtype)))
        want = run(lambda out: reference_set_loss(
            out.frame_logits, out.class_logits,
            targets.reshape(n_targets, t_frames, h * w).swapaxes(0, 1))[0])
    else:
        got = run(lambda out: video_loss(out, masks.astype(mask_dtype)).loss)
        want = run(lambda out: reference_set_loss(
            out.video_logits.reshape(1, N_MOTION_QUERIES, -1),
            out.video.score_logits.reshape(1, N_MOTION_QUERIES),
            targets.reshape(1, n_targets, t_frames * h * w))[0])
    assert np.array_equal(got[0], want[0])
    assert [g is None for g in got[1]] == [g is None for g in want[1]]
    assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]) if g is not None)
    assert any(g is not None and np.abs(g).max() > 0 for g in got[1])


def test_set_loss_equals_reference_bit_for_bit_on_random_sets():
    """The same comparison on 200 small random sets, where a last-bit change
    of one element's softplus shows in the loss more often than at model size."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_sets, n_pred, n_pixels = rng.integers(1, (4, 5, 9)).tolist()
        n_gt = int(rng.integers(0, 6))
        masks = rng.normal(scale=3.0, size=(n_sets, n_pred, n_pixels))
        scores = rng.normal(size=(n_sets, n_pred))
        gt = (rng.random((n_sets, n_gt, n_pixels)) > 0.5).astype(float)
        results = []
        for loss_fn in (_set_loss, reference_set_loss):
            mask_logits, class_logits = Parameter("m", masks), Parameter("c", scores)
            loss, _ = loss_fn(mask_logits, class_logits, gt)
            loss.backward()
            results.append((loss.data, mask_logits.grad, class_logits.grad))
        (loss, d_mask, d_class), (ref_loss, ref_mask, ref_class) = results
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(d_mask, ref_mask) and np.array_equal(d_class, ref_class)


def test_no_per_pixel_projection_is_differentiated():
    """Structural guard, no timing: on a 32x32 scene no node of the training
    graph that needs a gradient holds T*H*W rows of channel vectors, so keys,
    values and mask features are never projected per pixel."""
    _, model = small_model(grid_height=32, grid_width=32)
    scene = small_scene(height=32, width=32)
    out = model.forward(scene.features, scene.expressions[0])
    loss = (frame_loss(out, scene.masks)
            + video_loss(out, scene.target_masks(scene.expressions[0])).loss)
    t, h, w, _ = scene.features.shape
    per_pixel = []
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert node.requires_grad
        shape = node.shape
        if (len(shape) >= 2 and shape[-1] == FEATURE_CHANNELS
                and int(np.prod(shape[:-1])) == t * h * w):
            per_pixel.append(shape)
        stack.extend(node._parents)
    assert len(seen) > 100
    assert per_pixel == []


def toy_trainer():
    """A Trainer at toy sizes over four scenes; its steps are numbered from
    `cfg.warmup_steps` on, so the contrastive term is live from the first."""
    cfg = TrainConfig(grid_height=10, grid_width=10, hmp_stages=1,
                      n_negatives=4, steps=12, eval_every=12)
    return Trainer(cfg, [small_scene(seed) for seed in range(4)], [])


def test_training_steps_equal_reference_bit_for_bit(monkeypatch):
    """Twelve whole training steps (frame, video and contrastive terms, clipping
    and the update) leave every parameter bit for bit where the plain-op
    reference loss leaves it.  Unlike a gradient test of the two set losses
    alone, this sees the order in which the set-loss node's operands pass
    gradients on to the video tokens, which the contrastive term reads too."""

    def train(trainer):
        active = 0
        for step in range(12):
            si, ei = trainer.pairs[step % len(trainer.pairs)]
            scene = trainer.train_scenes[si]
            parts = trainer.train_step(scene, scene.expressions[ei],
                                       trainer.cfg.warmup_steps + step)
            active += parts["contrastive"] > 0
        return [p.data for p in trainer.model.params], active

    fused, active = train(toy_trainer())
    monkeypatch.setattr(losses, "_set_loss", reference_set_loss)
    plain, _ = train(toy_trainer())
    initial = [p.data for p in toy_trainer().model.params]
    assert active > 0
    assert all(np.array_equal(a, b) for a, b in zip(fused, plain))
    assert not all(np.array_equal(a, b) for a, b in zip(fused, initial))


def test_whole_objective_gradient_check():
    """Finite differences of frame + video + contrastive loss, the objective a
    training step minimises, against backward, over every model parameter.
    At the model's width, 32, with its 8 object queries, 4 video queries and
    3 HMP blocks, the parameters hold 49,890 entries; 14 of each (all of a
    smaller one), 1,080 in all, are checked."""
    _, model = small_model(seed=13)
    scene = small_scene(seed=14, frames=4)
    expr = next(e for e in scene.expressions if e.target_ids)
    rng = np.random.default_rng(15)
    positive, negatives = rng.normal(size=FEATURE_CHANNELS), rng.normal(size=(3, FEATURE_CHANNELS))

    def objective():
        out = model.forward(scene.features, expr)
        matched = video_loss(out, scene.target_masks(expr))
        rows = take(out.video.tokens, np.array([m[0] for m in matched.matches]), axis=0)
        anchor = model.projector.project(rows.mean(axis=0))
        return (frame_loss(out, scene.masks) + matched.loss
                + LAMBDA_CONTRASTIVE * contrastive_loss(anchor, positive, negatives))

    assert grad_check(model.params, objective, entries=14) < 1e-7


def test_set_loss_leaves_its_inputs_alone():
    """The set-loss node's forward and backward write into none of their
    inputs: `Tensor.backward` may hand the incoming gradient `g` on to an
    operand by reference."""
    rng = np.random.default_rng(16)
    inputs = (rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4)),
              (rng.random((3, 2, 6)) > 0.5).astype(float), np.array(0.75))
    masks, scores, gt, g = (a.copy() for a in inputs)
    loss, _ = _set_loss(Parameter("m", masks), Parameter("c", scores), gt)
    d_class, d_mask = loss._backward(g, (True, True))
    assert d_class.shape == scores.shape and d_mask.shape == masks.shape
    assert all(np.array_equal(a, b) for a, b in zip((masks, scores, gt, g), inputs))
