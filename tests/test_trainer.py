import dataclasses
import re
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from motionscope import trainer as trainer_module
from motionscope.bank import ContrastiveProjector
from motionscope.benchmark import BenchmarkConfig, generate
from motionscope.config import TrainConfig
from motionscope.model import N_MOTION_QUERIES
from motionscope.perceiver import MaskFeatures
from motionscope.tensor import Tensor
from motionscope.trainer import (AXES, EvalMetrics, ExpressionRecord, Trainer, TrainingDiverged,
                                 axis_variants, separation_margin)


@contextmanager
def deadline(seconds: int):
    """Fail instead of hanging when the body runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def speechless(seed: int):
    """A generated scene with its expressions removed."""
    return dataclasses.replace(generate(seed), expressions=[])


def test_run_without_training_expressions_raises():
    trainer = Trainer(TrainConfig(steps=4, eval_every=2), [speechless(0)], [generate(1)])
    with deadline(20), pytest.raises(ValueError, match="training"):
        trainer.run()


def test_overflowing_run_raises_training_diverged():
    """Clipping bounds each step's gradient, not the learning rate's reach:
    at this rate step 6 ends with finite parameters near 4e10 and a finite
    loss; step 7's forward is then non-finite, and the matchers meet it
    before any loss does."""
    trainer = Trainer(TrainConfig(learning_rate=1e10, steps=200, eval_every=100),
                      [generate(s) for s in range(8)], [generate(1000)])
    # overflow and invalid arithmetic are what a diverging run looks like
    with deadline(60), np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        trainer.run()
    assert info.value.step == 7


@pytest.mark.parametrize("scene_config,split", [(BenchmarkConfig(height=32, width=32), "train"),
                                                 (BenchmarkConfig(channels=16), "train"),
                                                 (BenchmarkConfig(channels=16), "val"),
                                                 (BenchmarkConfig(height=32, width=32), "evaluate"),
                                                 (BenchmarkConfig(channels=48), "evaluate")],
                         ids=["grid-train", "channels-train", "channels-val", "grid-evaluate",
                              "channels-evaluate"])
def test_scene_config_mismatch_names_seed_and_shapes(scene_config, split):
    scene = generate(4, scene_config)
    splits = {"train": ([scene], []), "val": ([], [scene]), "evaluate": ([], [])}[split]
    expected = re.escape(f"scene 4 has {scene.features.shape[1:]}") + ".*" + re.escape("(16, 16, 32)")
    with pytest.raises(ValueError, match=expected):
        Trainer(TrainConfig(), *splits).evaluate([scene])


@pytest.mark.parametrize("split", ["train", "val", "evaluate"])
def test_stage_count_the_frames_do_not_allow_names_seed_frames_and_stages(split):
    """Three HMP stages merge 8 frames into a token, which 12 frames cannot
    fill: the trainer refuses such a scene when it is built or evaluates it,
    not in its first forward."""
    scene = generate(4, BenchmarkConfig(frames=12))
    splits = {"train": ([scene], []), "val": ([], [scene]), "evaluate": ([], [])}[split]
    with pytest.raises(ValueError, match=re.escape("scene 4 has 12 frames, but hmp_stages=3")):
        Trainer(TrainConfig(hmp_stages=3), *splits).evaluate([scene])


@pytest.mark.parametrize("scenes", [[], [speechless(2)]], ids=["no-scenes", "no-expressions"])
def test_evaluate_without_expressions_raises(scenes):
    trainer = Trainer(TrainConfig(), [], [])
    with pytest.raises(ValueError, match="expression"):
        trainer.evaluate(scenes)


@pytest.mark.parametrize("val_scenes", [[], [speechless(3)]], ids=["no-scenes", "no-expressions"])
def test_run_without_validation_expressions_raises_before_training(val_scenes):
    trainer = Trainer(TrainConfig(steps=4, eval_every=2), [generate(0)], val_scenes)
    before = [p.data.copy() for p in trainer.model.params]
    with deadline(20), pytest.raises(ValueError, match="evaluation"):
        trainer.run()
    assert all(np.array_equal(a, p.data) for a, p in zip(before, trainer.model.params))


# (scene seed, selected queries, query copying each target, expected J = F, ident)
# scene 0's first expression has one target, scene 5's has two, and the first
# expressions of scenes 24 and 35 have none
SCORING_CASES = {
    "more-predictions": (0, [0, 2], [2], 0.5, 0.0),
    "fewer-predictions": (5, [1], [3, 1], 0.5, 0.0),
    "one-to-one": (5, [1, 3], [3, 1], 1.0, 1.0),
    "no-target-nothing-selected": (24, [], [], 1.0, 1.0),
    "no-target-one-selected": (35, [0], [], 0.0, 0.0),
}


@pytest.mark.parametrize("case", SCORING_CASES.values(), ids=SCORING_CASES.keys())
def test_evaluate_scores_unmatched_predictions_and_targets_zero(monkeypatch, case):
    """Forged masks: a selected query either copies a target or is empty.  An
    unmatched prediction or target scores 0, and each target's token comes
    from the query that copies it, selected or not."""
    seed, selected, copies, expected, ident = case
    scene = generate(seed)
    expr = scene.expressions[0]
    scene = dataclasses.replace(scene, expressions=[expr])
    trainer = Trainer(TrainConfig(), [], [scene])
    gt = scene.target_masks(expr)
    masks = np.zeros((N_MOTION_QUERIES,) + gt.shape[1:], dtype=bool)
    for target, query in enumerate(copies):
        masks[query] = gt[target]
    selected = np.array(selected, dtype=np.intp)
    monkeypatch.setattr(trainer_module, "predict_video_masks",
                        lambda video, mask_features: (masks, selected))
    metrics = trainer.evaluate()
    assert len(copies) == len(expr.target_ids)
    assert (metrics.j, metrics.f, metrics.ident_acc) == (expected, expected, ident)
    [record] = metrics.records
    assert (record.seed, record.j, record.f, record.ident) == (seed, expected, expected, ident)
    tokens = trainer.model.forward(scene.features, expr).video.tokens.data
    assert [obj_idx for obj_idx, _ in record.target_tokens] == expr.target_ids
    for (_, token), query in zip(record.target_tokens, copies):
        assert np.array_equal(token, tokens[query])


def record(seed, probe, j, ident, *target_tokens):
    return ExpressionRecord(seed, probe, j, j / 2, ident, tuple(target_tokens))


def test_scores_are_means_over_the_records():
    metrics = EvalMetrics.of([record(1, False, 0.5, True), record(2, True, 0.25, False),
                              record(2, True, 1.0, True)])
    assert metrics.scores() == {"j": 1.75 / 3, "f": 0.875 / 3, "jf": (1.75 / 3 + 0.875 / 3) / 2,
                                "ident_acc": 2 / 3, "probe_acc": 0.5}
    assert np.isnan(EvalMetrics.of([record(1, False, 0.5, True)]).probe_acc)


def test_separation_margin_groups_tokens_by_scene_and_object():
    """Tokens group by (scene seed, object index) across records, so object 0
    of scene 1 and object 0 of scene 2 are different objects."""
    e = np.eye(3)
    records = [record(1, False, 0.0, False, (0, e[0]), (1, e[1])),
               record(1, False, 0.0, False, (0, e[0])),
               record(2, False, 0.0, False, (0, (e[0] + e[2]) / np.sqrt(2)))]
    projected = []

    def project(token):
        projected.append(token.data)
        return token

    # intra: the one pair of scene 1's object 0, cosine 1; inter: e0 and e1
    # twice, e0 and (e0 + e2)/sqrt 2 twice, e1 and (e0 + e2)/sqrt 2 once
    margin = separation_margin(records, project)
    assert margin == pytest.approx(1.0 - 2 * np.sqrt(0.5) / 5, abs=1e-15)
    assert len(projected) == 4
    with pytest.raises(ValueError, match="separation margin"):
        separation_margin(records[1:], project)


def test_only_the_final_evaluation_is_projected(monkeypatch):
    """`evaluate` keeps raw tokens and runs no projector; `run` projects the
    final evaluation's tokens once each, for the separation margin.  With
    `n_negatives` 0, training leaves the bank empty and the projector as
    initialised."""
    calls = []
    project = ContrastiveProjector.project

    def counted(self, token):
        calls.append(token.shape)
        return project(self, token)

    monkeypatch.setattr(ContrastiveProjector, "project", counted)
    scene = generate(5)
    trainer = Trainer(TrainConfig(steps=2, eval_every=1, n_negatives=0), [scene], [scene])
    initial = [p.data.copy() for p in trainer.model.projector.params]
    trainer.evaluate()
    assert calls == []
    result = trainer.run()
    n_tokens = sum(len(r.target_tokens) for r in result.final.records)
    assert calls == [(trainer.cfg.channels,)] * n_tokens and n_tokens > 0
    assert not trainer.bank.initialized.any() and trainer.bank.snapshot() == []
    assert all(np.array_equal(p.data, q) for p, q in zip(trainer.model.projector.params, initial))


def test_every_node_backward_runs_once_per_pass(monkeypatch):
    """Every node of a full training loss (frame, video and contrastive terms)
    has its backward called exactly once by the step's backward pass."""
    calls: dict[int, int] = {}
    backward = Tensor.backward

    def counted(self):
        stack = [self]
        while stack:
            t = stack.pop()
            if id(t) in calls or not t._parents:
                continue
            calls[id(t)] = 0

            def once(g, needs, inner=t._backward, key=id(t)):
                calls[key] += 1
                return inner(g, needs)

            t._backward = once
            stack.extend(t._parents)
        backward(self)

    monkeypatch.setattr(Tensor, "backward", counted)
    scenes = [generate(seed) for seed in range(3)]
    trainer = Trainer(TrainConfig(), scenes, scenes)
    for step, (si, ei) in enumerate(trainer.pairs, start=trainer.cfg.warmup_steps):
        calls.clear()
        parts = trainer.train_step(scenes[si], scenes[si].expressions[ei], step)
        if parts["contrastive"] != 0.0:
            break
    assert parts["contrastive"] != 0.0
    assert len(calls) > 85 and set(calls.values()) == {1}


def test_mask_logits_are_built_only_where_read(monkeypatch):
    """Evaluation builds one set of mask logits per expression (the video
    masks it scores); a training step builds the frame and the video logits
    once each."""
    calls = []
    logits = MaskFeatures.logits

    def counted(self, tokens):
        calls.append(tokens.shape)
        return logits(self, tokens)

    monkeypatch.setattr(MaskFeatures, "logits", counted)
    scene = generate(5)
    trainer = Trainer(TrainConfig(), [scene], [scene])
    trainer.evaluate()
    assert len(calls) == len(scene.expressions) > 1
    calls.clear()
    trainer.train_step(scene, scene.expressions[0], 0)
    assert len(calls) == 2


@pytest.mark.parametrize("hmp_stages", [3, 0], ids=["default", "no-hmp"])
def test_parameters_no_op_reads_keep_their_values(hmp_stages):
    """No op reads an attention block's `attn.bk`, and with no HMP stage none
    reads `hier.*`: across training steps those parameters get no gradient,
    their velocity stays zero and their values stay as initialized."""
    scene = generate(0)
    trainer = Trainer(TrainConfig(hmp_stages=hmp_stages), [scene], [])
    params = trainer.model.params
    initial = {p.name: p.data.copy() for p in params}
    unread = [p for p in params
              if p.name.endswith(".attn.bk") or (hmp_stages == 0 and ".hier." in p.name)]
    # a bk in the perceiver, the decoder and each of the 3 HMP blocks, plus
    # the 3 blocks' hier.wo and hier.bo with no stage
    assert len(unread) == 5 + (0 if hmp_stages else 6)
    for step in range(3):
        trainer.train_step(scene, scene.expressions[step % len(scene.expressions)], step)
        for p in unread:
            assert p.grad is None
            assert np.array_equal(p.data, initial[p.name])
            assert not trainer.velocity[p.name].any()
    assert all(not p.data.any() for p in unread if p.name.endswith(".attn.bk"))
    assert any(not np.array_equal(p.data, initial[p.name]) for p in params)


@pytest.mark.parametrize("axis", AXES)
def test_every_ablation_axis_has_distinct_valid_variants(axis):
    variants = axis_variants(TrainConfig(), axis)
    labels = [label for label, _ in variants]
    assert len(variants) > 1 and len(set(labels)) == len(labels)
    for _, cfg in variants:
        cfg.validate()


def test_unknown_ablation_axis_rejected():
    with pytest.raises(ValueError, match="'hungarian'"):
        axis_variants(TrainConfig(), "hungarian")
