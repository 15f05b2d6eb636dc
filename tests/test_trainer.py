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
from motionscope.perceiver import MaskFeatures
from motionscope.tensor import Tensor
from motionscope.trainer import Trainer


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


@pytest.mark.parametrize("scene_config,split", [(BenchmarkConfig(height=32, width=32), "train"),
                                                 (BenchmarkConfig(channels=16), "val"),
                                                 (BenchmarkConfig(height=32, width=32), "evaluate")],
                         ids=["grid-train", "channels-val", "grid-evaluate"])
def test_scene_config_mismatch_names_seed_and_shapes(scene_config, split):
    scene = generate(4, scene_config)
    splits = {"train": ([scene], []), "val": ([], [scene]), "evaluate": ([], [])}[split]
    expected = re.escape(f"scene 4 has {scene.features.shape[1:]}") + ".*" + re.escape("(16, 16, 32)")
    with pytest.raises(ValueError, match=expected):
        Trainer(TrainConfig(), *splits).evaluate([scene])


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
# scene 0's first expression has one target, scene 5's has two
SCORING_CASES = {
    "more-predictions": (0, [0, 2], [2], 0.5, 0.0),
    "fewer-predictions": (5, [1], [3, 1], 0.5, 0.0),
    "one-to-one": (5, [1, 3], [3, 1], 1.0, 1.0),
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
    probs = np.zeros((trainer.cfg.n_motion_queries,) + gt.shape[1:])
    for target, query in enumerate(copies):
        probs[query] = gt[target]
    monkeypatch.setattr(trainer_module, "predict_video_masks",
                        lambda video, mask_features, threshold: (Tensor(probs), np.array(selected)))
    metrics = trainer.evaluate()
    assert (metrics.j, metrics.f, metrics.ident_acc) == (expected, expected, ident)
    tokens = trainer.model.forward(scene.features, expr).video.tokens.data
    for target, query in enumerate(copies):
        key = (scene.seed, expr.target_ids[target])
        assert np.array_equal(metrics.token_groups[key][0], tokens[query])


def test_only_the_final_evaluation_is_projected(monkeypatch):
    """`evaluate` keeps raw tokens and runs no projector; `run` projects the
    final evaluation's tokens once each, for the separation margin."""
    calls = []
    project = ContrastiveProjector.project

    def counted(self, token):
        calls.append(token.shape)
        return project(self, token)

    monkeypatch.setattr(ContrastiveProjector, "project", counted)
    scene = generate(5)
    trainer = Trainer(TrainConfig(steps=2, eval_every=1, contrastive_enabled=False),
                      [scene], [scene])
    trainer.evaluate()
    assert calls == []
    result = trainer.run()
    n_tokens = sum(len(v) for v in result.final.token_groups.values())
    assert calls == [(trainer.cfg.channels,)] * n_tokens and n_tokens > 0


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
    trainer = Trainer(TrainConfig(warmup_frac=0.0), scenes, scenes)
    for step, (si, ei) in enumerate(trainer.pairs):
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
