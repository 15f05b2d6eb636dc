"""Tier-2 learning checks: training learns the task, not just runs.  Both are
slow-marked, so the Tier-1 run deselects them; `pytest -m slow` runs them.

The held-out floors were set once, about 10% below the values measured when
the check was added (J&F 0.2704, `ident_acc` 0.0394), rounded down to 0.01.
They are never lowered."""

import math

import pytest

from motionscope.benchmark import BenchmarkConfig, generate
from motionscope.config import TrainConfig
from motionscope.trainer import Trainer

JF_FLOOR = 0.24
IDENT_FLOOR = 0.03


@pytest.mark.slow
def test_one_scene_overfits():
    """Scene 7 as the only training and validation scene reaches J&F 1.0 and
    identifies every target within 100 steps."""
    scene = generate(7)
    cfg = TrainConfig(learning_rate=0.01, steps=100, eval_every=100, seed=0)
    final = Trainer(cfg, [scene], [scene]).run().final
    assert (final.jf, final.ident_acc) == (1.0, 1.0)


@pytest.mark.slow
def test_full_model_clears_held_out_floors():
    """120 training scenes, 1500 steps, then 100 validation scenes plus 10
    probe scenes, so that `probe_acc` is a number."""
    train = [generate(seed) for seed in range(120)]
    val = ([generate(seed) for seed in range(1000, 1100)]
           + [generate(seed, BenchmarkConfig(probe=True)) for seed in range(2000, 2010)])
    cfg = TrainConfig(learning_rate=0.01, steps=1500, eval_every=1500, seed=0)
    final = Trainer(cfg, train, val).run().final
    assert not math.isnan(final.probe_acc)
    assert final.jf >= JF_FLOOR and final.ident_acc >= IDENT_FLOOR, final.scores()
