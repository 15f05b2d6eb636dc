"""The benchmark's workloads: which scenes they generate from a seed, how they
are set up through the scene files, and what one operation is.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from motionscope import benchmark as msb
from motionscope.benchmark import BenchmarkConfig, Scene
from motionscope.config import TrainConfig
from motionscope.trainer import Trainer

SCENE_SEED_STRIDE = 10_000  # scene seeds of workload seed s are s * stride + index
WARMUP_OPS = 16  # untimed ops that fill caches and the memory bank first
CHECK_STEPS = 64  # parameters are hashed after exactly this many training steps


@dataclass(frozen=True)
class SceneSet:
    config: BenchmarkConfig
    count: int
    offset: int  # index offset, keeps the sets' scene seeds apart


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool  # an op is a training step; otherwise one evaluated expression
    train_config: TrainConfig
    scene_sets: tuple[SceneSet, ...]


HIRES = BenchmarkConfig(height=32, width=32)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train",
            train=True,
            train_config=TrainConfig(),
            scene_sets=(SceneSet(BenchmarkConfig(), 40, 0),),
        ),
        Workload(
            name="train_hires",
            train=True,
            train_config=TrainConfig(grid_height=HIRES.height, grid_width=HIRES.width),
            scene_sets=(SceneSet(HIRES, 40, 0),),
        ),
        Workload(
            name="eval",
            train=False,
            train_config=TrainConfig(),
            scene_sets=(SceneSet(BenchmarkConfig(), 30, 0),
                        SceneSet(BenchmarkConfig(probe=True), 10, 5_000)),
        ),
    )
}


def scene_plan(workload: Workload, seed: int) -> list[tuple[int, BenchmarkConfig]]:
    """(scene seed, scene config) of every scene a workload seed generates."""
    if seed < 0:
        raise ValueError(f"workload seed must be non-negative, got {seed}")
    return [
        (seed * SCENE_SEED_STRIDE + part.offset + index, part.config)
        for part in workload.scene_sets
        for index in range(part.count)
    ]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_config_hash(workload: Workload) -> str:
    fields = [dataclasses.asdict(part.config) for part in workload.scene_sets]
    return sha256_text(json.dumps(fields, sort_keys=True))


def params_hash(trainer: Trainer) -> str:
    digest = hashlib.sha256()
    for p in trainer.model.params:
        digest.update(p.name.encode("utf-8"))
        digest.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return digest.hexdigest()


def same_scene(a: Scene, b: Scene) -> bool:
    return (a.seed == b.seed and a.probe == b.probe and a.config == b.config
            and a.objects == b.objects and a.expressions == b.expressions
            and np.array_equal(a.features, b.features) and np.array_equal(a.masks, b.masks))


def setup(workload: Workload, seed: int, directory: Path) -> tuple[Trainer, float, bool]:
    """Generate the scenes, write them with `save_scene`, read them back with
    `load_dataset` and build the `Trainer`, as the command line does.  Returns
    the trainer, the seconds this took and whether every scene read back
    equal to the one generated (checked outside the timed part)."""
    start = time.perf_counter()
    generated = [msb.generate(s, cfg) for s, cfg in scene_plan(workload, seed)]
    for scene in generated:
        msb.save_scene(scene, directory)
    loaded = msb.load_dataset(directory)
    if workload.train:
        trainer = Trainer(workload.train_config, loaded, [])
    else:
        trainer = Trainer(workload.train_config, [], loaded)
    elapsed = time.perf_counter() - start
    by_seed = {scene.seed: scene for scene in generated}
    intact = len(loaded) == len(generated) and all(
        scene.seed in by_seed and same_scene(by_seed[scene.seed], scene) for scene in loaded)
    return trainer, elapsed, intact


class TrainOps:
    """Training steps in the trainer's own pair order: each epoch is a fresh
    permutation of its (scene, expression) pairs drawn from `order_rng`.
    Steps are numbered from the contrastive warm-up on, so the contrastive
    term is live from the first step the bank can supply negatives."""

    def __init__(self, trainer: Trainer):
        self.trainer = trainer
        self.order: list[tuple[int, int]] = []
        self.done = 0

    def __call__(self) -> dict:
        trainer = self.trainer
        if self.done == len(self.order):
            self.order.extend(trainer.pairs[i]
                              for i in trainer.order_rng.permutation(len(trainer.pairs)))
        si, ei = self.order[self.done]
        scene = trainer.train_scenes[si]
        step = trainer.cfg.warmup_steps + self.done
        self.done += 1
        return trainer.train_step(scene, scene.expressions[ei], step)

    @staticmethod
    def valid(parts: dict) -> bool:
        return all(math.isfinite(v) for v in parts.values())


class EvalOps:
    """One expression at a time through `Trainer.evaluate`, each scene's
    expressions back to back, cycling over the held-out and probe scenes."""

    def __init__(self, trainer: Trainer):
        self.trainer = trainer
        self.views = [dataclasses.replace(scene, expressions=[expr])
                      for scene in trainer.val_scenes for expr in scene.expressions]
        self.done = 0
        self.first_pass: dict[int, tuple[float, ...]] = {}  # view index -> first result
        self.repeats_match = True  # later passes give the first pass's results

    def __call__(self) -> tuple[float, ...]:
        index = self.done % len(self.views)
        self.done += 1
        m = self.trainer.evaluate([self.views[index]])
        result = (m.j, m.f, m.ident_acc, m.probe_acc)
        if index not in self.first_pass:
            self.first_pass[index] = result
        elif repr(result) != repr(self.first_pass[index]):
            self.repeats_match = False
        return result

    @property
    def pass_complete(self) -> bool:
        return len(self.first_pass) == len(self.views)

    def results_hash(self) -> str:
        ordered = [self.first_pass[i] for i in range(len(self.views))]
        return sha256_text(json.dumps([[x.hex() for x in r] for r in ordered]))

    @staticmethod
    def valid(result: tuple[float, ...]) -> bool:
        return all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in result[:3])
