"""In-memory span tracing of motionscope's layers, from outside the package.

Each public function is wrapped at every module that imports it by name, and
each method on its class, so a call is recorded whichever import path it takes.
Spans are kept in flat lists while the benchmark runs and reduced to per-layer
self times and call counts at the end.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from motionscope import bank, benchmark, decoder, hmp, language, losses, matching, model
from motionscope import perceiver, tensor, trainer

ROOT = "op"  # the benchmark's own span around one operation

# (span name, every (owner, attribute) that holds the callable).  Callers that
# import a function by name hold their own reference, so each such module is a
# site; `Trainer.evaluate`'s `_score_scene` reaches hungarian through `trainer`.
SITES: list[tuple[str, list[tuple[object, str]]]] = [
    ("language.decouple", [(language, "decouple"), (model, "decouple")]),
    ("model.build_queries", [(model.MotionSegModel, "build_queries")]),
    ("model.forward", [(model.MotionSegModel, "forward")]),
    ("perceiver.perceive", [(perceiver.StaticPerceiver, "perceive")]),
    ("perceiver.frame_mask_logits",
     [(perceiver, "frame_mask_logits"), (model, "frame_mask_logits")]),
    ("matching.link", [(matching, "link"), (model, "link")]),
    ("matching.hungarian",
     [(matching, "hungarian"), (losses, "hungarian"), (trainer, "hungarian")]),
    ("hmp.forward", [(hmp.HmpStack, "forward")]),
    ("decoder.decode", [(decoder.MotionDecoder, "decode")]),
    ("decoder.video_mask_logits",
     [(decoder, "video_mask_logits"), (model, "video_mask_logits")]),
    ("decoder.predict_video_masks",
     [(decoder, "predict_video_masks"), (trainer, "predict_video_masks")]),
    ("losses.frame_loss", [(losses, "frame_loss"), (trainer, "frame_loss")]),
    ("losses.video_loss", [(losses, "video_loss"), (trainer, "video_loss")]),
    ("tensor.backward", [(tensor.Tensor, "backward")]),
    ("trainer.train_step", [(trainer.Trainer, "train_step")]),
    ("trainer.evaluate", [(trainer.Trainer, "evaluate")]),
    ("bank.project", [(bank.ContrastiveProjector, "project")]),
    ("bank.update", [(bank.MemoryBank, "update")]),
    ("bank.sample_negatives", [(bank.MemoryBank, "sample_negatives")]),
    ("bank.contrastive_loss", [(bank, "contrastive_loss"), (trainer, "contrastive_loss")]),
    ("benchmark.metric_j", [(benchmark, "metric_j"), (trainer, "metric_j")]),
    ("benchmark.metric_f", [(benchmark, "metric_f"), (trainer, "metric_f")]),
    ("benchmark.video_iou", [(benchmark, "video_iou"), (trainer, "video_iou")]),
    ("benchmark.generate", [(benchmark, "generate")]),
    ("benchmark.save_scene", [(benchmark, "save_scene")]),
    ("benchmark.load_scene", [(benchmark, "load_scene")]),
]
LAYERS = [name for name, _ in SITES]
SETUP_LAYERS = ("benchmark.generate", "benchmark.save_scene", "benchmark.load_scene")

# counts taken from a layer's return value: (counter name, size of the result)
COUNTERS = {
    "decoder.predict_video_masks": ("decoder.predict_video_masks.selected",
                                    lambda result: len(result[1])),
    "bank.sample_negatives": ("bank.sample_negatives.drawn", len),
}


class Recorder:
    """Spans of one phase (set-up or timed operations), as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []  # operation id shared by the spans of one op
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def open_op(self, op: int) -> int:
        """Open the root span of operation `op`."""
        self.op = op
        return self.open(ROOT)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        intervals = sorted((max(starts[c], start), min(ends[c], end)) for c in children[index])
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs the span wrappers; spans go to `recorder` while one is set."""

    def __init__(self):
        self.recorder: Recorder | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.recorder
            if rec is None:
                return fn(*args, **kwargs)
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if counter is not None:
                rec.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, sites in SITES:
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(ops: Recorder, setup: Recorder, n_setups: int) -> dict[str, float]:
    """Per-layer self time (ms) and calls per op, and per set-up for the
    scene IO layers; `trace.untraced_ms` is the self time of the root span."""
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for rec in (ops, setup):
        for name, own in zip(rec.names, self_times(rec.starts, rec.ends, rec.parents)):
            totals[name] += own
            calls[name] += 1
    n_ops = max(calls[ROOT], 1)
    out: dict[str, float] = {}
    for name in LAYERS:
        per = max(n_setups, 1) if name in SETUP_LAYERS else n_ops
        out[f"{name}.self_ms"] = 1000.0 * totals[name] / per
        out[f"{name}.calls"] = calls[name] / per
    out["trace.untraced_ms"] = 1000.0 * totals[ROOT] / n_ops
    out["trace.op_ms"] = 1000.0 * sum(
        e - s for n, s, e in zip(ops.names, ops.starts, ops.ends) if n == ROOT) / n_ops
    active = {op for name, op in zip(ops.names, ops.ops) if name == "bank.contrastive_loss"}
    out["bank.contrastive_loss.active_share"] = len(active) / n_ops
    for layer, (counter, _) in COUNTERS.items():
        out[counter] = ops.counts[counter] / max(calls[layer], 1)
    return out
