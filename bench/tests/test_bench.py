import json
from pathlib import Path

import numpy as np
import pytest

import spans
from compare import verdict
from motionscope import benchmark as msb
from motionscope.trainer import Trainer
from workloads import WORKLOADS, EvalOps, TrainOps, params_hash, scene_plan

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def first_targeted(workload_name: str):
    cfg = WORKLOADS[workload_name].scene_sets[0].config
    for seed in range(50):
        scene = msb.generate(seed, cfg)
        for expr in scene.expressions:
            if expr.target_ids:
                return scene, expr
    raise AssertionError("no scene with a targeted expression")


def traced(fn):
    recorder = spans.Recorder()
    with spans.Tracer() as tracer:
        tracer.recorder = recorder
        root = recorder.open_op(0)
        fn()
        recorder.close(root)
    return recorder


def test_traced_train_step_sees_every_hungarian_call():
    scene, expr = first_targeted("train")
    trainer = Trainer(WORKLOADS["train"].train_config, [scene], [])
    recorder = traced(lambda: trainer.train_step(scene, expr, 0))
    t = scene.config.frames
    # link, then frame matching per frame, then video matching
    assert recorder.names.count("matching.hungarian") == (t - 1) + t + 1
    assert recorder.names.count("matching.link") == 1


def test_traced_eval_op_records_no_training_layers():
    scene, expr = first_targeted("train")
    trainer = Trainer(WORKLOADS["eval"].train_config, [], [scene])
    recorder = traced(EvalOps(trainer))
    for layer in ("losses.frame_loss", "losses.video_loss", "tensor.backward", "bank.update"):
        assert layer not in recorder.names
    assert recorder.names.count("trainer.evaluate") == 1


def test_tracer_restores_every_site():
    before = [getattr(owner, attr) for _, sites in spans.SITES for owner, attr in sites]
    with spans.Tracer():
        pass
    after = [getattr(owner, attr) for _, sites in spans.SITES for owner, attr in sites]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and [9, 12]
    # (clipped to the root); [1, 4] has a child [2, 3]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_layer_metrics_are_per_op():
    rec = spans.Recorder()
    for op in range(2):
        root = rec.open_op(op)
        inner = rec.open("matching.hungarian")
        rec.close(inner)
        rec.close(root)
    rec.starts = [0.0, 0.001, 1.0, 1.001]
    rec.ends = [0.004, 0.002, 1.006, 1.003]
    out = spans.layer_metrics(rec, spans.Recorder(), 1)
    assert out["matching.hungarian.calls"] == 1.0
    assert out["matching.hungarian.self_ms"] == pytest.approx(1.5)
    assert out["trace.untraced_ms"] == pytest.approx(3.5)
    assert out["trace.op_ms"] == pytest.approx(5.0)


def test_tracing_leaves_parameters_bit_identical():
    workload = WORKLOADS["train"]
    scenes = [msb.generate(seed) for seed in range(3)]

    def trained(trace: bool) -> str:
        trainer = Trainer(workload.train_config, scenes, [])
        ops = TrainOps(trainer)
        if trace:
            traced(lambda: [ops() for _ in range(4)])
        else:
            for _ in range(4):
                ops()
        return params_hash(trainer)

    assert trained(trace=True) == trained(trace=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_deterministic(name):
    workload = WORKLOADS[name]
    plan = scene_plan(workload, 3)
    assert plan == scene_plan(workload, 3)
    assert len({seed for seed, _ in plan}) == len(plan)
    assert not {s for s, _ in plan} & {s for s, _ in scene_plan(workload, 4)}
    seed, cfg = plan[-1]
    a, b = msb.generate(seed, cfg), msb.generate(seed, cfg)
    assert np.array_equal(a.features, b.features) and a.expressions == b.expressions


def test_spec_lists_every_workload_and_layer():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.self_ms", f"{layer}.calls"} <= names


@pytest.mark.parametrize("base, head, better, expected", [
    ([10.0] * 10, [12.0] * 10, "higher", "improved"),
    ([10.0] * 3, [12.0] * 3, "higher", "no worse"),
    ([10.0] * 10, [8.5] * 10, "higher", "worse"),
    ([10.0] * 10, [9.5] * 10, "higher", "no worse"),
    ([5.0, 15.0] * 5, [9.0, 11.0] * 5, "lower", "unresolved"),
    ([10.0, 11.0] * 5, [10.5, 10.0] * 5, "lower", "no worse"),
])
def test_compare_verdicts(base, head, better, expected):
    assert verdict(base, head, better, 0.1)["verdict"] == expected
