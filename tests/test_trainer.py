import dataclasses
import signal
from contextlib import contextmanager

import pytest

from motionscope.benchmark import generate
from motionscope.config import TrainConfig
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


@pytest.mark.parametrize("scenes", [[], [speechless(2)]], ids=["no-scenes", "no-expressions"])
def test_evaluate_without_expressions_raises(scenes):
    trainer = Trainer(TrainConfig(), [], [])
    with pytest.raises(ValueError, match="expression"):
        trainer.evaluate(scenes)
