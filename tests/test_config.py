import re

import pytest

from motionscope.config import TrainConfig


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")),   # non-finite
    ("learning_rate", float("inf")),
    ("learning_rate", -0.1),           # learning_rate <= 0
    ("learning_rate", 0.0),
])
def test_validate_rejects_bad_optimizer_and_loss_values(field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [("n_negatives", 0), ("learning_rate", 5e-324)])
def test_validate_accepts_boundary_values(field, value):
    TrainConfig(**{field: value}).validate()
