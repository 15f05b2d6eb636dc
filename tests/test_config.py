import re

import pytest

from motionscope.config import TrainConfig


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")),   # any non-finite float field
    ("tau", float("inf")),
    ("max_grad_norm", float("nan")),  # nan > 0 is false, so clipping would turn off
    ("learning_rate", -0.1),           # learning_rate <= 0
    ("learning_rate", 0.0),
    ("momentum", 2.0),                 # momentum outside [0, 1)
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("lambda_cls", -1.0),              # negative loss weights
    ("lambda_mask", -1.0),
    ("lambda_dice", -5.0),
    ("lambda_contrastive", -0.5),
])
def test_validate_rejects_bad_optimizer_and_loss_values(field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [("momentum", 0.0), ("lambda_cls", 0.0),
                                         ("lambda_contrastive", 0.0), ("max_grad_norm", 0.0)])
def test_validate_accepts_boundary_values(field, value):
    TrainConfig(**{field: value}).validate()
