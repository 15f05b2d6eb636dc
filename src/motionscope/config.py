"""Run configuration: architecture sizes, loss weights, schedule and the
ablation switches, serializable to/from JSON."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

QUERY_VARIANTS = ("ds", "sentence_only", "ds_no_sentence", "ds_no_query")
# the Python values each annotated field type accepts; bool is an int subclass,
# so it is excluded from the number types
ACCEPTED_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def read_json(path):
    """The JSON value held by the file `path`.  A file that is not UTF-8
    JSON raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path} is not readable JSON ({err})") from None


def json_object(value, where) -> dict:
    """`value` if it is a JSON object; otherwise ValueError naming `where`."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class TrainConfig:
    # architecture
    channels: int = 32
    img_channels: int = 32
    grid_height: int = 16
    grid_width: int = 16
    n_static_queries: int = 8
    n_motion_queries: int = 4
    hmp_blocks: int = 3
    hmp_stages: int = 3  # 0 turns the hierarchical branch (HMP) off
    # contrastive memory
    n_negatives: int = 100
    ema_beta: float = 0.2
    tau: float = 0.07
    lambda_contrastive: float = 0.5
    warmup_frac: float = 0.2
    # matching loss weights
    lambda_cls: float = 2.0
    lambda_dice: float = 5.0
    lambda_mask: float = 5.0
    # optimization
    learning_rate: float = 0.05
    momentum: float = 0.9
    max_grad_norm: float = 5.0  # 0 disables clipping
    steps: int = 2000
    seed: int = 0
    eval_every: int = 500
    threshold: float = 0.5
    # component switches and variants
    contrastive_enabled: bool = True
    hungarian_enabled: bool = True
    query_variant: str = "ds"  # "sentence_only" turns cue decoupling off
    # data locations (used by the CLI)
    train_dir: str = ""
    val_dir: str = ""

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, ACCEPTED_TYPES[f.type])
                    or (f.type != "bool" and isinstance(value, bool))):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.hmp_blocks < 1:
            raise ValueError(f"hmp_blocks must be >= 1, got {self.hmp_blocks}")
        if self.hmp_stages < 0:
            raise ValueError(f"hmp_stages must be >= 0, got {self.hmp_stages}")
        if self.query_variant not in QUERY_VARIANTS:
            raise ValueError(f"query_variant must be one of {QUERY_VARIANTS}")
        for name in ("channels", "img_channels", "grid_height", "grid_width",
                     "n_static_queries", "n_motion_queries", "steps", "eval_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        for name in ("lambda_cls", "lambda_mask", "lambda_dice", "lambda_contrastive"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.ema_beta <= 1.0:
            raise ValueError("ema_beta must lie in [0, 1]")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError("warmup_frac must lie in [0, 1]")
        if self.n_negatives < 0:
            raise ValueError("n_negatives must be >= 0")
        if self.max_grad_norm < 0:
            raise ValueError("max_grad_norm must be >= 0")

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_frac * self.steps))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        data = json_object(read_json(path), path)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path} holds unknown config keys {unknown}")
        cfg = cls(**data)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cfg

    def replace(self, **overrides) -> "TrainConfig":
        data = asdict(self)
        data.update(overrides)
        cfg = TrainConfig(**data)
        cfg.validate()
        return cfg

    def canonical_key(self) -> str:
        """Every field as one JSON object with sorted keys, which identifies a
        run's config (the benchmark records its SHA-256)."""
        return json.dumps(asdict(self), sort_keys=True)
