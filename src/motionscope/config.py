"""Run configuration: the model's shape, the schedule, the data paths and the
ablation switches, serializable to/from JSON.  The training recipe is fixed
by constants beside the code that reads them."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass, fields

QUERY_VARIANTS = ("ds", "sentence_only", "ds_no_sentence", "ds_no_query")
# the Python values each annotated field type accepts; bool is an int subclass,
# so it is excluded from the number types
ACCEPTED_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}
WARMUP_FRAC = 0.2  # share of the steps before the contrastive term switches on


def check_field_types(obj) -> None:
    """ValueError naming the field when a field of the dataclass instance
    `obj` holds a value that its annotated type does not accept."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if (not isinstance(value, ACCEPTED_TYPES[f.type])
                or (f.type != "bool" and isinstance(value, bool))):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


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
    channels: int = 32  # also the width of the scene features the model reads
    grid_height: int = 16
    grid_width: int = 16
    # schedule
    learning_rate: float = 0.05
    steps: int = 2000
    seed: int = 0
    eval_every: int = 500
    # component switches and variants
    hmp_stages: int = 3  # 0 turns the hierarchical branch (HMP) off
    n_negatives: int = 100  # 0 turns the memory bank and contrastive term off
    query_variant: str = "ds"  # "sentence_only" turns cue decoupling off
    # data locations (used by the CLI)
    train_dir: str = ""
    val_dir: str = ""

    def validate(self) -> None:
        check_field_types(self)
        if self.query_variant not in QUERY_VARIANTS:
            raise ValueError(f"query_variant must be one of {QUERY_VARIANTS}")
        for name in ("channels", "grid_height", "grid_width", "steps", "eval_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("hmp_stages", "n_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")

    @property
    def warmup_steps(self) -> int:
        return int(round(WARMUP_FRAC * self.steps))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        data = json_object(read_json(path), path)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path} holds unknown config keys {unknown}; keys of an earlier "
                             f"version are no longer read: the training recipe, such as loss "
                             f"weights and tau, is fixed in the code, trajectories are "
                             f"always linked, the model reads scene features at its own "
                             f"width, channels, and its query counts and HMP depth are fixed "
                             f"in the code")
        cfg = cls(**data)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cfg

    def replace(self, **overrides) -> "TrainConfig":
        cfg = dataclasses.replace(self, **overrides)
        cfg.validate()
        return cfg

    def canonical_key(self) -> str:
        """Every field as one JSON object with sorted keys, which identifies a
        run's config (the benchmark records its SHA-256)."""
        return json.dumps(asdict(self), sort_keys=True)
