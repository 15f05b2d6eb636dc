"""Command-line interface: dataset generation, training, evaluation,
ablation grids and run aggregation."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmark import BenchmarkConfig, generate, load_dataset, save_scene
from .config import TrainConfig, json_object, read_json
from .model import load_model_weights
from .trainer import AXES, SCORES, Trainer, TrainingDiverged, ablate, write_ablation_csv, write_csv


def _seed_range(text: str) -> range:
    """One seed, or `lo..hi` with both ends included; seeds are >= 0."""
    lo, sep, hi = text.partition("..")
    hi = hi if sep else lo
    if not (lo.isdecimal() and hi.isdecimal()) or int(hi) < int(lo):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a seed or a non-empty range lo..hi of seeds >= 0")
    return range(int(lo), int(hi) + 1)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def cmd_gen(args) -> int:
    cfg = BenchmarkConfig(probe=args.probe)
    for seed in args.seeds:
        save_scene(generate(seed, cfg), args.out)
    print(f"wrote {len(args.seeds)} scenes to {args.out}")
    return 0


def _load_splits(args, cfg: TrainConfig, command: str):
    """`cfg` with the directories that `--data`/`--val-data` give in place of
    its own, and the training and validation scenes they hold."""
    cfg = cfg.replace(train_dir=args.data or cfg.train_dir,
                      val_dir=args.val_data or cfg.val_dir)
    if not cfg.train_dir or not cfg.val_dir:
        raise ValueError(f"{command} needs train/val data directories (config or flags)")
    return cfg, load_dataset(cfg.train_dir), load_dataset(cfg.val_dir)


def cmd_train(args) -> int:
    cfg, *splits = _load_splits(args, TrainConfig.from_json(args.config), "training")
    result = Trainer(cfg, *splits).run(out_dir=args.out, quiet=False)
    final = result.final
    print(f"final: J={final.j:.4f} F={final.f:.4f} J&F={final.jf:.4f} "
          f"ident={final.ident_acc:.4f} margin={result.margin:.4f}")
    return 0


def cmd_eval(args) -> int:
    config_path = Path(args.config) if args.config else Path(args.model).parent / "config.json"
    cfg = TrainConfig.from_json(config_path)
    scenes = load_dataset(args.data)
    trainer = Trainer(cfg, train_scenes=[], val_scenes=scenes)
    load_model_weights(trainer.model, args.model)
    metrics = trainer.evaluate()
    print(f"J={metrics.j:.4f} F={metrics.f:.4f} J&F={metrics.jf:.4f} "
          f"ident={metrics.ident_acc:.4f} probe={metrics.probe_acc:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    if args.steps is not None:
        cfg = cfg.replace(steps=args.steps)
    cfg, *splits = _load_splits(args, cfg, "ablation")
    rows = ablate(cfg, args.axis, args.seeds, *splits)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"ablate_{args.axis.replace('-', '_')}.csv"
    write_ablation_csv(rows, path)
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    runs = Path(args.runs)
    rows = []
    for summary in sorted(runs.glob("*/summary.json")):
        data = json_object(read_json(summary), summary)
        data["run"] = summary.parent.name
        rows.append(data)
    if not rows:
        raise ValueError(f"{runs} holds no run summaries (*/summary.json)")
    write_csv(args.csv, ("run", *SCORES, "separation_margin"), rows)
    print(f"wrote {args.csv} ({len(rows)} runs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motionscope",
                                     description="grid-motion referring segmentation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate benchmark scenes")
    p.add_argument("--seeds", required=True, type=_seed_range, help="seed range, e.g. 0..199")
    p.add_argument("--out", required=True)
    p.add_argument("--probe", action="store_true",
                   help="emit long-horizon probe scenes (for the temporal ablation subset)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="training scene directory (overrides config)")
    p.add_argument("--val-data", help="validation scene directory (overrides config)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True, help="model.bin path")
    p.add_argument("--data", required=True, help="scene directory")
    p.add_argument("--config", help="config JSON (default: next to the model)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation axis")
    p.add_argument("--axis", required=True, choices=AXES)
    p.add_argument("--seeds", type=_positive_int, default=5, help="number of run seeds")
    p.add_argument("--config", help="base TrainConfig JSON")
    p.add_argument("--data", help="training scene directory")
    p.add_argument("--val-data", help="validation scene directory")
    p.add_argument("--steps", type=_positive_int, help="override training steps")
    p.add_argument("--out", default="ablations")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("report", help="aggregate run summaries into one CSV")
    p.add_argument("--runs", required=True, help="directory containing run subdirectories")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command.  Bad input, a `ValueError` or an `OSError` that names
    it, and a diverged training run, a `TrainingDiverged` that names its
    step, end the command with that one line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TrainingDiverged) as err:
        print(f"motionscope {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
