"""Training loop, evaluation protocol, ablation harness and reports.

A run is fully determined by its config: parameter init, data order and
negative sampling draw from independent child streams of the run seed, and
every emitted file (report.csv, model.bin, bank.json) is bit-reproducible.

Evaluation is one map and one reduce: each expression becomes one
`ExpressionRecord`, and every score, `probe_acc` and the separation margin
are reductions over the list of records.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import MemoryBank, contrastive_loss
from .benchmark import FEATURE_CHANNELS, Scene, metric_f, metric_j, video_iou
from .config import TrainConfig
from .decoder import predict_video_masks
from .language import TaggedExpression
from .losses import frame_loss, video_loss
from .matching import hungarian
from .model import MotionSegModel, save_model
from .tensor import Tensor, take

LAMBDA_CONTRASTIVE = 0.5  # weight of the contrastive term in a step's loss
MOMENTUM = 0.9
MAX_GRAD_NORM = 5.0  # the global gradient norm is clipped to this


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}: a value overflowed or "
                         f"turned non-finite")
        self.step = step


# the scores of an evaluation, in the column order of every file that holds them
SCORES = ("j", "f", "jf", "ident_acc", "probe_acc")


@dataclass(frozen=True)
class ExpressionRecord:
    """One evaluated expression: its scene, its scores and, per target, the
    object index and the unprojected video token of the query whose mask
    overlaps that target most, selected or not."""
    seed: int
    probe: bool
    j: float
    f: float
    ident: bool
    target_tokens: tuple[tuple[int, np.ndarray], ...]


@dataclass(frozen=True)
class EvalMetrics:
    """The records of an evaluation, in scene, then expression, order, and
    the scores that are their means."""
    records: list[ExpressionRecord]
    j: float
    f: float
    jf: float
    ident_acc: float
    probe_acc: float  # nan when the split has no probe scenes

    @classmethod
    def of(cls, records: list[ExpressionRecord]) -> "EvalMetrics":
        j, f = float(np.mean([r.j for r in records])), float(np.mean([r.f for r in records]))
        probe = [r.ident for r in records if r.probe]
        return cls(records, j, f, (j + f) / 2.0, float(np.mean([r.ident for r in records])),
                   float(np.mean(probe)) if probe else float("nan"))

    def scores(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SCORES}


@dataclass
class RunResult:
    final: EvalMetrics
    margin: float


def separation_margin(records: list[ExpressionRecord], project) -> float:
    """Mean cosine similarity of same-object token pairs minus mean cosine
    similarity of different-object pairs, over the records' target tokens
    mapped once each by `project` and grouped by (scene seed, object index)."""
    by_object: dict[tuple[int, int], list[np.ndarray]] = {}
    for r in records:
        for obj_idx, token in r.target_tokens:
            by_object.setdefault((r.seed, obj_idx), []).append(project(Tensor(token)).data)
    groups = [np.stack(v) for v in by_object.values()]
    if len(groups) < 2 or not any(len(g) >= 2 for g in groups):
        raise ValueError("separation margin needs >=2 objects and an object with >=2 tokens")
    intra, inter = [], []
    for gi, a in enumerate(groups):
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                intra.append(float(a[i] @ a[j]))
        for b in groups[gi + 1:]:
            inter.extend(float(x @ y) for x in a for y in b)
    return float(np.mean(intra) - np.mean(inter))


def _require_expressions(scenes: list[Scene]) -> None:
    if not any(scene.expressions for scene in scenes):
        raise ValueError("evaluation needs at least one expression, the scenes hold none")


def _require_grid(config: TrainConfig, scenes) -> None:
    """Every scene has the config's grid and the fixed feature width, and a
    frame count that the HMP stages' 2^hmp_stages-frame tokens divide."""
    grid = (config.grid_height, config.grid_width, FEATURE_CHANNELS)
    factor = 2 ** config.hmp_stages
    for scene in scenes:
        if scene.features.shape[1:] != grid:
            raise ValueError(
                f"scene {scene.seed} has {scene.features.shape[1:]} (H, W, C) features, "
                f"but the config's (grid_height, grid_width) and the feature width give {grid}")
        frames = scene.features.shape[0]
        if frames % factor:
            raise ValueError(
                f"scene {scene.seed} has {frames} frames, but hmp_stages={config.hmp_stages} "
                f"merges 2^{config.hmp_stages}={factor} frames into a token, which does not "
                f"divide them")


class Trainer:
    def __init__(self, config: TrainConfig, train_scenes: list[Scene], val_scenes: list[Scene]):
        config.validate()
        init_seed, order_seed, negative_seed = np.random.SeedSequence(config.seed).spawn(3)
        self.model = MotionSegModel(config, np.random.default_rng(init_seed))
        _require_grid(config, itertools.chain(train_scenes, val_scenes))
        self.cfg = config
        self.train_scenes = train_scenes
        self.val_scenes = val_scenes
        self.order_rng = np.random.default_rng(order_seed)
        self.negative_rng = np.random.default_rng(negative_seed)

        # one bank slot per distinct target object in the training set
        self.slot_ids: dict[tuple[int, int], int] = {}
        categories, videos = [], []
        for video_idx, scene in enumerate(train_scenes):
            for expr in scene.expressions:
                for obj_idx in expr.target_ids:
                    key = (scene.seed, obj_idx)
                    if key not in self.slot_ids:
                        self.slot_ids[key] = len(categories)
                        categories.append(scene.objects[obj_idx].category)
                        videos.append(video_idx)
        self.bank = MemoryBank(categories, videos, FEATURE_CHANNELS)

        self.velocity = {p.name: np.zeros_like(p.data) for p in self.model.params}
        self.pairs = [
            (si, ei)
            for si, scene in enumerate(train_scenes)
            for ei in range(len(scene.expressions))
        ]

    # -- training ---------------------------------------------------------------

    def train_step(self, scene: Scene, expr: TaggedExpression, step: int) -> dict:
        """One optimizer step on one expression.  The step's first overflow,
        invalid operation or division by zero ends it with
        `TrainingDiverged(step)` before numpy warns of it.  Scenes and
        parameters start finite, so no step computes a non-finite value
        without one, and a step without one computes what it would
        unchecked."""
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return self._step(scene, expr, step)
        except FloatingPointError as err:
            raise TrainingDiverged(step) from err

    def _step(self, scene: Scene, expr: TaggedExpression, step: int) -> dict:
        cfg = self.cfg
        self.model.zero_grad()
        out = self.model.forward(scene.features, expr)
        lf = frame_loss(out, scene.masks)
        ml = video_loss(out, scene.target_masks(expr))
        total = lf + ml.loss
        con_value = 0.0
        # every training target has a slot, and a target always gets a match;
        # n_negatives 0 leaves the bank empty and the projector untrained
        if cfg.n_negatives > 0 and expr.target_ids:
            slots = [self.slot_ids[(scene.seed, o)] for o in expr.target_ids]
            rows = take(out.video.tokens, np.array([m[0] for m in ml.matches]), axis=0)
            anchor = self.model.projector.project(rows.mean(axis=0))
            pos_slot = slots[min(ml.matches, key=lambda m: m[2])[1]]
            vec = anchor.data.copy()
            for slot in slots:
                self.bank.update(slot, vec)
            if step >= cfg.warmup_steps:
                negatives = self.bank.sample_negatives(
                    pos_slot, cfg.n_negatives, self.negative_rng, exclude=slots)
                if negatives.size:
                    con = contrastive_loss(anchor, self.bank.vectors[pos_slot].copy(),
                                           self.bank.vectors[negatives].copy())
                    con_value = con.item()
                    total = total + LAMBDA_CONTRASTIVE * con
        total.backward()
        norm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in self.model.params
                           if p.grad is not None))
        scale = MAX_GRAD_NORM / norm if norm > MAX_GRAD_NORM else 1.0
        # a parameter that no op reached (grad None) only decays its velocity
        for p in self.model.params:
            v = self.velocity[p.name]
            v *= MOMENTUM
            if p.grad is not None:
                v += p.grad * scale
            p.data -= cfg.learning_rate * v
        return {
            "total": total.item(),
            "frame": lf.item(),
            "video": ml.loss.item(),
            "contrastive": con_value,
        }

    # -- evaluation ----------------------------------------------------------------

    def _record(self, scene: Scene, expr: TaggedExpression) -> ExpressionRecord:
        """Forward one expression and match its selected masks one-to-one to
        its targets by video IoU.  Each pair scores its J and F, an unmatched
        prediction or target scores 0 on both and fails identification, and
        nothing predicted for no target scores 1."""
        out = self.model.forward(scene.features, expr)
        masks, selected = predict_video_masks(out.video, out.mask_features)
        gt = scene.target_masks(expr)
        iou = video_iou(masks, gt)
        tokens = tuple((obj_idx, out.video.tokens.data[best_q].copy())
                       for obj_idx, best_q in zip(expr.target_ids, iou.argmax(axis=0)))
        pred, iou = masks[selected], iou[selected]
        n_pred, n_gt = iou.shape
        if n_pred == 0 and n_gt == 0:
            return ExpressionRecord(scene.seed, scene.probe, 1.0, 1.0, True, tokens)
        n = max(n_pred, n_gt)
        js, fs = np.zeros(n), np.zeros(n)
        correct = n_pred == n_gt
        for i, k in enumerate(hungarian(-iou)):
            if k < n_gt:
                js[i] = metric_j(pred[i], gt[k])
                fs[i] = metric_f(pred[i], gt[k])
                correct = correct and iou[i, k] >= 0.5
        return ExpressionRecord(scene.seed, scene.probe, float(np.mean(js)), float(np.mean(fs)),
                                bool(correct), tokens)

    def evaluate(self, scenes: list[Scene] | None = None) -> EvalMetrics:
        scenes = scenes if scenes is not None else self.val_scenes
        _require_grid(self.cfg, scenes)
        _require_expressions(scenes)
        return EvalMetrics.of([self._record(scene, expr)
                               for scene in scenes for expr in scene.expressions])

    # -- full run ---------------------------------------------------------------------

    def run(self, out_dir=None, quiet: bool = True) -> RunResult:
        cfg = self.cfg
        if not self.pairs:
            raise ValueError("training needs at least one expression, the training scenes hold none")
        _require_expressions(self.val_scenes)
        order: list[tuple[int, int]] = []
        while len(order) < cfg.steps:
            order.extend(self.pairs[i] for i in self.order_rng.permutation(len(self.pairs)))
        rows: list[dict] = []
        sums = dict.fromkeys(("total", "frame", "video", "contrastive"), 0.0)
        count = 0
        final: EvalMetrics | None = None
        for step in range(cfg.steps):
            si, ei = order[step]
            scene = self.train_scenes[si]
            parts = self.train_step(scene, scene.expressions[ei], step)
            for key in sums:
                sums[key] += parts[key]
            count += 1
            if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
                final = self.evaluate()
                row = {
                    "step": step + 1,
                    "loss_total": sums["total"] / count,
                    "loss_frame": sums["frame"] / count,
                    "loss_video": sums["video"] / count,
                    "loss_contrastive": sums["contrastive"] / count,
                    **final.scores(),
                }
                rows.append(row)
                sums = dict.fromkeys(sums, 0.0)
                count = 0
                if not quiet:
                    print(f"step {row['step']:6d}  loss {row['loss_total']:.4f}  "
                          f"J&F {row['jf']:.4f}  ident {row['ident_acc']:.4f}")
        # only the final evaluation's tokens are projected, and only here
        try:
            margin = separation_margin(final.records, self.model.projector.project)
        except ValueError:
            margin = float("nan")
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_csv(out_dir / "report.csv", REPORT_COLUMNS, rows)
            save_model(self.model, out_dir / "model.bin")
            self.bank.save_json(out_dir / "bank.json")
            cfg.to_json(out_dir / "config.json")
            with open(out_dir / "summary.json", "w") as fh:
                json.dump({**final.scores(), "separation_margin": margin}, fh, indent=2,
                          sort_keys=True)
        return RunResult(final=final, margin=margin)


REPORT_COLUMNS = ("step", "loss_total", "loss_frame", "loss_video", "loss_contrastive",
                  *SCORES)


def write_csv(path, columns, rows: list[dict], footer: list[str] = ()) -> None:
    """Header, one line per row and then the `footer` lines.  Floats are
    written with repr, so they read back bit-exactly; a column a row lacks
    is left empty."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in (row.get(c, "") for c in columns)) + "\n")
        for line in footer:
            fh.write(line + "\n")


# -- ablation harness -----------------------------------------------------------------

AXES = ("components", "input-query", "nh", "nn")  # the ablation axes `axis_variants` knows


def axis_variants(base: TrainConfig, axis: str) -> list[tuple[str, TrainConfig]]:
    if axis == "components":
        out = []
        for ds, hmp, cl in itertools.product((False, True), repeat=3):
            label = "+".join(n for n, on in (("ds", ds), ("hmp", hmp), ("cl", cl)) if on) or "none"
            out.append((label, base.replace(
                query_variant=base.query_variant if ds else "sentence_only",
                hmp_stages=base.hmp_stages if hmp else 0,
                n_negatives=base.n_negatives if cl else 0)))
        return out
    if axis == "input-query":
        return [
            (variant, base.replace(query_variant=variant))
            for variant in ("sentence_only", "ds_no_sentence", "ds_no_query", "ds")
        ]
    if axis == "nh":
        return [(str(n), base.replace(hmp_stages=n)) for n in (0, 1, 2, 3)]
    if axis == "nn":
        return [(str(n), base.replace(n_negatives=n)) for n in (0, 10, 100, 200)]
    raise ValueError(f"unknown ablation axis {axis!r}")


def ablate(base: TrainConfig, axis: str, seeds: int, train_scenes: list[Scene],
           val_scenes: list[Scene]) -> list[dict]:
    """Run every variant of `axis` over `seeds` run seeds, printing each start."""
    rows = []
    for label, cfg in axis_variants(base, axis):
        for seed in range(seeds):
            print(f"[ablate] {axis}/{label} seed {seed}")
            result = Trainer(cfg.replace(seed=seed), train_scenes, val_scenes).run()
            rows.append({"axis": axis, "variant": label, "seed": seed,
                         **result.final.scores(), "margin": result.margin})
    return rows


def write_ablation_csv(rows: list[dict], path) -> None:
    columns = ("axis", "variant", "seed", *SCORES, "margin")
    summary: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        summary.setdefault((row["axis"], row["variant"]), []).append(row)
    footer = ["# mean +/- std over seeds"]
    for (axis, variant), group in summary.items():
        jf = np.array([g["jf"] for g in group])
        ident = np.array([g["ident_acc"] for g in group])
        footer.append(f"# {axis}/{variant}: jf={jf.mean():.4f}+/-{jf.std():.4f} "
                      f"ident={ident.mean():.4f}+/-{ident.std():.4f}")
    write_csv(path, columns, rows, footer)
