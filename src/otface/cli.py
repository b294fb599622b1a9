"""Command-line entry points: gen-data / train / eval / mine / ot solve."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import config as cfg_mod
from .backbone import BackboneConfig, embed, init_params
from .data import (
    DatasetManifest,
    atomic_write_text,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from .errors import ConfigurationError, OTFaceError
from .evaluation import kfold_accuracy, make_pairs, pair_scores, tar_at_far
from .losses import MarginConfig
from .mining import LabeledBatch, mine_hard_groups
from .ot import SinkhornConfig, sinkhorn_log_domain
from .trainer import TrainConfig, Trainer

METRICS_COLUMNS = ("epoch", "margin_loss", "ot_loss", "total", "hard_groups", "lr")


def _write_metrics_csv(path: Path, history: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for row in history:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in METRICS_COLUMNS])
    atomic_write_text(path, buf.getvalue())


def _build_trainer(cfg: dict, manifest: DatasetManifest) -> Trainer:
    images, labels = load_dataset(manifest, split="train")
    bb = cfg_mod.build_config(BackboneConfig, cfg["backbone"])
    if (manifest.image_shape[0] != bb.in_channels
            or manifest.image_shape[1] != bb.input_size):
        raise ConfigurationError(
            f"dataset images {manifest.image_shape} do not match backbone "
            f"({bb.in_channels}, {bb.input_size}, {bb.input_size})"
        )
    return Trainer(
        images, labels, bb, cfg_mod.build_config(MarginConfig, cfg["margin"]),
        cfg_mod.build_config(SinkhornConfig, cfg["sinkhorn"]),
        cfg_mod.build_config(TrainConfig, cfg["trainer"]),
        mining_enabled=cfg["mining"]["enabled"],
        cap_per_anchor=cfg["mining"]["cap_per_anchor"],
        hinge_margin=cfg["loss"]["hinge_margin"],
        lambda_ot=cfg["loss"]["lambda_ot"],
    )


def cmd_gen_data(args) -> int:
    manifest = generate_synthetic(
        Path(args.out), args.classes, args.per_class, args.hardness, args.seed,
        image_size=args.size, channels=args.channels,
        holdout_per_class=args.holdout, encoding=args.encoding,
    )
    print(f"wrote {len(manifest.samples)} samples "
          f"({manifest.num_classes} classes) to {manifest.root}")
    return 0


def cmd_train(args) -> int:
    cfg = cfg_mod.load_config(args.config, args.set)
    for key in (item.partition("=")[0] for item in args.set):
        if key.partition(".")[0] == "eval":
            raise ConfigurationError(f"otface train does not read config key {key!r}")
    if cfg["data"]["manifest"] is None:
        raise ConfigurationError("data.manifest must point to a dataset directory")
    every = cfg["trainer"]["checkpoint_every"]
    if every < 0:
        raise ConfigurationError(f"trainer.checkpoint_every must be >= 0, got {every}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest.load(Path(cfg["data"]["manifest"]))
    trainer = _build_trainer(cfg, manifest)
    for _ in range(trainer.train_cfg.epochs):
        metrics = trainer.train_epoch()
        print("epoch {epoch}: margin={margin_loss:.4f} ot={ot_loss:.4f} "
              "total={total:.4f} hard_groups={hard_groups} lr={lr:g}"
              .format(**metrics))
        if every and trainer.state.epoch % every == 0:
            save_checkpoint(out_dir / f"checkpoint_epoch{trainer.state.epoch}.npz",
                            trainer.state.params, trainer.state.momentum_buffers,
                            trainer.state.epoch, trainer.state.step)
    _write_metrics_csv(out_dir / "metrics.csv", trainer.state.history)
    save_checkpoint(out_dir / "checkpoint.npz", trainer.state.params,
                    trainer.state.momentum_buffers, trainer.state.epoch,
                    trainer.state.step)
    atomic_write_text(out_dir / "config.json", json.dumps(cfg, indent=1))
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'checkpoint.npz'}")
    return 0


def _check_params(path: Path, params: dict, bb) -> None:
    """Raise unless `params` has exactly the names and shapes that
    `init_params` builds for the backbone config `bb`, besides the margin
    head (`classifier.weight`) that training saves and eval does not use."""
    expected = {k: v.shape for k, v in init_params(bb, np.random.default_rng(0)).items()}
    got = {k: v.shape for k, v in params.items() if k != "classifier.weight"}
    for name in list(expected) + sorted(got.keys() - expected.keys()):
        if got.get(name) != expected.get(name):
            raise ConfigurationError(
                f"{path}: parameter {name} does not match the backbone config: "
                f"checkpoint {got.get(name, 'missing')}, "
                f"config {expected.get(name, 'unexpected')}"
            )


def cmd_eval(args) -> int:
    # the backbone of the run that wrote the checkpoint, if its config sits beside it
    run_config = Path(args.checkpoint).with_name("config.json")
    cfg = cfg_mod.load_config(args.config, args.set,
                              run_config if run_config.is_file() else None)
    for key in (item.partition("=")[0] for item in args.set):
        if key.partition(".")[0] not in ("data", "backbone", "eval"):
            raise ConfigurationError(f"otface eval does not read config key {key!r}")
    ev = cfg["eval"]
    for key, ok, rule in (
            ("folds", ev["folds"] >= 2, ">= 2"),
            ("pairs_per_fold", ev["pairs_per_fold"] >= 1, ">= 1"),
            ("pair_seed", ev["pair_seed"] >= 0, ">= 0"),
            ("far_targets", all(0 < f <= 1 for f in ev["far_targets"]), "in (0, 1]")):
        if not ok:
            raise ConfigurationError(f"eval.{key} must be {rule}, got {ev[key]!r}")
    manifest_dir = args.manifest or cfg["data"]["manifest"]
    if manifest_dir is None:
        raise ConfigurationError("provide --manifest or set data.manifest")
    manifest = DatasetManifest.load(Path(manifest_dir))
    split = args.split
    if split == "auto":
        split = "test" if any(s.split == "test" for s in manifest.samples) else None
    images, labels = load_dataset(manifest, split=split)

    params, _, _, _ = load_checkpoint(Path(args.checkpoint))
    bb = cfg_mod.build_config(BackboneConfig, cfg["backbone"])
    _check_params(Path(args.checkpoint), params, bb)
    embeddings = embed(images, params, bb)

    pairs = make_pairs(labels, ev["pairs_per_fold"], ev["folds"], ev["pair_seed"])
    scores = pair_scores(embeddings, pairs)
    report = kfold_accuracy(pairs, scores, k=ev["folds"])
    report.tar_at_far = tar_at_far(scores, pairs.same, ev["far_targets"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "mean_accuracy": report.mean_accuracy,
        "fold_accuracies": report.fold_accuracies,
        "thresholds": report.thresholds,
        "tar_at_far": {f"{k:g}": v for k, v in report.tar_at_far.items()},
    }
    atomic_write_text(out_dir / "report.json", json.dumps(doc, indent=1))
    roc_lines = ["far,tar"] + [f"{far!r},{tar!r}" for far, tar in
                               sorted(report.roc_points)]
    atomic_write_text(out_dir / "roc.csv", "\n".join(roc_lines) + "\n")
    print(f"mean 10-fold accuracy: {report.mean_accuracy:.4f}")
    for target, value in report.tar_at_far.items():
        label = "unattainable" if value is None else f"{value:.4f}"
        print(f"TAR@FAR={target:g}: {label}")
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'roc.csv'}")
    return 0


def _read_csv(path: str, ndmin: int, dtype=float) -> np.ndarray:
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=ndmin)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ConfigurationError(f"cannot read {path}: no data")
    return data


def cmd_mine(args) -> int:
    embeddings = _read_csv(args.embeddings, 2)
    labels = _read_csv(args.labels, 1, int)
    batch = LabeledBatch(embeddings, labels)
    groups = mine_hard_groups(batch, args.cap_per_anchor)
    print("anchor,positive,negative")
    for g in groups:
        print(f"{g.anchor},{g.positive},{g.negative}")
    print(f"# {len(groups)} hard groups", file=sys.stderr)
    return 0


def cmd_ot_solve(args) -> int:
    cost = _read_csv(args.cost, 2)
    plan = sinkhorn_log_domain(cost, SinkhornConfig(
        epsilon=args.epsilon, max_iters=args.max_iters, marginal_tol=args.tol))
    print(f"value: {plan.value!r}")
    print(f"iterations: {plan.iterations_used}")
    print(f"marginal_violation: {plan.marginal_violation:.3e}")
    print(f"converged: {plan.converged}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otface",
        description="Hard-group mining + entropic OT + margin softmax, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--hardness", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--holdout", type=int, default=0)
    p.add_argument("--encoding", choices=("float32", "uint8"), default="float32")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train with the combined objective")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="verification report for a checkpoint")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", default="auto",
                   choices=("auto", "train", "test"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine", help="print hard sample groups for a batch")
    p.add_argument("--embeddings", required=True, help="CSV, one row per sample")
    p.add_argument("--labels", required=True, help="CSV of integer labels")
    p.add_argument("--cap-per-anchor", type=int, default=None)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("ot", help="optimal transport utilities")
    ot_sub = p.add_subparsers(dest="ot_command", required=True)
    q = ot_sub.add_parser("solve", help="solve entropic OT for a cost CSV")
    q.add_argument("--cost", required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--max-iters", type=int, default=SinkhornConfig.max_iters,
                   help="plain Sinkhorn iterations per level of the epsilon ladder")
    q.add_argument("--tol", type=float, default=SinkhornConfig.marginal_tol)
    q.set_defaults(func=cmd_ot_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OTFaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
