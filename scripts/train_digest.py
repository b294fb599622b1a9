"""Train acceptance criterion 6's with-OT configuration and print a digest.

For each seed, prints a `seed N` line, each epoch's metrics row,
formatted as `metrics.csv` formats it, then the SHA-256 of every
parameter's name and bytes, in name order, the SHA-256 of the
criterion's held-out pair set (`make_pairs(te_labels, 50, 10, seed=999)`:
its left, right, same and fold arrays, in that order), the SHA-256 of the
held-out embeddings (`trainer.embed(te_images)`) and the criterion's
verification accuracy on those pairs (10-fold `mean_accuracy`). Two source
trees that print the same lines trained this configuration to the same
bytes, embed the held-out images to the same bytes and score the same.
Learning-rate milestones at or past `--epochs` are dropped, which leaves
the schedule of the epochs that run unchanged. `--no-mining` trains the
same configuration with mining off, the margin-only run the criterion
compares against. Seeds 0 to 9 at 30 epochs, with and without
`--no-mining`, are the criterion's twenty trainings; their accuracy lines
are the criterion's per-seed figures. `--paired` trains both arms of every
seed, with-OT first (the margin-only block's first line is `seed N
no-mining`), and ends with one `paired` line: with-OT's wins, ties
and losses in accuracy and the mean paired difference (with-OT minus
margin-only) with its standard error, over all seeds and over the seeds
where margin-only reaches 0.9.

    python scripts/train_digest.py --src src --seed 0 --epochs 3
    python scripts/train_digest.py --src ../other/src --seed 0 --epochs 3
    python scripts/train_digest.py --src src --seed 0 --epochs 3 --no-mining
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30 --paired
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import tempfile
from pathlib import Path


def _summary(label: str, arms: list[tuple[float, float]]) -> str:
    """Wins, ties and losses of with-OT over margin-only, and the mean
    paired difference with its standard error (nan where undefined)."""
    diffs = [ot - margin for ot, margin in arms]
    mean = sum(diffs) / len(diffs) if diffs else math.nan
    se = (math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1) / len(diffs))
          if len(diffs) > 1 else math.nan)
    wins, ties = sum(d > 0 for d in diffs), sum(d == 0 for d in diffs)
    return (f"{label} seeds={len(diffs)} wins={wins} ties={ties} "
            f"losses={len(diffs) - wins - ties} mean_diff={mean:+.4f} se={se:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory that holds the otface package")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--no-mining", action="store_true",
                        help="train margin-only (mining_enabled=False)")
    parser.add_argument("--paired", action="store_true",
                        help="train both arms of every seed and summarise their differences")
    args = parser.parse_args()
    if args.paired and args.no_mining:
        parser.error("--paired trains both arms; drop --no-mining")
    sys.path.insert(0, str(args.src.resolve()))
    from otface import BackboneConfig, MarginConfig, SinkhornConfig, TrainConfig, Trainer
    from otface.cli import METRICS_COLUMNS
    from otface.data import generate_synthetic, load_dataset
    from otface.evaluation import kfold_accuracy, make_pairs, pair_scores

    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_synthetic(Path(tmp) / "hard", 10, 100, 0.7, seed=123,
                                      image_size=16, holdout_per_class=30)
        images, labels = load_dataset(manifest, "train")
        te_images, te_labels = load_dataset(manifest, "test")
    pairs = make_pairs(te_labels, 50, 10, seed=999)
    digest = hashlib.sha256()
    for name in ("left", "right", "same", "fold"):
        digest.update(getattr(pairs, name).tobytes())
    pairs_digest = digest.hexdigest()

    def train(seed: int, mining: bool) -> float:
        """Train one arm, print its block and return its accuracy."""
        trainer = Trainer(
            images, labels,
            BackboneConfig(input_size=16, stage_channels=(8, 16, 16), embedding_dim=32,
                           tap_stage=2),
            MarginConfig(variant="additive_cosine", scale=16.0, margin=0.2),
            SinkhornConfig(epsilon=0.1, unroll_iters=15),
            TrainConfig(batch_size=32, epochs=args.epochs, lr=0.05, momentum=0.9,
                        weight_decay=5e-4,
                        lr_milestones=tuple(m for m in (18, 25) if m < args.epochs),
                        sampler="class_balanced", sampler_p=8, sampler_k=4,
                        seed=seed),
            mining_enabled=mining, cap_per_anchor=1, hinge_margin=0.1,
            lambda_ot=0.2,
        )
        print(f"seed {seed}" + (" no-mining" if args.paired and not mining else ""))
        print(",".join(METRICS_COLUMNS))
        for row in trainer.run():
            print(",".join(repr(row[c]) for c in METRICS_COLUMNS))
        digest = hashlib.sha256()
        for name in sorted(trainer.state.params):
            digest.update(name.encode())
            digest.update(trainer.state.params[name].data.tobytes())
        print(f"params sha256 {digest.hexdigest()}")
        print(f"pairs sha256 {pairs_digest}")
        embeddings = trainer.embed(te_images)
        print(f"embeddings sha256 {hashlib.sha256(embeddings.tobytes()).hexdigest()}")
        accuracy = kfold_accuracy(pairs, pair_scores(embeddings, pairs), k=10).mean_accuracy
        print(f"accuracy {accuracy!r}")
        return accuracy

    if not args.paired:
        for seed in args.seed:
            train(seed, not args.no_mining)
        return 0
    arms = [(train(seed, True), train(seed, False)) for seed in args.seed]
    print("paired " + "; ".join(
        _summary(label, [(ot, margin) for ot, margin in arms if margin >= floor])
        for label, floor in (("all", -math.inf), ("margin>=0.9", 0.9))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
