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
are the criterion's per-seed figures.

    python scripts/train_digest.py --src src --seed 0 --epochs 3
    python scripts/train_digest.py --src ../other/src --seed 0 --epochs 3
    python scripts/train_digest.py --src src --seed 0 --epochs 3 --no-mining
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory that holds the otface package")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--no-mining", action="store_true",
                        help="train margin-only (mining_enabled=False)")
    args = parser.parse_args()
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
    for seed in args.seed:
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
            mining_enabled=not args.no_mining, cap_per_anchor=1, hinge_margin=0.1,
            lambda_ot=0.2,
        )
        print(f"seed {seed}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
