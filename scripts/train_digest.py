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
where margin-only reaches 0.9. `--jobs N` trains the seeds in N worker
processes, started with the `spawn` method so that none inherits the
parent's threads, and prints the same lines in the same order as `--jobs
1`. `--json PATH` (with `--paired`) appends one entry for the run to the
JSON list in PATH: the source tree's commit, the epochs, each seed's
accuracy and params digest in both arms, and the `paired` line.

    python scripts/train_digest.py --src src --seed 0 --epochs 3
    python scripts/train_digest.py --src ../other/src --seed 0 --epochs 3
    python scripts/train_digest.py --src src --seed 0 --epochs 3 --no-mining
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30 --paired
    python scripts/train_digest.py --src src --seed $(seq 0 39) --epochs 30 --paired \
        --jobs 2 --json SWEEP_criterion6.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
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


@functools.cache
def _data(src: str):
    """The criterion's training and held-out data and pair set, built once
    per process from the otface package in `src`."""
    sys.path.insert(0, src)
    from otface.data import generate_synthetic, load_dataset
    from otface.evaluation import make_pairs

    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_synthetic(Path(tmp) / "hard", 10, 100, 0.7, seed=123,
                                      image_size=16, holdout_per_class=30)
        train, test = load_dataset(manifest, "train"), load_dataset(manifest, "test")
    pairs = make_pairs(test[1], 50, 10, seed=999)
    digest = hashlib.sha256()
    for name in ("left", "right", "same", "fold"):
        digest.update(getattr(pairs, name).tobytes())
    return train, test[0], pairs, digest.hexdigest()


def _arm(src: str, epochs: int, paired: bool,
         task: tuple[int, bool]) -> tuple[list[str], float, str]:
    """Train one arm; return its block's lines, its accuracy and its params digest."""
    seed, mining = task
    (images, labels), te_images, pairs, pairs_digest = _data(src)
    from otface import BackboneConfig, MarginConfig, SinkhornConfig, TrainConfig, Trainer
    from otface.cli import METRICS_COLUMNS
    from otface.evaluation import kfold_accuracy, pair_scores

    trainer = Trainer(
        images, labels,
        BackboneConfig(input_size=16, stage_channels=(8, 16, 16), embedding_dim=32,
                       tap_stage=2),
        MarginConfig(variant="additive_cosine", scale=16.0, margin=0.2),
        SinkhornConfig(epsilon=0.1, unroll_iters=15),
        TrainConfig(batch_size=32, epochs=epochs, lr=0.05, momentum=0.9,
                    weight_decay=5e-4,
                    lr_milestones=tuple(m for m in (18, 25) if m < epochs),
                    sampler="class_balanced", sampler_p=8, sampler_k=4,
                    seed=seed),
        mining_enabled=mining, cap_per_anchor=1, hinge_margin=0.1,
        lambda_ot=0.2,
    )
    lines = [f"seed {seed}" + (" no-mining" if paired and not mining else ""),
             ",".join(METRICS_COLUMNS)]
    lines += [",".join(repr(row[c]) for c in METRICS_COLUMNS) for row in trainer.run()]
    digest = hashlib.sha256()
    for name in sorted(trainer.state.params):
        digest.update(name.encode())
        digest.update(trainer.state.params[name].data.tobytes())
    embeddings = trainer.embed(te_images)
    accuracy = kfold_accuracy(pairs, pair_scores(embeddings, pairs), k=10).mean_accuracy
    lines += [f"params sha256 {digest.hexdigest()}", f"pairs sha256 {pairs_digest}",
              f"embeddings sha256 {hashlib.sha256(embeddings.tobytes()).hexdigest()}",
              f"accuracy {accuracy!r}"]
    return lines, accuracy, digest.hexdigest()


def _commit(src: Path) -> str | None:
    """The commit of the git tree holding `src`, marked `-dirty` when
    `src` has uncommitted changes; None outside a git tree."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


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
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes that train the seeds")
    parser.add_argument("--json", type=Path,
                        help="append this run's per-seed record to the JSON list in this file")
    args = parser.parse_args()
    if args.paired and args.no_mining:
        parser.error("--paired trains both arms; drop --no-mining")
    if args.json and not args.paired:
        parser.error("--json records both arms; add --paired")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    arms = (True, False) if args.paired else (not args.no_mining,)
    tasks = [(seed, mining) for seed in args.seed for mining in arms]
    train = functools.partial(_arm, str(args.src.resolve()), args.epochs, args.paired)
    results = []
    with (ProcessPoolExecutor(args.jobs, mp_context=multiprocessing.get_context("spawn"))
          if args.jobs > 1 else contextlib.nullcontext()) as pool:
        for lines, accuracy, params in (pool.map if pool else map)(train, tasks):
            print("\n".join(lines), flush=True)
            results.append((accuracy, params))
    if not args.paired:
        return 0
    pairs = list(zip(results[::2], results[1::2]))
    paired = "paired " + "; ".join(
        _summary(label, [(ot[0], margin[0]) for ot, margin in pairs if margin[0] >= floor])
        for label, floor in (("all", -math.inf), ("margin>=0.9", 0.9)))
    print(paired)
    if args.json:
        record = json.loads(args.json.read_text()) if args.json.exists() else []
        record.append({
            "commit": _commit(args.src), "epochs": args.epochs, "paired": paired,
            "seeds": [{"seed": seed, **{arm: {"accuracy": accuracy, "params_sha256": params}
                                        for arm, (accuracy, params) in zip(("ot", "margin"), pair)}}
                      for seed, pair in zip(args.seed, pairs)],
        })
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
