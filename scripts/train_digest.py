"""Train acceptance criterion 6's two arms and print a digest of each.

For each seed, trains the criterion's with-OT configuration and then the
same configuration with mining off, the margin-only run the criterion
compares against. Each training prints one block: a `seed N` line
(`seed N no-mining` for margin-only), each epoch's metrics row, formatted
as `metrics.csv` formats it, then the SHA-256 of every parameter's name
and bytes, in name order, the SHA-256 of the criterion's held-out pair set
(`make_pairs(te_labels, 50, 10, seed=999)`: its left, right, same and fold
arrays, in that order), the SHA-256 of the held-out embeddings
(`trainer.embed(te_images)`) and the criterion's verification accuracy on
those pairs (10-fold `mean_accuracy`). Two source trees that print the
same lines trained this configuration to the same bytes, embed the
held-out images to the same bytes and score the same. Learning-rate
milestones at or past `--epochs` are dropped, which leaves the schedule
of the epochs that run unchanged. Seeds 0 to 9 at 30 epochs are the
criterion's twenty trainings; their accuracy lines are the criterion's
per-seed figures. The run ends with one `paired` line: with-OT's wins,
ties and losses in accuracy and the mean paired difference (with-OT minus
margin-only) with its standard error, over all seeds and over the seeds
where margin-only reaches 0.9. `--jobs N` trains in N worker processes,
started with the `spawn` method so that none inherits the parent's
threads, each with one OpenBLAS thread unless the caller sets
`OPENBLAS_NUM_THREADS`, and prints the same lines in the same order as
`--jobs 1`. `--json PATH` appends one entry for the run to the JSON list
in PATH: the source tree's commit, the epochs, each seed's accuracy and
params digest in both arms, and the `paired` line. If PATH already holds
entries with the same epochs and seeds, one `against` line follows the
`paired` line, read against the last of them: its commit, its mean paired
difference over all seeds, this run's, the change, the floor of that mean
less 2 of its standard errors, and `within_2se=yes` if this run's mean is
at or above the floor (`no` if below).

    python scripts/train_digest.py --src src --seed 0 --epochs 3
    python scripts/train_digest.py --src ../other/src --seed 0 --epochs 3
    python scripts/train_digest.py --src src --seed 0 1 2 3 4 5 6 7 8 9 --epochs 30
    python scripts/train_digest.py --src src --seed $(seq 0 39) --epochs 30 \
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
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


def _mean_se(diffs: list[float]) -> tuple[float, float]:
    """The mean of `diffs` and its standard error (nan where undefined)."""
    mean = sum(diffs) / len(diffs) if diffs else math.nan
    se = (math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1) / len(diffs))
          if len(diffs) > 1 else math.nan)
    return mean, se


def _summary(label: str, arms: list[tuple[float, float]]) -> str:
    """Wins, ties and losses of with-OT over margin-only, and the mean
    paired difference with its standard error (nan where undefined)."""
    diffs = [ot - margin for ot, margin in arms]
    mean, se = _mean_se(diffs)
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


def _arm(src: str, epochs: int, task: tuple[int, bool]) -> tuple[list[str], float, str]:
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
    lines = [f"seed {seed}" + ("" if mining else " no-mining"),
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


def _one_blas_thread() -> None:
    """Run a worker's OpenBLAS on one thread unless the caller chose a count:
    beside other workers, its default of one thread per CPU oversubscribes
    the CPUs (two workers on 2 CPUs train an arm about four times slower)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _workers(jobs: int):
    """A pool of `jobs` spawn workers, each run through `_one_blas_thread`
    before it loads numpy; a null context (no pool) for one job."""
    if jobs == 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn"),
                               initializer=_one_blas_thread)


def _against(entry: dict, diffs: list[float]) -> str:
    """How the mean paired difference over all seeds moved from an earlier
    record entry's, and whether it is at least that entry's mean less 2 of
    its standard errors."""
    mean = _mean_se(diffs)[0]
    then, se = _mean_se([s["ot"]["accuracy"] - s["margin"]["accuracy"] for s in entry["seeds"]])
    floor = then - 2 * se
    return (f"against {entry['commit']} mean_diff={then:+.4f} now={mean:+.4f} "
            f"change={mean - then:+.4f} floor={floor:+.4f} "
            f"within_2se={'yes' if mean >= floor else 'no'}")


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
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes that train the seeds")
    parser.add_argument("--json", type=Path,
                        help="append this run's per-seed record to the JSON list in this file")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    tasks = [(seed, mining) for seed in args.seed for mining in (True, False)]
    train = functools.partial(_arm, str(args.src.resolve()), args.epochs)
    results = []
    with _workers(args.jobs) as pool:
        for lines, accuracy, params in (pool.map if pool else map)(train, tasks):
            print("\n".join(lines), flush=True)
            results.append((accuracy, params))
    pairs = list(zip(results[::2], results[1::2]))
    paired = "paired " + "; ".join(
        _summary(label, [(ot[0], margin[0]) for ot, margin in pairs if margin[0] >= floor])
        for label, floor in (("all", -math.inf), ("margin>=0.9", 0.9)))
    print(paired)
    if args.json:
        record = json.loads(args.json.read_text()) if args.json.exists() else []
        same = [entry for entry in record if entry.get("epochs") == args.epochs
                and [s["seed"] for s in entry.get("seeds", [])] == args.seed]
        if same:
            print(_against(same[-1], [ot[0] - margin[0] for ot, margin in pairs]))
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
