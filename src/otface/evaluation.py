"""Verification and identification protocols over embeddings:
k-fold pair accuracy, ROC / TAR@FAR, and rank-1 identification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .tensor import row_norms


@dataclass
class PairSet:
    """Index pairs with genuine/impostor flags and a fold assignment."""

    left: np.ndarray    # index of sample A per pair
    right: np.ndarray   # index of sample B per pair
    same: np.ndarray    # bool, genuine pair
    fold: np.ndarray    # int fold id per pair

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=np.intp)
        self.right = np.asarray(self.right, dtype=np.intp)
        self.same = np.asarray(self.same, dtype=bool)
        self.fold = np.asarray(self.fold, dtype=np.intp)
        n = self.left.shape[0]
        if not (self.right.shape[0] == self.same.shape[0] == self.fold.shape[0] == n):
            raise ContractError("pair arrays must be aligned")

    @property
    def num_folds(self) -> int:
        return int(self.fold.max()) + 1 if self.fold.size else 0


@dataclass
class VerificationReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    roc_points: list[tuple[float, float]]          # (far, tar), far ascending
    tar_at_far: dict[float, float | None]          # None = unattainable
    thresholds: list[float] = field(default_factory=list)


def make_pairs(labels: np.ndarray, pairs_per_fold: int, num_folds: int = 10,
               seed: int = 0) -> PairSet:
    """Balanced genuine/impostor pairs split into folds (each fold gets
    `pairs_per_fold` of each kind)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    by_class = {c: np.nonzero(labels == c)[0] for c in np.unique(labels)}
    usable = [c for c, idx in by_class.items() if idx.shape[0] >= 2]
    if len(usable) < 2:
        raise ContractError("need >= 2 classes with >= 2 samples each")
    classes = np.array(usable)
    total = pairs_per_fold * num_folds
    left, right, same = [], [], []
    for _ in range(total):
        c = rng.choice(classes)
        a, b = rng.choice(by_class[c], size=2, replace=False)
        left.append(a); right.append(b); same.append(True)
    for _ in range(total):
        c1, c2 = rng.choice(classes, size=2, replace=False)
        left.append(rng.choice(by_class[c1]))
        right.append(rng.choice(by_class[c2]))
        same.append(False)
    # fold f holds genuine pairs [f*ppf, (f+1)*ppf) and the same slice of impostors
    fold = np.concatenate([np.repeat(np.arange(num_folds), pairs_per_fold)] * 2)
    return PairSet(np.array(left), np.array(right), np.array(same), fold)


def pair_scores(embeddings: np.ndarray, pairs: PairSet) -> np.ndarray:
    """Cosine similarity per pair."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    rows = embeddings / row_norms(embeddings)[:, None]
    return np.clip(np.sum(rows[pairs.left] * rows[pairs.right], axis=1), -1.0, 1.0)


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct scores, plus sentinels below
    and above every score."""
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate(([uniq[0] - 1.0], mids, [uniq[-1] + 1.0]))


def _count_at_least(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of `scores` >= each threshold: one sort, then one binary
    search per threshold. Like `>=`, a NaN on either side never matches."""
    ordered = np.sort(scores)
    ordered = ordered[:np.searchsorted(ordered, np.nan)]
    return ordered.shape[0] - np.searchsorted(ordered, thresholds, "left")


def kfold_accuracy(pairs: PairSet, scores: np.ndarray, k: int = 10) -> VerificationReport:
    """Per-fold accuracy with the threshold tuned on the other k-1 folds.

    Candidate thresholds are midpoints of the training scores; accuracy
    ties pick the smallest threshold. Also reports the full ROC over all
    pairs.
    """
    if k < 2:
        raise ContractError(f"k-fold evaluation needs k >= 2, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    folds = np.unique(pairs.fold)
    if folds.shape[0] != k:
        raise ContractError(f"pair set has {folds.shape[0]} folds, expected {k}")
    fold_acc: list[float] = []
    chosen: list[float] = []
    for f in folds:
        held = pairs.fold == f
        train_s, train_y = scores[~held], pairs.same[~held]
        cands = _threshold_candidates(train_s)
        # genuine pairs accepted plus impostor pairs rejected; argmax takes
        # the first, i.e. smallest, of tied thresholds
        correct = (_count_at_least(train_s[train_y], cands)
                   + np.count_nonzero(~train_y)
                   - _count_at_least(train_s[~train_y], cands))
        best_t = float(cands[np.argmax(correct)])
        chosen.append(best_t)
        fold_acc.append(float(np.mean((scores[held] >= best_t) == pairs.same[held])))
    roc = roc_points(scores, pairs.same)
    return VerificationReport(
        fold_accuracies=fold_acc,
        mean_accuracy=float(np.mean(fold_acc)),
        roc_points=roc,
        tar_at_far={},
        thresholds=chosen,
    )


def _rates(scores: np.ndarray, same: np.ndarray, thresholds: np.ndarray):
    """(FAR, TAR) arrays at each threshold, as `count / size`."""
    far = _count_at_least(scores[~same], thresholds) / np.count_nonzero(~same)
    tar = _count_at_least(scores[same], thresholds) / np.count_nonzero(same)
    return far, tar


def roc_points(scores: np.ndarray, same: np.ndarray) -> list[tuple[float, float]]:
    """(FAR, TAR) sweep over all observed score thresholds, far ascending."""
    scores = np.asarray(scores, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if same.all() or not same.any():
        raise ContractError("ROC needs both genuine and impostor pairs")
    far, tar = _rates(scores, same, np.unique(scores)[::-1])
    return list(zip(far.tolist(), tar.tolist()))


def tar_at_far(scores: np.ndarray, same: np.ndarray,
               far_targets: list[float]) -> dict[float, float | None]:
    """TAR at the smallest observed-score threshold whose impostor-pass
    fraction stays <= the target; targets finer than 1/num_impostors are
    reported as None (unattainable) rather than extrapolated."""
    scores = np.asarray(scores, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    num_impostors = int(np.count_nonzero(~same))
    if num_impostors == 0:
        raise ContractError("TAR@FAR needs at least one impostor pair")
    if num_impostors == same.shape[0]:
        raise ContractError("TAR@FAR needs at least one genuine pair")
    far, tar = _rates(scores, same, np.unique(scores))
    out: dict[float, float | None] = {}
    for target in far_targets:
        # FAR never rises with the threshold, so the first feasible
        # candidate is the smallest
        feasible = np.flatnonzero(far <= target)
        if target < 1.0 / num_impostors or not feasible.size:
            out[target] = None
        else:
            out[target] = float(tar[feasible[0]])
    return out


def rank1_identification(probe_embeddings: np.ndarray, probe_labels: np.ndarray,
                         gallery_embeddings: np.ndarray,
                         gallery_labels: np.ndarray) -> float:
    """Fraction of probes whose cosine-nearest gallery entry shares the
    probe's label; ties resolve to the lowest gallery index."""
    gallery_embeddings = np.asarray(gallery_embeddings, dtype=np.float64)
    probe_embeddings = np.asarray(probe_embeddings, dtype=np.float64)
    if gallery_embeddings.shape[0] == 0:
        raise ContractError("gallery must be nonempty")
    g = gallery_embeddings / row_norms(gallery_embeddings, "gallery embedding")[:, None]
    p = probe_embeddings / row_norms(probe_embeddings, "probe embedding")[:, None]
    nearest = np.argmax(p @ g.T, axis=1)
    return float(np.mean(
        np.asarray(gallery_labels)[nearest] == np.asarray(probe_labels)
    ))
