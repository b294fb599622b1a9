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


@dataclass
class VerificationReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    roc_points: list[tuple[float, float]]          # (far, tar), far ascending
    tar_at_far: dict[float, float | None]          # None = unattainable
    thresholds: list[float] = field(default_factory=list)


_WORDS_PER_PAIR = 9  # genuine pair <= 4 words, impostor <= 5, barring rejections


def _draw(words: np.ndarray, at: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw on [0, n) (Lemire's method) replayed at every
    offset `at` of a block of 32-bit words: (values, offsets after). A word
    w is rejected, and the next read, while (w*n) % 2**32 < 2**32 % n. A draw
    on [0, 1) reads none; one that runs off the block ends at len(words) + 1."""
    n = np.broadcast_to(np.asarray(n, dtype=np.uint64), at.shape)
    live = (n > 1) & (at < len(words))
    prod = words[np.where(live, at, 0)] * n  # dead entries' words are discarded
    value = np.where(live, prod >> 32, 0).astype(np.intp)
    after = np.where(live, at + 1, np.where(n > 1, len(words) + 1, at))
    retry = np.flatnonzero(live & ((prod & 0xFFFFFFFF) < n))  # 2**32 % n < n
    retry = retry[(prod[retry] & 0xFFFFFFFF) < (1 << 32) % n[retry]]
    if retry.size:
        value[retry], after[retry] = _draw(words, after[retry], n[retry])
    return value, after


def _draw_two(words: np.ndarray, at: np.ndarray, k) -> tuple[np.ndarray, ...]:
    """`choice(k, 2, replace=False)` replayed like `_draw`: Floyd's draws on
    [0, k-2] and [0, k-1], a repeat becoming k-1, then the two-element
    shuffle, which swaps the pair when its draw on [0, 1] is 0."""
    i, at = _draw(words, at, k - 1)
    j, at = _draw(words, at, k)
    j = np.where(j == i, k - 1, j)
    keep, at = _draw(words, at, 2)
    return np.where(keep, i, j), np.where(keep, j, i), at


def make_pairs(labels: np.ndarray, pairs_per_fold: int, num_folds: int = 10,
               seed: int = 0) -> PairSet:
    """Balanced genuine/impostor pairs split into folds (each fold gets
    `pairs_per_fold` of each kind). A genuine pair is `choice(classes)`, then
    `choice(members, 2, replace=False)`; an impostor pair is `choice(classes,
    2, replace=False)`, then `choice(members)` of each. These draws are
    replayed from blocks of `default_rng(seed)`'s 32-bit words (`_draw`,
    `_draw_two`), so the pair set depends only on the PCG64 word stream."""
    for name, value in (("pairs_per_fold", pairs_per_fold), ("num_folds", num_folds)):
        if value < 1:
            raise ContractError(f"{name} must be >= 1, got {value}")
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True,
                                   equal_nan=False)  # each NaN a class of one
    # members of class c (of those with >= 2) are order[first[c]:][:size[c]]
    first, size = (np.cumsum(counts) - counts)[counts >= 2], counts[counts >= 2]
    if size.size < 2:
        raise ContractError("need >= 2 classes with >= 2 samples each")
    order = np.argsort(inverse, kind="stable")
    total, rng = pairs_per_fold * num_folds, np.random.default_rng(seed)
    words, chain = np.empty(0, np.uint64), [1]
    while chain[-1] > len(words):  # lengthen the block until both chains fit
        words = np.concatenate([words, rng.integers(
            0, 2**32, size=_WORDS_PER_PAIR * total, dtype=np.uint64)])
        offsets = np.arange(len(words) + 2)  # one pair of each kind from each
        c, at = _draw(words, offsets, size.size)
        a, b, genuine_next = _draw_two(words, at, size[c])
        c1, c2, at = _draw_two(words, offsets, size.size)
        u, at = _draw(words, at, size[c1])
        v, impostor_next = _draw(words, at, size[c2])
        chain = [0]
        for nxt in (genuine_next, impostor_next):
            for _ in range(total):
                chain.append(nxt[chain[-1]])
    g, i = np.array(chain[:total]), np.array(chain[total:-1])
    left = order[np.concatenate([first[c[g]] + a[g], first[c1[i]] + u[i]])]
    right = order[np.concatenate([first[c[g]] + b[g], first[c2[i]] + v[i]])]
    # fold f holds genuine pairs [f*ppf, (f+1)*ppf) and the same slice of impostors
    fold = np.concatenate([np.repeat(np.arange(num_folds), pairs_per_fold)] * 2)
    return PairSet(left, right, np.arange(2 * total) < total, fold)


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
