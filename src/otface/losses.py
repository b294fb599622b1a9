"""Margin-softmax family and the fused OT-triplet + margin objective."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .mining import HardGroup, LabeledBatch, mine_hard_groups
# `ot_distance` is importable from here too: traced benchmark runs wrap it
from .ot import SinkhornConfig, ot_distance, ot_pair_distances  # noqa: F401
from .tensor import Tensor, as_tensor, normalize_cols, normalize_rows

MARGIN_VARIANTS = ("additive_cosine", "additive_angular")


@dataclass
class MarginConfig:
    variant: str = "additive_cosine"
    scale: float = 30.0
    margin: float = 0.35

    def validate(self) -> "MarginConfig":
        if self.variant not in MARGIN_VARIANTS:
            raise ConfigurationError(
                f"unknown margin variant {self.variant!r}; "
                f"expected one of {MARGIN_VARIANTS}"
            )
        # NaN fails both comparisons
        if not 0.0 < self.scale <= sys.float_info.max:
            raise ConfigurationError(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.margin <= sys.float_info.max:
            raise ConfigurationError(f"margin must be nonnegative and finite, got {self.margin}")
        if self.variant == "additive_angular" and self.margin >= math.pi / 2:
            raise ConfigurationError(
                f"angular margin must be < pi/2, got {self.margin}"
            )
        if self.variant == "additive_cosine" and self.margin >= 1.0:
            raise ConfigurationError(f"cosine margin must be < 1, got {self.margin}")
        return self


class ClassifierWeights:
    """d x num_classes weight matrix, column-normalized before use."""

    def __init__(self, weights: Tensor):
        w = as_tensor(weights)
        if len(w.shape) != 2:
            raise ContractError(f"weights must be d x C, got shape {w.shape}")
        self.tensor = w

    @property
    def num_classes(self) -> int:
        return self.tensor.shape[1]

    def normalized(self) -> Tensor:
        return normalize_cols(self.tensor)

    @classmethod
    def init_random(cls, dim: int, num_classes: int,
                    rng: np.random.Generator) -> "ClassifierWeights":
        w = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, num_classes))
        return cls(Tensor(w, requires_grad=True))


@dataclass
class LossBreakdown:
    margin_loss: Tensor
    ot_loss: Tensor
    total: Tensor
    num_hard_groups: int


def margin_logits(embeddings: Tensor, weights: ClassifierWeights,
                  labels, cfg: MarginConfig) -> Tensor:
    """Scaled (N, C) cosine logits of an (N, d) batch with (N,) labels, the
    target class penalized per variant (not at all at margin 0)."""
    cfg.validate()
    e = as_tensor(embeddings)
    if len(e.shape) != 2:
        raise ContractError(f"embeddings must be (N, d), got {e.shape}")
    labels_arr = np.asarray(labels, dtype=np.intp)
    if labels_arr.shape != (e.shape[0],):
        raise ContractError(
            f"expected {e.shape[0]} labels, got shape {labels_arr.shape}"
        )
    if np.any(labels_arr < 0) or np.any(labels_arr >= weights.num_classes):
        raise ContractError(
            f"label out of range [0, {weights.num_classes}): {labels_arr}"
        )
    cosine = (normalize_rows(e) @ weights.normalized()).clip(-1.0, 1.0)
    onehot = np.zeros((e.shape[0], weights.num_classes))
    onehot[np.arange(e.shape[0]), labels_arr] = 1.0
    if cfg.margin == 0.0:
        adjusted = cosine
    elif cfg.variant == "additive_cosine":
        adjusted = cosine - cfg.margin * onehot
    else:  # additive_angular
        target = (cosine.arccos() + cfg.margin).cos()
        adjusted = cosine * (1.0 - onehot) + target * onehot
    return adjusted * cfg.scale


def per_sample_cross_entropy(logits: Tensor, labels) -> Tensor:
    """-log softmax(logits)[label] per row of (N, C) logits, via stabilized
    log-sum-exp."""
    l = as_tensor(logits)
    if len(l.shape) != 2:
        raise ContractError(f"logits must be (N, C), got {l.shape}")
    labels_arr = np.asarray(labels, dtype=np.intp)
    if labels_arr.shape != (l.shape[0],):
        raise ContractError(
            f"expected {l.shape[0]} labels, got shape {labels_arr.shape}"
        )
    shift = l.data.max(axis=1, keepdims=True)  # constant, gradient-free
    lse = (l - shift).exp().sum(axis=1).log() + Tensor(shift[:, 0])
    onehot = np.zeros(l.shape)
    onehot[np.arange(l.shape[0]), labels_arr] = 1.0
    picked = (l * onehot).sum(axis=1)
    return lse - picked


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Mean cross entropy over the rows, a scalar."""
    return per_sample_cross_entropy(logits, label).mean()


def ot_triplet_loss(groups: list[HardGroup], distributions,
                    cfg: SinkhornConfig, hinge_margin: float = 0.0) -> Tensor:
    """Sum over hard groups of [OT(a, p) - OT(a, n) + hinge_margin]_+.

    `groups` holds (a, p, n) index triples. `distributions` is an
    (N, n, d) tensor of per-sample feature distributions or any mapping
    from sample index to an (n, d) one. Each distinct unordered pair is
    solved once, as OT(lower index, higher index), and all of them by one
    `ot_pair_distances` node, which normalises only the paired samples.
    """
    if hinge_margin < 0.0:
        raise ConfigurationError(
            f"hinge_margin must be nonnegative, got {hinge_margin}"
        )
    if len(groups) == 0:
        return Tensor(0.0)
    triples = np.asarray(groups, dtype=np.intp)
    # rows 0..G-1 are the (anchor, positive) pairs, rows G..2G-1 the
    # (anchor, negative) ones, each sorted to (lower, higher)
    ends = np.sort(np.concatenate([triples[:, [0, 1]], triples[:, [0, 2]]]), axis=1)
    # lo * span + hi sorts as (lo, hi) does; span exceeds every index, mapping keys too
    span = int(ends.max()) + 1
    keys, pair_of_end = np.unique(ends[:, 0] * span + ends[:, 1], return_inverse=True)
    pairs = np.stack(divmod(keys, span), axis=1)
    ot = ot_pair_distances(distributions, pairs, cfg)
    ap, an = pair_of_end.reshape(2, len(groups))
    return (ot.gather(ap) - ot.gather(an) + hinge_margin).relu().sum()


def otface_loss(batch: LabeledBatch, embeddings: Tensor, distributions,
                weights: ClassifierWeights, margin_cfg: MarginConfig,
                sinkhorn_cfg: SinkhornConfig, hinge_margin: float = 0.0,
                lambda_ot: float = 1.0, cap_per_anchor: int | None = None,
                mining_enabled: bool = True) -> LossBreakdown:
    """Combined objective: margin softmax over the batch plus the OT
    triplet loss over mined hard groups.

    With mining disabled (or no groups mined) the total IS the margin
    loss tensor, so degradation to the margin-only method is exact.
    """
    margin = cross_entropy(
        margin_logits(embeddings, weights, batch.labels, margin_cfg),
        batch.labels,
    )
    groups = mine_hard_groups(batch, cap_per_anchor) if mining_enabled else []
    if not groups:
        return LossBreakdown(margin_loss=margin, ot_loss=Tensor(0.0),
                             total=margin, num_hard_groups=0)
    ot = ot_triplet_loss(groups, distributions, sinkhorn_cfg, hinge_margin) * lambda_ot
    return LossBreakdown(margin_loss=margin, ot_loss=ot, total=margin + ot,
                         num_hard_groups=len(groups))
