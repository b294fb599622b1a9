"""Hard sample group mining inside a mini-batch.

A group (anchor, positive, negative) is hard when the negative is more
cosine-similar to the anchor than the positive is (strict inequality;
ties do not qualify).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import row_norms


@dataclass(frozen=True)
class HardGroup:
    anchor: int
    positive: int
    negative: int


@dataclass
class LabeledBatch:
    """Per-sample embeddings plus class labels, aligned by index."""

    embeddings: np.ndarray  # N x d
    labels: np.ndarray      # N

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 2:
            raise ContractError(
                f"batch needs an N x d embedding matrix with N >= 2, "
                f"got shape {self.embeddings.shape}"
            )
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ContractError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.embeddings.shape[0]} embeddings"
            )
        row_norms(self.embeddings)


def similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    rows = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    return np.clip(rows @ rows.T, -1.0, 1.0)


def mine_hard_groups(batch: LabeledBatch,
                     cap_per_anchor: int | None = None) -> list[HardGroup]:
    """All (a, p, n) with matching a/p labels, a != p, a/n labels differing,
    and sim(a, p) < sim(a, n).

    Without a cap this is exactly the full triple enumeration. With a cap,
    the hardest triples per anchor are kept, ranked by
    sim(a, n) - sim(a, p) descending, ties broken by (p, n) index order.
    """
    if cap_per_anchor is not None and cap_per_anchor <= 0:
        raise ContractError(f"cap_per_anchor must be positive, got {cap_per_anchor}")
    sim = similarity_matrix(batch.embeddings)
    labels = batch.labels
    n = labels.shape[0]
    groups: list[HardGroup] = []
    for a in range(n):
        same = labels == labels[a]
        pos_idx = np.nonzero(same)[0]
        pos_idx = pos_idx[pos_idx != a]
        neg_idx = np.nonzero(~same)[0]
        if pos_idx.size == 0 or neg_idx.size == 0:
            continue
        # violation margin per (p, n) pair; > 0 means a hard group
        margin = sim[a, neg_idx][None, :] - sim[a, pos_idx][:, None]
        pi, ni = np.nonzero(margin > 0.0)
        if pi.size == 0:
            continue
        if cap_per_anchor is not None and pi.size > cap_per_anchor:
            # stable sort keeps (p, n) index order among equal margins
            order = np.argsort(-margin[pi, ni], kind="stable")[:cap_per_anchor]
            pi, ni = pi[order], ni[order]
        groups.extend(
            HardGroup(a, int(pos_idx[p]), int(neg_idx[q]))
            for p, q in zip(pi, ni)
        )
    return groups
