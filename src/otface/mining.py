"""Hard sample group mining inside a mini-batch.

A group (anchor, positive, negative) is hard when the negative is more
cosine-similar to the anchor than the positive is (strict inequality;
ties do not qualify).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .tensor import row_norms


# Most (anchor, positive, negative) margin cells the miner builds at once.
_MARGIN_CELLS = 1 << 20


class HardGroup(NamedTuple):
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
    and sim(a, p) < sim(a, n), sorted by (a, p, n).

    Without a cap this is exactly the full triple enumeration. With a cap,
    an anchor with more hard triples keeps its hardest ones, in order of
    sim(a, n) - sim(a, p) descending, ties broken by (p, n) index order.
    """
    if cap_per_anchor is not None and cap_per_anchor <= 0:
        raise ContractError(f"cap_per_anchor must be positive, got {cap_per_anchor}")
    sim = similarity_matrix(batch.embeddings)
    same = batch.labels[:, None] == batch.labels[None, :]
    block = max(1, _MARGIN_CELLS // sim.size)
    triples = []
    for lo in range(0, len(sim), block):
        rows = np.arange(lo, min(lo + block, len(sim)))
        s, pos, neg = sim[rows], same[rows], ~same[rows]
        pos[np.arange(rows.size), rows] = False
        # margin[a, p, q] = sim(a, q) - sim(a, p); > 0 means a hard group
        margin = s[:, None, :] - s[:, :, None]
        a, p, q = np.nonzero((margin > 0.0) & pos[:, :, None] & neg[:, None, :])
        if cap_per_anchor is not None:
            count = np.bincount(a, minlength=rows.size)
            # rank anchors over the cap; the stable sort keeps (p, n) order on ties
            rank = np.where(count[a] > cap_per_anchor, -margin[a, p, q], 0.0)
            order = np.lexsort((rank, a))  # a is sorted, so a[order] == a
            keep = order[np.arange(a.size) - np.searchsorted(a, a) < cap_per_anchor]
            a, p, q = a[keep], p[keep], q[keep]
        triples.append(np.stack([rows[a], p, q], axis=1))
    return list(map(HardGroup._make, np.concatenate(triples).tolist()))
