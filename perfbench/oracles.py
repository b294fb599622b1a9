"""Independent reference computations and the output checks built on them.

Nothing here calls the program's solvers, miner or evaluation code: each
oracle recomputes its answer from the definition with plain numpy (and
scipy's assignment solver). Every `check_*` function returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

# ---------------------------------------------------------------------------
# optimal transport
# ---------------------------------------------------------------------------


def exact_ot(cost: np.ndarray) -> float:
    """Unregularized OT between uniform n-point marginals. The Birkhoff
    polytope's vertices are permutations, so an assignment solve is exact."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / cost.shape[0])


def exact_ot_enumerated(cost: np.ndarray) -> float:
    """Same value by enumerating every permutation (n <= 6 in practice)."""
    n = cost.shape[0]
    idx = np.arange(n)
    return min(float(cost[idx, list(p)].sum())
               for p in itertools.permutations(range(n))) / n


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def sinkhorn_reference(costs: np.ndarray, eps: float, tol: float = 1e-12,
                       max_iters: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
    """Plain log-domain Sinkhorn on a (B, n, n) stack of costs, iterated
    until every plan's marginals are within `tol` of 1/n or the budget
    runs out.

    Returns (values <C, P>, marginal errors); a value whose error exceeds
    `tol` is not a reference and must not be used as one.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.shape[-1]
    log_r = -np.log(n)
    log_k = -costs / eps
    f = np.zeros(costs.shape[:-1] + (1,))
    for it in range(max_iters):
        g = log_r - _lse(log_k + f, axis=-2)
        f = log_r - _lse(log_k + g, axis=-1)
        if it % 10 == 0:
            plan = np.exp(log_k + f + g)
            err = np.abs(plan.sum(axis=-2) - 1.0 / n).max(axis=-1)
            if np.all(err <= tol):
                break
    plan = np.exp(log_k + f + g)
    values = (costs * plan).sum(axis=(-2, -1))
    err = np.maximum(np.abs(plan.sum(axis=-1) - 1.0 / n).max(axis=-1),
                     np.abs(plan.sum(axis=-2) - 1.0 / n).max(axis=-1))
    return values, err


def check_ot_value(value: float, exact: float, slack: float = 1e-12) -> list[str]:
    """An entropic plan is feasible, so its transport cost cannot undercut
    the exact optimum."""
    if not value >= exact - slack:
        return [f"OT value {value!r} below exact optimum {exact!r}"]
    return []


def check_plan(plan: np.ndarray, tol: float) -> list[str]:
    """Both marginals of a plan between uniform n-point measures."""
    n = plan.shape[0]
    err = max(np.abs(plan.sum(axis=1) - 1.0 / n).max(),
              np.abs(plan.sum(axis=0) - 1.0 / n).max())
    if not (np.isfinite(plan).all() and (plan >= 0).all() and err <= tol):
        return [f"plan marginals off by {err:.3e} (> {tol:g})"]
    return []


def check_gap_ladder(values: list[float], exact: float,
                     final_gap: float = 0.02, slack: float = 1e-10) -> list[str]:
    """Values at decreasing epsilon: the gap to the exact optimum shrinks
    monotonically and ends below `final_gap`."""
    gaps = [v - exact for v in values]
    out = []
    if not gaps[-1] < final_gap:
        out.append(f"gap {gaps[-1]:.4f} at the smallest epsilon (>= {final_gap})")
    if any(tight > wide + slack for wide, tight in zip(gaps, gaps[1:])):
        out.append(f"gap not monotone in epsilon: {gaps}")
    return out


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------


def brute_force_groups(embeddings: np.ndarray, labels: np.ndarray,
                       cap: int | None) -> list[tuple[int, int, int]]:
    """Every (a, p, n) with label[a] == label[p], a != p, label[a] != label[n]
    and sim(a, n) > sim(a, p), by triple loop. With a cap, each anchor keeps
    its `cap` largest sim(a, n) - sim(a, p); ties go to the smaller
    (p, n) in index order."""
    rows = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    sim = np.clip(rows @ rows.T, -1.0, 1.0)
    size = labels.shape[0]
    out = []
    for a in range(size):
        hard = []
        for p in range(size):
            if p == a or labels[p] != labels[a]:
                continue
            for q in range(size):
                if labels[q] == labels[a]:
                    continue
                violation = sim[a, q] - sim[a, p]
                if violation > 0.0:
                    hard.append((-violation, p, q))
        hard.sort()  # largest violation first, then (p, q) ascending
        out.extend((a, p, q) for _, p, q in hard[:cap])
    return out


def check_groups(got: list[tuple[int, int, int]], embeddings: np.ndarray,
                 labels: np.ndarray, cap: int | None) -> list[str]:
    want = brute_force_groups(embeddings, labels, cap)
    if sorted(got) != sorted(want):
        extra = sorted(set(got) - set(want))[:3]
        missing = sorted(set(want) - set(got))[:3]
        return [f"miner differs from brute force: {len(got)} vs {len(want)} "
                f"groups, extra {extra}, missing {missing}"]
    return []


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------


def _counts_at_or_above(sorted_scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    return sorted_scores.shape[0] - np.searchsorted(sorted_scores, thresholds, "left")


def best_threshold(scores: np.ndarray, same: np.ndarray) -> float:
    """Accuracy-maximising threshold over the documented candidates
    (midpoints of consecutive distinct scores plus one sentinel below and
    above), by sort + cumulative counts; the smallest threshold wins ties."""
    uniq = np.unique(scores)
    cands = np.concatenate(([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0,
                            [uniq[-1] + 1.0]))
    gen = np.sort(scores[same])
    imp = np.sort(scores[~same])
    correct = _counts_at_or_above(gen, cands) \
        + (imp.shape[0] - _counts_at_or_above(imp, cands))
    return float(cands[int(np.argmax(correct))])  # argmax: first maximum


def kfold_reference(scores: np.ndarray, same: np.ndarray, fold: np.ndarray
                    ) -> tuple[list[float], list[float]]:
    """(per-fold accuracies, thresholds), each fold scored at the threshold
    chosen on the other folds."""
    accs, thresholds = [], []
    for f in np.unique(fold):
        held = fold == f
        t = best_threshold(scores[~held], same[~held])
        thresholds.append(t)
        accs.append(float(np.count_nonzero((scores[held] >= t) == same[held])
                          / np.count_nonzero(held)))
    return accs, thresholds


def roc_reference(scores: np.ndarray, same: np.ndarray) -> list[tuple[float, float]]:
    """(FAR, TAR) at every distinct score, thresholds descending."""
    t = np.unique(scores)[::-1]
    gen, imp = np.sort(scores[same]), np.sort(scores[~same])
    far = _counts_at_or_above(imp, t) / imp.shape[0]
    tar = _counts_at_or_above(gen, t) / gen.shape[0]
    return [(float(a), float(b)) for a, b in zip(far, tar)]


def tar_at_far_reference(scores: np.ndarray, same: np.ndarray,
                         targets: list[float]) -> dict[float, float | None]:
    """TAR at the smallest observed score whose FAR is within the target;
    None where the target is finer than one impostor."""
    t = np.unique(scores)
    gen, imp = np.sort(scores[same]), np.sort(scores[~same])
    far = _counts_at_or_above(imp, t) / imp.shape[0]  # non-increasing in t
    out: dict[float, float | None] = {}
    for target in targets:
        ok = np.nonzero(far <= target)[0]
        if target < 1.0 / imp.shape[0] or ok.size == 0:
            out[target] = None
            continue
        thr = t[ok[0]]
        out[target] = float(_counts_at_or_above(gen, np.array([thr]))[0] / gen.shape[0])
    return out


def check_kfold(fold_accuracies: list[float], thresholds: list[float],
                mean_accuracy: float, scores: np.ndarray, same: np.ndarray,
                fold: np.ndarray) -> list[str]:
    accs, ts = kfold_reference(scores, same, fold)
    out = []
    if list(map(float, thresholds)) != ts:
        out.append(f"k-fold thresholds {thresholds} != reference {ts}")
    if list(map(float, fold_accuracies)) != accs:
        out.append(f"fold accuracies {fold_accuracies} != reference {accs}")
    if mean_accuracy != float(np.mean(accs)):
        out.append(f"mean accuracy {mean_accuracy!r} != {float(np.mean(accs))!r}")
    return out


def check_roc(points: list[tuple[float, float]], scores: np.ndarray,
              same: np.ndarray) -> list[str]:
    out = []
    far = [p[0] for p in points]
    tar = [p[1] for p in points]
    if any(b < a for a, b in zip(far, far[1:])) or any(b < a for a, b in zip(tar, tar[1:])):
        out.append("ROC is not monotone")
    if [tuple(map(float, p)) for p in points] != roc_reference(scores, same):
        out.append("ROC points differ from the reference sweep")
    return out


def check_tar_at_far(got: dict, scores: np.ndarray, same: np.ndarray,
                     targets: list[float]) -> list[str]:
    want = tar_at_far_reference(scores, same, targets)
    if {float(k): v for k, v in got.items()} != want:
        return [f"TAR@FAR {got} != reference {want}"]
    return []


def check_scores(scores: np.ndarray, embeddings: np.ndarray, left: np.ndarray,
                 right: np.ndarray, tol: float = 1e-12) -> list[str]:
    a, b = embeddings[left], embeddings[right]
    cos = np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1)
                                          * np.linalg.norm(b, axis=1))
    err = float(np.max(np.abs(np.clip(cos, -1.0, 1.0) - scores)))
    return [] if err <= tol else [f"pair scores off from cosines by {err:.2e}"]


def check_unit_norm(embeddings: np.ndarray, tol: float = 1e-12) -> list[str]:
    err = float(np.max(np.abs(np.linalg.norm(embeddings, axis=1) - 1.0)))
    return [] if err <= tol else [f"embedding norms off from 1 by {err:.2e}"]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def directional_check(loss_at, params: dict[str, np.ndarray],
                      grads: dict[str, np.ndarray], rng: np.random.Generator,
                      h: float = 1e-5, rel_tol: float = 1e-4) -> list[str]:
    """Compare <grad, v> with (L(x + h v) - L(x - h v)) / 2h for one random
    unit direction v over every parameter."""
    v = {k: rng.normal(size=p.shape) for k, p in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in v.values()))
    v = {k: d / norm for k, d in v.items()}
    analytic = sum(float((grads.get(k, np.zeros_like(d)) * d).sum())
                   for k, d in v.items())
    plus = loss_at({k: p + h * v[k] for k, p in params.items()})
    minus = loss_at({k: p - h * v[k] for k, p in params.items()})
    fd = (plus - minus) / (2.0 * h)
    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
    if not rel <= rel_tol:
        return [f"directional derivative {analytic!r} vs central difference "
                f"{fd!r}: rel err {rel:.2e} (> {rel_tol:g})"]
    return []
