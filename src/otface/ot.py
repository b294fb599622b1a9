"""Entropic optimal transport between uniform discrete distributions.

Both marginals are 1/n and the plan is P = exp((f_i + g_j - C_ij) / eps)
for dual potentials f, g. One private solve, `_solve`, handles a (B, n, n)
cost stack: an epsilon ladder, plain Sinkhorn updates on a kernel that each
level stabilises by the last level's potentials, so it stays normal at any
epsilon, and batched Newton for the problems still above tolerance. At
these sizes numpy's per-call dispatch, not arithmetic, bounds the loops, so
they are written for few calls per iteration. `sinkhorn_log_domain` is that
solve for one cost, reporting the plan's transport cost <C, P>.
`ot_pair_distances` is one autodiff tape node from a sample stack and index
pairs to the pairs' entropic objectives <C, P> - eps * H(P), cosine costs
and plans polished near `POLISH_TOL`, whose gradient with respect to C is
the plan; `ot_distance` is that node for one pair or two paired stacks. An
exact permutation-enumeration oracle covers n <= 8.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ContractError, DegenerateInputError,
                     NumericalRegimeError)
from .tensor import EPS_NORM, Tensor, as_tensor, stack


@dataclass
class SinkhornConfig:
    """Solver knobs; epsilon defaults to 1% of the max cosine-distance (2)."""

    epsilon: float = 0.02
    max_iters: int = 200  # plain iterations per ladder level, `sinkhorn_log_domain`
    marginal_tol: float = 1e-6
    # Only the log-domain solver exists; False is rejected.
    log_domain: bool = True
    # Plain iterations per ladder level of `ot_distance`, before Newton.
    unroll_iters: int = 50

    def validate(self) -> "SinkhornConfig":
        for name in ("epsilon", "max_iters", "marginal_tol", "unroll_iters"):
            value = getattr(self, name)
            # NaN fails both comparisons, and ints compare exactly, so none overflows
            if not 0 < value <= sys.float_info.max:
                raise ConfigurationError(f"{name} must be positive and finite, at most "
                                         f"{sys.float_info.max:.6g}, got {value}")
        if not self.log_domain:
            raise ConfigurationError("log_domain=False is not supported: the "
                                     "standard-domain solver was removed")
        return self


@dataclass
class TransportPlan:
    """Coupling matrix with solver diagnostics.

    `iterations_used` counts the plain scaling iterations of every level
    of the epsilon ladder, `max_iters` at most per level, plus the Newton
    steps that followed them.
    """

    plan: np.ndarray
    value: float
    iterations_used: int
    marginal_violation: float
    converged: bool


def _check_cost(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ContractError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ContractError("cost matrix must be finite")
    if np.any(cost < 0.0):
        raise ContractError("cost matrix must be nonnegative")
    return cost


# The plain updates have stalled once the marginal violation has not
# halved over this many iterations. Windows of 10 to 100 iterations all
# converge every criterion-1 problem and n = 16 tap cost; a longer window
# spends more plain iterations before the hand-off.
STALL_WINDOW = 20

# Levels of the epsilon ladder above the target stop at this violation:
# they only move the potentials near the next level's fixed point. Running
# them to `marginal_tol` made random-cost solves about 45% slower.
COARSE_TOL = 1e-2

# Newton polishes every `ot_distance` pair to this violation, far below
# what central differences with h = 1e-4 can resolve, within this many steps.
POLISH_TOL = 1e-12
NEWTON_STEPS = 50

# Relative jitter on the Schur block's diagonal. Plan entries near 1e-95
# split the support into blocks that leave the block singular in floats.
SCHUR_JITTER = 1e-13


def _plain(cost: np.ndarray, eps: float, f: np.ndarray, tol: float,
           budget: int) -> tuple[np.ndarray, ...]:
    """Alternating updates at `eps` on a (B, n, n) cost stack from row
    potentials `f` (B, n, 1), in cost units.

    The kernel exp((f_i + g_j - C_ij) / eps), with g the column potentials
    `f` implies, stays normal at every level of the ladder, so the updates
    run on scalings. A problem stops when its violation reaches `tol`,
    stops halving over `STALL_WINDOW` iterations, or, at the rate seen over
    that window, cannot reach `tol` within `budget` iterations. Returns f,
    g (B, 1, n), the violations and the iterations run.
    """
    r = 1.0 / cost.shape[-1]
    kernel = (f - cost) / eps
    top = np.maximum.reduce(kernel, axis=-2, keepdims=True)
    kernel = np.exp(kernel - top)
    scale = r / (np.ones(cost.shape[-1]) @ kernel)[:, None, :]
    g = eps * (np.log(scale) - top)
    kernel *= scale  # exp((f + g - C) / eps); every column sums to r
    u, v = np.empty_like(f), np.empty_like(f)
    u.fill(1.0)  # the first update's row scalings
    violation, iters = np.empty(len(cost)), np.empty(len(cost), dtype=np.int64)
    window = STALL_WINDOW
    # row t % (window + 1) holds iteration t's violations, one column per
    # active problem
    history = np.empty((window + 1, len(cost)))
    active, k, kt = np.arange(len(cost)), kernel, kernel.mT
    # column sums of the plan are v_j (K^T u)_j once u has been updated
    ktu = kt @ u
    t = 0
    while True:
        t += 1
        vk = r / ktu
        uk = r / (k @ vk)
        ktu = kt @ uk
        viol = np.maximum.reduce(np.abs(vk * ktu - r), axis=(1, 2))
        if t >= budget:  # every problem stops, so no mask is needed
            stop, done = slice(None), active
        else:
            history[t % (window + 1)] = viol
            if t > window:
                rate = viol / history[(t - window) % (window + 1)]
                forecast = viol * rate ** ((budget - t) / window)
                # NaN-ignoring reduces, so each test is `any` of its mask
                if not (np.fmin.reduce(viol) <= tol or np.fmax.reduce(rate) > 0.5
                        or np.fmax.reduce(forecast) > tol):
                    continue
                stop = (viol <= tol) | (rate > 0.5) | (forecast > tol)
            elif np.fmin.reduce(viol) > tol:
                continue
            else:
                stop = viol <= tol
            done = active[stop]
        u[done], v[done], violation[done], iters[done] = uk[stop], vk[stop], viol[stop], t
        if len(done) == len(active):
            break
        keep = ~stop
        active, k, uk, ktu, history = active[keep], k[keep], uk[keep], ktu[keep], history[:, keep]
        kt = k.mT
    return f + eps * np.log(u), g + eps * np.log(v).mT, violation, iters


def _newton(plan: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Damped Newton steps (Brauer et al. 2017) on the column scalings of a
    (B, n, n) stack of plans, the rows normalised exactly each round, until
    each violation reaches `tol` or `NEWTON_STEPS` run out. Returns the
    plans, their violations and the steps each took.

    A step solves the marginal Jacobian [[diag(rows), P], [P^T, diag(cols)]]
    for the column part, pinning its last entry to 0 against the (1, -1)
    null direction: the (n-1) Schur block diag(cols) - n P^T P over the
    first n-1 columns, the rows all being 1/n.
    """
    n = plan.shape[-1]
    r, ones = 1.0 / n, np.ones(n)
    active, p = np.arange(len(plan)), plan
    plan, violation = np.empty_like(plan), np.empty(len(plan))
    steps = np.empty(len(plan), dtype=np.int64)
    step = 0
    while True:
        p = p * (r / (p @ ones))[..., None]
        cols = ones @ p
        residual = r - cols
        viol = np.maximum.reduce(np.abs(residual), axis=-1)
        if step == NEWTON_STEPS or np.fmin.reduce(viol) <= tol:
            stop = (viol <= tol) | (step == NEWTON_STEPS)
            done = active[stop]
            plan[done], violation[done], steps[done] = p[stop], viol[stop], step
            if len(done) == len(active):
                return plan, violation, steps
            keep = ~stop
            active, p, cols, residual = active[keep], p[keep], cols[keep], residual[keep]
        step += 1
        pinned = p[..., :-1]
        schur = (pinned.mT @ pinned) * -n
        schur.reshape(len(p), -1)[:, ::n] += (1.0 + SCHUR_JITTER) * cols[..., :-1]
        db = np.zeros(cols.shape)
        db[:, :-1] = np.linalg.solve(schur, residual[:, :-1, None])[..., 0]
        # a shift of the column potentials is absorbed by the row
        # normalisation; damp wild steps
        db -= (db @ ones)[:, None] / n
        db *= np.minimum(1.0, 1.0 / np.maximum.reduce(np.abs(db), axis=-1))[:, None]
        p = p * np.exp(db)[:, None, :]


def _solve(cost: np.ndarray, eps: float, tol: float, budget: int
           ) -> tuple[np.ndarray, ...]:
    """Solve a (B, n, n) cost stack to marginal violation `tol`.

    All problems walk one epsilon ladder (Schmitzer 2019) down by factors
    of ten to `eps`, each level warm-started from the last one's potentials,
    since a cold start at small epsilon can lock onto an infeasible support.
    The top level, max(eps, 1, C.max() / 10), keeps C / eps within the
    factor each later level adds; levels above `eps` stop at `COARSE_TOL`.
    `budget` caps the plain iterations of each level, so every problem runs
    at least one at `eps`; Newton polishes those left above `tol`. Returns
    the plans, their violations and the iterations (plain plus Newton).
    """
    levels = []
    level = max(eps, 1.0, float(cost.max()) / 10.0)
    while level > eps:
        levels.append(level)
        level /= 10.0
    f = np.zeros(cost.shape[:-1] + (1,))
    iters = np.zeros(len(cost), dtype=np.int64)
    for level in levels + [eps]:
        f, g, violation, used = _plain(cost, level, f,
                                       COARSE_TOL if level > eps else tol, budget)
        iters += used
    plan = np.exp((f + g - cost) / eps)
    stuck = np.flatnonzero(~(violation <= tol))  # NaN included
    if stuck.size:
        plan[stuck], violation[stuck], steps = _newton(plan[stuck], min(tol, POLISH_TOL))
        iters[stuck] += steps
    return plan, violation, iters


def sinkhorn_log_domain(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Entropic OT plan of one (n, n) cost: `_solve` with B = 1, whose
    plain iterations at each ladder level `cfg.max_iters` caps."""
    cfg.validate()
    cost = _check_cost(cost)
    plan, violation, iters = _solve(cost[None], cfg.epsilon, cfg.marginal_tol, cfg.max_iters)
    return TransportPlan(
        plan=plan[0],
        value=float((cost * plan[0]).sum()),
        iterations_used=int(iters[0]),
        marginal_violation=float(violation[0]),
        converged=bool(violation[0] <= cfg.marginal_tol),
    )


# The benchmark harness calls the solver as `ot.solve`.
solve = sinkhorn_log_domain


def exact_ot_uniform(cost: np.ndarray) -> float:
    """Exact unregularized OT value for uniform marginals, by enumerating
    all permutations. Only the value is the contract; optimal permutations
    need not be unique."""
    cost = _check_cost(cost)
    n = cost.shape[0]
    if n > 8:
        raise ContractError(f"exact enumeration limited to n <= 8, got n = {n}")
    best = min(
        sum(cost[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    return best / n


def ot_pair_distances(samples, pairs, cfg: SinkhornConfig) -> Tensor:
    """Differentiable entropic OT values of B pairs of n x d distributions.

    `samples` is a (U, n, d) tensor or a mapping from index to (n, d)
    tensor; `pairs` is (B, 2) sample indices. Each value is the entropic
    objective <C, P*> - epsilon * H(P*), H(P) = -sum P (log P - 1), of the
    converged plan P* for the pair's cosine cost C; P* minimises it, so its
    gradient with respect to C is P* (envelope theorem, Cuturi 2013). Each
    paired sample is normalised once, and an atom with norm at most
    `EPS_NORM` raises naming the sample's index; the costs are one batched
    GEMM; a pair Newton leaves above `POLISH_TOL` raises. The backward
    replays the fused normalisation, cost and gathers op by op, pair end by
    pair end, each end scattered by its own `bincount`, so its bytes are
    those of that composition.
    """
    cfg.validate()
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not pairs.size:
        raise ContractError(f"pairs must be a non-empty (B, 2) array, got shape {pairs.shape}")
    used, slot = np.unique(pairs, return_inverse=True)
    slot = slot.reshape(pairs.shape)
    if isinstance(samples, Tensor):
        if used[0] < 0 or used[-1] >= len(samples.data):
            raise ContractError(f"pairs {pairs.tolist()} must index the "
                                f"{len(samples.data)} samples")
        rows, x = pairs, np.take(samples.data, used, axis=0)
    else:  # stacked once, over the paired samples
        samples = stack([samples[i] for i in used.tolist()])
        rows, x = slot, samples.data
    if x.ndim != 3:
        raise ContractError(f"samples must be n x d distributions, got shape {x.shape[1:]}")
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    bad = np.argwhere(~(np.isfinite(norms) & (norms > EPS_NORM)))
    if bad.size:
        row, atom, _ = bad[0]
        raise DegenerateInputError(
            f"sample {used[row]} atom {atom} has norm {norms[row, atom, 0]:.3e}")
    unit = x / norms
    left, right = np.take(unit, slot[:, 0], axis=0), np.take(unit, slot[:, 1], axis=0)
    raw = 1.0 - left @ right.mT
    cost = np.clip(raw, 0.0, 2.0)
    eps = cfg.epsilon
    plan, violation, _ = _solve(cost, eps, POLISH_TOL, cfg.unroll_iters)
    stuck = ~(violation <= POLISH_TOL)  # NaN included
    if stuck.any():
        raise NumericalRegimeError(
            f"OT pairs {np.flatnonzero(stuck).tolist()} did not converge at epsilon={eps}: "
            f"marginal violation {violation.max():.2e} after Newton")
    ones = np.ones(cost.shape[-1])
    # -epsilon * H(P) = epsilon * sum P (log P - 1), with 0 log 0 = 0
    log_plan = np.log(plan, out=np.zeros_like(plan), where=plan > 0.0)
    value = (cost * plan) @ ones @ ones + eps * (plan * (log_plan - 1.0)).sum(axis=(-2, -1))

    def _bw(out_grad):
        g_dot = -((np.reshape(out_grad, (-1, 1, 1)) * plan) * ((raw >= 0.0) & (raw <= 2.0)))
        width = x[0].size

        def scatter(end, g):
            m, norm = np.take(x, slot[:, end], axis=0), np.take(norms, slot[:, end], axis=0)
            # the backward of m / sqrt((m * m).sum(-1)), op by op
            g_sq = (-g * m / (norm * norm)).sum(axis=-1, keepdims=True) * 0.5 / norm
            g_m = g / norm + g_sq * m + g_sq * m
            cells = (rows[:, end, None] * width + np.arange(width)).ravel()
            return np.bincount(cells, weights=g_m.ravel(), minlength=samples.data.size)
        full = scatter(0, g_dot @ right) + scatter(1, (left.mT @ g_dot).mT)
        samples._accum(full.reshape(samples.shape))
    return Tensor._make(value, (samples,), _bw)


def ot_distance(m1: Tensor, m2: Tensor, cfg: SinkhornConfig) -> Tensor:
    """`ot_pair_distances` for one pair of (n, d) distributions, a scalar,
    or for two (B, n, d) stacks paired row by row, the B values."""
    m1, m2 = as_tensor(m1), as_tensor(m2)
    if m1.shape != m2.shape or len(m1.shape) not in (2, 3):
        raise ContractError(
            f"distributions must share an n x d or B x n x d shape, "
            f"got {m1.shape} and {m2.shape}"
        )
    samples = stack([m1, m2]).reshape((-1,) + m1.shape[-2:])
    half = np.arange(len(samples.data) // 2)
    pairs = np.stack([half, half + len(half)], axis=1)
    return ot_pair_distances(samples, pairs, cfg).reshape(m1.shape[:-2])
