"""Entropic optimal transport between uniform discrete distributions.

Both marginals are 1/n and the plan is P = exp((f_i + g_j - C_ij) / eps)
for dual potentials f, g. One private solve, `_solve`, handles a (B, n, n)
cost stack: an epsilon ladder, plain Sinkhorn updates on a kernel that each
level stabilises by the last level's potentials, so it stays normal at any
epsilon, and batched Newton for the problems still above tolerance. `sinkhorn_log_domain`
is that solve for one cost, reporting the plan's transport cost <C, P>.
`ot_distance` is it as one autodiff tape node, polished to a violation near
`POLISH_TOL`, whose value is the entropic objective <C, P> - eps * H(P) and
whose gradient with respect to C is therefore the plan itself. An exact
permutation-enumeration oracle covers n <= 8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalRegimeError
from .tensor import Tensor, as_tensor, normalize_rows


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
            if not (value > 0 and math.isfinite(value)):  # NaN fails both
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
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
    top = kernel.max(axis=-2, keepdims=True)
    kernel = np.exp(kernel - top)
    scale = r / (np.ones(cost.shape[-1]) @ kernel)[:, None, :]
    g = eps * (np.log(scale) - top)
    kernel *= scale  # exp((f + g - C) / eps); every column sums to r
    u, v = np.ones_like(f), np.ones_like(f)
    violation = np.empty(len(cost))
    iters = np.zeros(len(cost), dtype=np.int64)
    window = STALL_WINDOW
    history = np.empty((window + 1, len(cost)))
    active, k, kt, uk = np.arange(len(cost)), kernel, kernel.mT, u
    # column sums of the plan are v_j (K^T u)_j once u has been updated
    ktu = kt @ uk
    t = 0
    while True:
        t += 1
        vk = r / ktu
        uk = r / (k @ vk)
        ktu = kt @ uk
        viol = np.abs(vk * ktu - r).max(axis=1)[:, 0]
        history[t % (window + 1), active] = viol
        stop = (viol <= tol) | (t >= budget)
        if t > window:
            rate = viol / history[(t - window) % (window + 1), active]
            stop |= rate > 0.5
            stop |= viol * rate ** ((budget - t) / window) > tol
        if stop.any():
            done = active[stop]
            u[done], v[done] = uk[stop], vk[stop]
            violation[done], iters[done] = viol[stop], t
            if stop.all():
                break
            keep = ~stop
            active, k, uk, ktu = (a[keep] for a in (active, k, uk, ktu))
            kt = k.mT
    return f + eps * np.log(u), g + eps * np.log(v).mT, violation, iters


def _schur_solve(gram: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Column part b of a solve with the marginal Jacobian [[diag(rows), P],
    [P^T, diag(cols)]] of a (B, n, n) stack, b_n = 0 pinning its (1, -1)
    null direction: the (n-1) Schur block diag(cols) - `gram`, with `gram`
    = P^T diag(1 / rows) P over the first n-1 columns, against `rhs`, the
    (B, n-1) right side once the row part is eliminated.
    """
    schur = -gram
    schur.reshape(len(gram), -1)[:, ::cols.shape[-1]] += (1.0 + SCHUR_JITTER) * cols[..., :-1]
    b = np.linalg.solve(schur, rhs[..., None])[..., 0]
    return np.concatenate([b, np.zeros((len(b), 1))], axis=-1)


def _newton(plan: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Damped Newton steps (Brauer et al. 2017) on the column scalings of a
    (B, n, n) stack of plans, the rows normalised exactly each round, until
    each violation reaches `tol` or `NEWTON_STEPS` run out. Returns the
    plans, their violations and the steps each took.
    """
    n = plan.shape[-1]
    r, ones = 1.0 / n, np.ones(n)
    active, p = np.arange(len(plan)), plan
    plan, violation = np.empty_like(plan), np.empty(len(plan))
    steps = np.zeros(len(plan), dtype=np.int64)
    step = 0
    while True:
        p = p * (r / (p @ ones))[..., None]
        cols = ones @ p
        residual = r - cols
        viol = np.abs(residual).max(axis=-1)
        stop = (viol <= tol) | (step == NEWTON_STEPS)
        if stop.any():
            done = active[stop]
            plan[done], violation[done], steps[done] = p[stop], viol[stop], step
            if stop.all():
                return plan, violation, steps
            keep = ~stop
            active, p, cols, residual = (v[keep] for v in (active, p, cols, residual))
        step += 1
        pinned = p[..., :-1]
        db = _schur_solve(n * (pinned.mT @ pinned), cols, residual[:, :-1])
        # a shift of the column potentials is absorbed by the row
        # normalisation; damp wild steps
        db -= (db @ ones)[:, None] / n
        db *= np.minimum(1.0, 1.0 / np.abs(db).max(axis=-1))[:, None]
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
    stuck = np.flatnonzero(violation > tol)
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


def ot_distance(m1: Tensor, m2: Tensor, cfg: SinkhornConfig) -> Tensor:
    """Differentiable entropic OT between n x d feature distributions.

    Takes one pair of (n, d) distributions and returns a scalar, or two
    (B, n, d) stacks and returns the B pairwise values: the entropic
    objective <C, P*> - epsilon * H(P*), H(P) = -sum P (log P - 1), of the
    converged plan P* for the cosine cost C built on the tape. P* minimises
    that objective, so by the envelope theorem (Cuturi 2013) its gradient
    with respect to C is P* and the backward needs no solve. A pair Newton
    leaves above `POLISH_TOL` raises.
    """
    cfg.validate()
    m1, m2 = as_tensor(m1), as_tensor(m2)
    if m1.shape != m2.shape or len(m1.shape) not in (2, 3):
        raise ContractError(
            f"distributions must share an n x d or B x n x d shape, "
            f"got {m1.shape} and {m2.shape}"
        )
    cost = (1.0 - normalize_rows(m1) @ normalize_rows(m2).mT).clip(0.0, 2.0)
    stack = cost.data.reshape((-1,) + cost.shape[-2:])
    eps = cfg.epsilon
    plan, violation, _ = _solve(stack, eps, POLISH_TOL, cfg.unroll_iters)
    stuck = violation > POLISH_TOL
    if stuck.any():
        raise NumericalRegimeError(
            f"OT pairs {np.flatnonzero(stuck).tolist()} did not converge at epsilon={eps}: "
            f"marginal violation {violation.max():.2e} after Newton")
    ones = np.ones(stack.shape[-1])
    # -epsilon * H(P) = epsilon * sum P (log P - 1), with 0 log 0 = 0
    log_plan = np.log(plan, out=np.zeros_like(plan), where=plan > 0.0)
    value = (stack * plan) @ ones @ ones + eps * (plan * (log_plan - 1.0)).sum(axis=(-2, -1))
    def _bw(out_grad):
        cost._accum((np.reshape(out_grad, (-1, 1, 1)) * plan).reshape(cost.shape))
    return Tensor._make(value.reshape(cost.shape[:-2]), (cost,), _bw)
