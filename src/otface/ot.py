"""Entropic optimal transport between uniform discrete distributions.

Both marginals are 1/n, the Gibbs kernel is K = exp(-C/epsilon) and the
Sinkhorn fixed point alternates v <- (1/n) / (K^T u), u <- (1/n) / (K v).
The one solver, `sinkhorn_log_domain`, iterates on log u and log v, so it
survives small epsilon. An exact permutation-enumeration oracle covers
n <= 8. `ot_distance` runs a fixed budget of kernel-domain iterations as
one autodiff tape node whose backward pass sweeps the stored iterates in
reverse, so gradients flow into both input distributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalRegimeError
from .tensor import Tensor, as_tensor, normalize_rows


@dataclass
class SinkhornConfig:
    """Solver knobs; epsilon defaults to 1% of the max cosine-distance (2)."""

    epsilon: float = 0.02
    max_iters: int = 200
    marginal_tol: float = 1e-6
    # Only the log-domain solver exists; False is rejected.
    log_domain: bool = True
    # Fixed iteration budget of the differentiable `ot_distance`.
    unroll_iters: int = 50
    # Subtract epsilon * H(P) from the reported ot_distance value.
    include_entropy: bool = False

    def validate(self) -> "SinkhornConfig":
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters <= 0:
            raise ConfigurationError(f"max_iters must be positive, got {self.max_iters}")
        if self.marginal_tol <= 0.0:
            raise ConfigurationError(
                f"marginal_tol must be positive, got {self.marginal_tol}"
            )
        if self.unroll_iters <= 0:
            raise ConfigurationError(
                f"unroll_iters must be positive, got {self.unroll_iters}"
            )
        if not self.log_domain:
            raise ConfigurationError("log_domain=False is not supported: the "
                                     "standard-domain solver was removed")
        return self


@dataclass
class TransportPlan:
    """Coupling matrix with solver diagnostics.

    `iterations_used` counts the plain scaling iterations of every level
    of the epsilon ladder, which `max_iters` caps, plus the Newton steps
    that followed them.
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


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def _violation(log_kernel: np.ndarray, log_u: np.ndarray, log_v: np.ndarray
               ) -> float:
    """Largest row or column marginal error of the plan the duals give."""
    plan = np.exp(log_u + log_kernel + log_v)
    n = plan.shape[0]
    return float(max(np.max(np.abs(plan.sum(axis=1) - 1.0 / n)),
                     np.max(np.abs(plan.sum(axis=0) - 1.0 / n))))


def _newton_polish(log_kernel: np.ndarray, log_u: np.ndarray, log_v: np.ndarray,
                   tol: float, max_steps: int = 50) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton steps on the dual marginal residuals.

    The alternating updates stall when competing transport patterns are
    nearly tied relative to epsilon; Newton converges quadratically to
    the same unique fixed point. The Jacobian's constant-shift nullspace
    is handled by the minimum-norm least-squares solve. The duals are an
    (n, 1) column `log_u` and a (1, n) row `log_v`.
    """
    n = log_kernel.shape[0]
    r = 1.0 / n
    steps = 0
    for steps in range(1, max_steps + 1):
        plan = np.exp(log_u + log_kernel + log_v)
        rows = plan.sum(axis=1)
        cols = plan.sum(axis=0)
        residual = np.concatenate([rows - r, cols - r])
        if np.max(np.abs(residual)) <= min(tol, 1e-13) * 10:
            break
        jac = np.block([[np.diag(rows), plan], [plan.T, np.diag(cols)]])
        delta = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        # damp wild steps far from the fixed point
        scale = min(1.0, 1.0 / np.max(np.abs(delta)))
        log_u = log_u + scale * delta[:n, None]
        log_v = log_v + scale * delta[None, n:]
    return log_u, log_v, steps


# The plain updates have stalled once the marginal violation has not
# halved over this many iterations. Windows of 10 to 100 iterations all
# converge every criterion-1 problem and n = 16 tap cost; a longer window
# spends more plain iterations before the hand-off.
STALL_WINDOW = 20

# Levels of the epsilon ladder above the target stop at this violation:
# they only move the potentials near the next level's fixed point. Running
# them to `marginal_tol` made random-cost solves about 45% slower.
COARSE_TOL = 1e-2


def _plain(log_kernel: np.ndarray, log_u: np.ndarray, tol: float, budget: int
           ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Alternating updates from `log_u` until the violation reaches `tol`,
    stops halving over `STALL_WINDOW` iterations, or, at the rate seen over
    that window, cannot reach `tol` within `budget` iterations.

    Returns the duals, an (n, 1) column and a (1, n) row, their violation
    (inf if no iteration ran) and the number of iterations run.
    """
    n = log_kernel.shape[0]
    log_r = -np.log(n)
    # Column log-sum-exps for the next v-update; after a u-update they
    # also give the plan's column sums, exp(log_v + lse_cols), while its
    # rows are exact.
    lse_cols = _lse(log_kernel + log_u, axis=0)
    log_v = log_r - lse_cols
    history: list[float] = []
    violation = np.inf
    iters = 0
    while iters < budget:
        iters += 1
        log_v = log_r - lse_cols
        log_u = log_r - _lse(log_kernel + log_v, axis=1)
        lse_cols = _lse(log_kernel + log_u, axis=0)
        violation = float(np.max(np.abs(np.exp(log_v + lse_cols) - 1.0 / n)))
        if violation <= tol:
            break
        history.append(violation)
        if len(history) > STALL_WINDOW:
            rate = violation / history[-1 - STALL_WINDOW]
            if rate > 0.5 or violation * rate ** ((budget - iters) / STALL_WINDOW) > tol:
                break
    return log_u, log_v, violation, iters


def sinkhorn_log_domain(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Sinkhorn scaling on log potentials, so exp(-C/eps) never underflows.

    Every solve walks an epsilon ladder (Schmitzer 2019) from max(eps, 1)
    down by factors of ten to `cfg.epsilon`, warm-starting each level from
    the last one's potentials; a cold start at very small epsilon can lock
    onto an infeasible support. Levels above the target stop at
    `COARSE_TOL`. If the target level's plain updates hand off before the
    marginals converge, Newton refinement of the dual potentials finishes
    the solve. `cfg.max_iters` caps the plain iterations of all levels.
    """
    cfg.validate()
    cost = _check_cost(cost)
    n = cost.shape[0]
    levels = []
    eps = max(cfg.epsilon, 1.0)
    while eps > cfg.epsilon:
        levels.append(eps)
        eps /= 10.0
    # potentials f = eps * log_u live in cost units, so they carry across levels
    f = np.zeros((n, 1))
    iters = 0
    for eps in levels + [cfg.epsilon]:
        tol = COARSE_TOL if eps > cfg.epsilon else cfg.marginal_tol
        log_kernel = -cost / eps
        log_u, log_v, violation, used = _plain(
            log_kernel, f / eps, tol, cfg.max_iters - iters
        )
        iters += used
        f = eps * log_u
    if violation > cfg.marginal_tol:
        log_u, log_v, steps = _newton_polish(
            log_kernel, log_u, log_v, cfg.marginal_tol
        )
        iters += steps
        violation = _violation(log_kernel, log_u, log_v)
    plan = np.exp(log_u + log_kernel + log_v)
    return TransportPlan(
        plan=plan,
        value=float((cost * plan).sum()),
        iterations_used=iters,
        marginal_violation=violation,
        converged=violation <= cfg.marginal_tol,
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


def _unrolled_sinkhorn(cost: Tensor, cfg: SinkhornConfig) -> Tensor:
    """One tape node from an (n, n) or (B, n, n) cost to the () or (B,)
    values of `cfg.unroll_iters` Sinkhorn updates from u = 1.

    The forward pass keeps every iterate; the backward pass sweeps them in
    reverse with vector updates only, then forms the kernel gradient as
    two GEMMs over the iteration axis.
    """
    c = cost.data
    eps, iters, entropic = cfg.epsilon, cfg.unroll_iters, cfg.include_entropy
    kernel = np.exp(-c * (1.0 / eps))
    if np.any(kernel.sum(axis=-1) == 0.0) or np.any(kernel.sum(axis=-2) == 0.0):
        raise NumericalRegimeError(
            f"Gibbs kernel underflows at epsilon={eps}; "
            "increase epsilon for the differentiable path"
        )
    r = 1.0 / c.shape[-1]
    kernel_t = kernel.mT
    # u[t] is the u of iteration t (u[0] = 1); v, K^T u and K v of
    # iteration t + 1 sit at index t
    u = np.empty((iters + 1,) + c.shape[:-1] + (1,))
    u[0] = 1.0
    v, ktu, kv = (np.empty_like(u[1:]) for _ in range(3))
    for t in range(iters):
        np.matmul(kernel_t, u[t], out=ktu[t])
        if not ktu[t].all():
            raise NumericalRegimeError("unrolled Sinkhorn underflowed; increase epsilon")
        np.divide(r, ktu[t], out=v[t])
        np.matmul(kernel, v[t], out=kv[t])
        if not kv[t].all():
            raise NumericalRegimeError("unrolled Sinkhorn underflowed; increase epsilon")
        np.divide(r, kv[t], out=u[t + 1])
    plan = u[-1] * kernel * v[-1].mT
    value = (c * plan).sum(axis=(-2, -1))
    if entropic:
        # H(P) = -sum P (log P - 1); tiny floor keeps log finite at P ~ 0.
        safe_plan = plan + 1e-300
        log_plan = np.log(safe_plan)
        entropy = -(plan * (log_plan - 1.0)).sum(axis=(-2, -1))
        value = value - eps * entropy
    out = Tensor._make(value, (cost,))
    if out.requires_grad:
        def _bw(g):
            g = g[..., None, None]
            g_plan = g * c
            if entropic:
                g_plan = g_plan + g * eps * ((log_plan - 1.0) + plan / safe_plan)
            g_pk = g_plan * kernel
            gu = g_pk @ v[-1]
            gv = g_pk.mT @ u[-1]
            g_kv, g_ktu = np.empty_like(kv), np.empty_like(ktu)
            for t in reversed(range(iters)):
                g_kv[t] = -gu * u[t + 1] / kv[t]
                gv = gv + kernel_t @ g_kv[t]
                g_ktu[t] = -gv * v[t] / ktu[t]
                gu = kernel @ g_ktu[t]
                gv = 0.0
            g_kernel = (g_plan * (u[-1] * v[-1].mT)
                        + _sum_outer(g_kv, v) + _sum_outer(u[:-1], g_ktu))
            cost._accum(g * plan - g_kernel * kernel / eps)
        out._backward = _bw
    return out


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_t a[t] b[t]^T over (T, ..., n, 1) stacks, as one batched GEMM."""
    return np.moveaxis(a[..., 0], 0, -1) @ np.moveaxis(b[..., 0], 0, -2)


def ot_distance(m1: Tensor, m2: Tensor, cfg: SinkhornConfig) -> Tensor:
    """Differentiable entropic OT between n x d feature distributions.

    Takes one pair of (n, d) distributions and returns a scalar, or two
    (B, n, d) stacks and returns the B pairwise values. The cosine cost is
    built on the tape; the cfg.unroll_iters Sinkhorn updates on top of it
    are one node with a hand-written reverse sweep, so the gradient flows
    into both inputs through the cost matrix and the iterates, and the
    tape does not grow with the iteration count. Returns the transport
    cost <C, P>; with cfg.include_entropy also subtracts epsilon * H(P).
    """
    cfg.validate()
    m1 = as_tensor(m1)
    m2 = as_tensor(m2)
    if m1.shape != m2.shape or len(m1.shape) not in (2, 3):
        raise ContractError(
            f"distributions must share an n x d or B x n x d shape, "
            f"got {m1.shape} and {m2.shape}"
        )
    cost = (1.0 - normalize_rows(m1) @ normalize_rows(m2).mT).clip(0.0, 2.0)
    return _unrolled_sinkhorn(cost, cfg)
