"""Entropic optimal transport between uniform discrete distributions.

Both marginals are 1/n, the Gibbs kernel is K = exp(-C/epsilon) and the
Sinkhorn fixed point alternates v <- (1/n) / (K^T u), u <- (1/n) / (K v).
The one solver, `sinkhorn_log_domain`, iterates on log u and log v, so it
survives small epsilon. An exact permutation-enumeration oracle covers
n <= 8, and `ot_distance` unrolls a fixed iteration budget on the
autodiff tape so gradients flow into both input distributions.
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
    # Fixed iteration budget for the differentiable (unrolled) path.
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

    `iterations_used` counts all the work of a solve: plain scaling
    iterations, Newton steps, and, when the epsilon ladder ran, its
    iterations and the Newton steps that followed it.
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


def _anneal(cost: np.ndarray, eps_target: float, iters_per_level: int
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Rerun the scaling loop over a decreasing epsilon ladder.

    At very small epsilon a cold start can lock onto an infeasible
    support (mass stuck on a too-sparse set of entries); warm-starting
    the dual potentials from a smoother problem avoids that. Potentials
    f = eps*log_u live in cost units, so they carry across levels.
    Returns the duals as an (n, 1) column and a (1, n) row.
    """
    n = cost.shape[0]
    log_r = -np.log(n)
    f = np.zeros((n, 1))
    g = np.zeros((1, n))
    levels = []
    eps = max(eps_target, 1.0)
    while eps > eps_target:
        levels.append(eps)
        eps /= 10.0
    levels.append(eps_target)
    total = 0
    for eps in levels:
        log_kernel = -cost / eps
        log_u, log_v = f / eps, g / eps
        for _ in range(iters_per_level):
            log_v = log_r - _lse(log_kernel + log_u, axis=0)
            log_u = log_r - _lse(log_kernel + log_v, axis=1)
        total += iters_per_level
        f, g = eps * log_u, eps * log_v
    return log_u, log_v, total


# The plain updates have stalled once the marginal violation has not
# halved over this many iterations; Newton then finishes from the current
# duals. Windows of 10 to 100 iterations all converge every criterion-1
# problem and n = 16 tap cost; a longer window spends more plain
# iterations before the hand-off.
STALL_WINDOW = 20


def sinkhorn_log_domain(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Sinkhorn scaling on log potentials, so exp(-C/eps) never underflows.

    Plain alternating updates run until the marginals converge or the
    violation stops contracting (not halved over `STALL_WINDOW`
    iterations). A stalled solve goes straight to Newton refinement of
    the current dual potentials. Only when Newton misses the marginal
    tolerance, as on a support locked at very small epsilon, is the
    solve rerun on a decreasing epsilon ladder and finished with Newton
    again; the fixed point is the same.
    """
    cfg.validate()
    cost = _check_cost(cost)
    n = cost.shape[0]
    log_r = -np.log(n)
    log_kernel = -cost / cfg.epsilon
    log_u = np.zeros((n, 1))
    log_v = np.zeros((1, n))
    # Column log-sum-exps for the next v-update; after a u-update they
    # also give the plan's column sums, exp(log_v + lse_cols), while its
    # rows are exact.
    lse_cols = _lse(log_kernel + log_u, axis=0)
    history: list[float] = []
    violation = np.inf
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        log_v = log_r - lse_cols
        log_u = log_r - _lse(log_kernel + log_v, axis=1)
        lse_cols = _lse(log_kernel + log_u, axis=0)
        violation = float(np.max(np.abs(np.exp(log_v + lse_cols) - 1.0 / n)))
        if violation <= cfg.marginal_tol:
            break
        history.append(violation)
        if len(history) > STALL_WINDOW and violation > 0.5 * history[-1 - STALL_WINDOW]:
            break
    if violation > cfg.marginal_tol:
        log_u, log_v, steps = _newton_polish(
            log_kernel, log_u, log_v, cfg.marginal_tol
        )
        iters += steps
        violation = _violation(log_kernel, log_u, log_v)
    if violation > cfg.marginal_tol:
        log_u, log_v, extra = _anneal(
            cost, cfg.epsilon, max(50, cfg.max_iters // 4)
        )
        log_u, log_v, steps = _newton_polish(
            log_kernel, log_u, log_v, cfg.marginal_tol
        )
        iters += extra + steps
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


def ot_distance(m1: Tensor, m2: Tensor, cfg: SinkhornConfig) -> Tensor:
    """Differentiable entropic OT between n x d feature distributions.

    Takes one pair of (n, d) distributions and returns a scalar, or two
    (B, n, d) stacks and returns the B pairwise values; every pair gets
    the same arithmetic, so a stack of B pairs is one graph, not B.
    Unrolls cfg.unroll_iters Sinkhorn updates on the tape, so the gradient
    flows into both inputs through the cost matrix and the iterates.
    Returns the transport cost <C, P>; with cfg.include_entropy also
    subtracts epsilon * H(P).
    """
    cfg.validate()
    m1 = as_tensor(m1)
    m2 = as_tensor(m2)
    if m1.shape != m2.shape or len(m1.shape) not in (2, 3):
        raise ContractError(
            f"distributions must share an n x d or B x n x d shape, "
            f"got {m1.shape} and {m2.shape}"
        )
    n = m1.shape[-2]
    r1 = normalize_rows(m1)
    r2 = normalize_rows(m2)
    cost = (1.0 - r1 @ r2.mT).clip(0.0, 2.0)
    kernel = (-cost * (1.0 / cfg.epsilon)).exp()
    if np.any(kernel.data.sum(axis=-1) == 0.0) or np.any(kernel.data.sum(axis=-2) == 0.0):
        raise NumericalRegimeError(
            f"Gibbs kernel underflows at epsilon={cfg.epsilon}; "
            "increase epsilon for the differentiable path"
        )
    r = 1.0 / n
    kernel_t = kernel.mT
    u = Tensor(np.ones(m1.shape[:-1] + (1,)))
    for _ in range(cfg.unroll_iters):
        ktu = kernel_t @ u
        if np.any(ktu.data == 0.0):
            raise NumericalRegimeError(
                "unrolled Sinkhorn underflowed; increase epsilon"
            )
        v = r / ktu
        kv = kernel @ v
        if np.any(kv.data == 0.0):
            raise NumericalRegimeError(
                "unrolled Sinkhorn underflowed; increase epsilon"
            )
        u = r / kv
    plan = u * kernel * v.mT
    value = (cost * plan).sum(axis=(-2, -1))
    if cfg.include_entropy:
        # H(P) = -sum P (log P - 1); tiny floor keeps log finite at P ~ 0.
        safe_plan = plan + 1e-300
        entropy = -(plan * (safe_plan.log() - 1.0)).sum(axis=(-2, -1))
        value = value - cfg.epsilon * entropy
    return value
