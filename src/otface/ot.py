"""Entropic optimal transport between uniform discrete distributions.

Both marginals are 1/n. The Gibbs kernel is K = exp(-C/epsilon) and the
Sinkhorn fixed point alternates

    v <- (1/n) / (K^T u),    u <- (1/n) / (K v),

starting from u = 1. A log-domain variant survives small epsilon, an
exact permutation-enumeration oracle covers n <= 8, and `ot_distance`
unrolls a fixed iteration budget on the autodiff tape so gradients flow
into both input distributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateInputError, \
    NumericalRegimeError
from .tensor import EPS_NORM, Tensor, as_tensor, normalize_rows


@dataclass
class SinkhornConfig:
    """Solver knobs; epsilon defaults to 1% of the max cosine-distance (2)."""

    epsilon: float = 0.02
    max_iters: int = 200
    marginal_tol: float = 1e-6
    log_domain: bool = False
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
        return self


@dataclass
class TransportPlan:
    """Coupling matrix with solver diagnostics."""

    plan: np.ndarray
    value: float
    iterations_used: int
    marginal_violation: float
    converged: bool
    scaling_u: np.ndarray | None = field(default=None, repr=False)
    scaling_v: np.ndarray | None = field(default=None, repr=False)


def _check_cost(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ContractError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ContractError("cost matrix must be finite")
    if np.any(cost < 0.0):
        raise ContractError("cost matrix must be nonnegative")
    return cost


def build_cost(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between rows of two n x d distributions."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape or m1.ndim != 2:
        raise ContractError(
            f"distributions must share an n x d shape, got {m1.shape} and {m2.shape}"
        )
    for name, m in (("first", m1), ("second", m2)):
        norms = np.linalg.norm(m, axis=1)
        bad = np.nonzero(norms <= EPS_NORM)[0]
        if bad.size:
            raise DegenerateInputError(
                f"{name} distribution row {int(bad[0])} has norm {norms[bad[0]]:.3e}"
            )
    r1 = m1 / np.linalg.norm(m1, axis=1, keepdims=True)
    r2 = m2 / np.linalg.norm(m2, axis=1, keepdims=True)
    return np.clip(1.0 - r1 @ r2.T, 0.0, 2.0)


def sinkhorn(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Standard-domain Sinkhorn scaling; raises when exp(-C/eps) underflows."""
    cfg.validate()
    cost = _check_cost(cost)
    n = cost.shape[0]
    kernel = np.exp(-cost / cfg.epsilon)
    if np.any(kernel.sum(axis=1) == 0.0) or np.any(kernel.sum(axis=0) == 0.0):
        raise NumericalRegimeError(
            f"Gibbs kernel underflows at epsilon={cfg.epsilon}; "
            "use the log-domain solver"
        )
    r = 1.0 / n
    u = np.ones(n)
    v = np.ones(n)
    violation = np.inf
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        ktu = kernel.T @ u
        if np.any(ktu == 0.0):
            raise NumericalRegimeError(
                "Sinkhorn scaling underflowed to a zero column sum; "
                "use the log-domain solver"
            )
        v = r / ktu
        kv = kernel @ v
        if np.any(kv == 0.0):
            raise NumericalRegimeError(
                "Sinkhorn scaling underflowed to a zero row sum; "
                "use the log-domain solver"
            )
        u = r / kv
        # Row marginals are exact right after the u-update; only columns drift.
        violation = float(np.max(np.abs(v * (kernel.T @ u) - r)))
        if violation <= cfg.marginal_tol:
            break
    plan = u[:, None] * kernel * v[None, :]
    return TransportPlan(
        plan=plan,
        value=float((cost * plan).sum()),
        iterations_used=iters,
        marginal_violation=violation,
        converged=violation <= cfg.marginal_tol,
        scaling_u=u,
        scaling_v=v,
    )


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis)
    return m + np.log(np.exp(x - np.expand_dims(m, axis)).sum(axis=axis))


def _newton_polish(log_kernel: np.ndarray, log_u: np.ndarray, log_v: np.ndarray,
                   tol: float, max_steps: int = 50) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton steps on the dual marginal residuals.

    The alternating updates stall when competing transport patterns are
    nearly tied relative to epsilon; Newton converges quadratically to
    the same unique fixed point. The Jacobian's constant-shift nullspace
    is handled by the minimum-norm least-squares solve.
    """
    n = log_kernel.shape[0]
    r = 1.0 / n
    steps = 0
    for steps in range(1, max_steps + 1):
        plan = np.exp(log_u[:, None] + log_kernel + log_v[None, :])
        rows = plan.sum(axis=1)
        cols = plan.sum(axis=0)
        residual = np.concatenate([rows - r, cols - r])
        if np.max(np.abs(residual)) <= min(tol, 1e-13) * 10:
            break
        jac = np.block([[np.diag(rows), plan], [plan.T, np.diag(cols)]])
        delta = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        # damp wild steps far from the fixed point
        scale = min(1.0, 1.0 / np.max(np.abs(delta)))
        log_u = log_u + scale * delta[:n]
        log_v = log_v + scale * delta[n:]
    return log_u, log_v, steps


def _anneal(cost: np.ndarray, eps_target: float, iters_per_level: int
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Rerun the scaling loop over a decreasing epsilon ladder.

    At very small epsilon a cold start can lock onto an infeasible
    support (mass stuck on a too-sparse set of entries); warm-starting
    the dual potentials from a smoother problem avoids that. Potentials
    f = eps*log_u live in cost units, so they carry across levels.
    """
    n = cost.shape[0]
    log_r = -np.log(n)
    f = np.zeros(n)
    g = np.zeros(n)
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
            log_v = log_r - _lse(log_kernel + log_u[:, None], axis=0)
            log_u = log_r - _lse(log_kernel + log_v[None, :], axis=1)
        total += iters_per_level
        f, g = eps * log_u, eps * log_v
    return log_u, log_v, total


def sinkhorn_log_domain(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Log-space Sinkhorn; same contract as `sinkhorn` but underflow-proof.

    When the plain alternating updates stall before reaching the marginal
    tolerance, the solve is retried on a decreasing epsilon ladder and
    finished with Newton refinement of the dual potentials; the fixed
    point is the same.
    """
    cfg.validate()
    cost = _check_cost(cost)
    n = cost.shape[0]
    log_r = -np.log(n)
    log_kernel = -cost / cfg.epsilon
    log_u = np.zeros(n)
    log_v = np.zeros(n)
    violation = np.inf
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        log_v = log_r - _lse(log_kernel + log_u[:, None], axis=0)
        log_u = log_r - _lse(log_kernel + log_v[None, :], axis=1)
        col_sums = np.exp(_lse(log_kernel + log_u[:, None] + log_v[None, :], axis=0))
        violation = float(np.max(np.abs(col_sums - 1.0 / n)))
        if violation <= cfg.marginal_tol:
            break
    if violation > cfg.marginal_tol:
        log_u, log_v, extra = _anneal(
            cost, cfg.epsilon, max(50, cfg.max_iters // 4)
        )
        iters += extra
        plan_now = np.exp(log_u[:, None] + log_kernel + log_v[None, :])
        violation = float(np.max(np.abs(
            np.concatenate([plan_now.sum(axis=1), plan_now.sum(axis=0)]) - 1.0 / n
        )))
    if violation > cfg.marginal_tol:
        log_u, log_v, newton_steps = _newton_polish(
            log_kernel, log_u, log_v, cfg.marginal_tol
        )
        iters += newton_steps
        plan_now = np.exp(log_u[:, None] + log_kernel + log_v[None, :])
        violation = float(np.max(np.abs(
            np.concatenate([plan_now.sum(axis=1), plan_now.sum(axis=0)]) - 1.0 / n
        )))
    plan = np.exp(log_u[:, None] + log_kernel + log_v[None, :])
    with np.errstate(over="ignore"):  # diagnostic only; duals can be huge
        scaling_u, scaling_v = np.exp(log_u), np.exp(log_v)
    return TransportPlan(
        plan=plan,
        value=float((cost * plan).sum()),
        iterations_used=iters,
        marginal_violation=violation,
        converged=violation <= cfg.marginal_tol,
        scaling_u=scaling_u,
        scaling_v=scaling_v,
    )


def solve(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Dispatch on cfg.log_domain."""
    if cfg.log_domain:
        return sinkhorn_log_domain(cost, cfg)
    return sinkhorn(cost, cfg)


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
