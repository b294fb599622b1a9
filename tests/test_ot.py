import math

import numpy as np
import pytest

from otface import (
    ContractError,
    DegenerateInputError,
    NumericalRegimeError,
    SinkhornConfig,
    Tensor,
    build_cost,
    exact_ot_uniform,
    ot_distance,
    sinkhorn,
    sinkhorn_log_domain,
)
from otface.ot import solve

from conftest import check_grad, numeric_grad, rel_err


def two_atom_diag(epsilon):
    # closed form for C=[[0,1],[1,0]] with uniform marginals
    return 1.0 / (2.0 * (1.0 + math.exp(-1.0 / epsilon)))


def random_cost(rng, n):
    return rng.uniform(0.0, 2.0, size=(n, n))


def test_build_cost_orthonormal_rows():
    m = np.eye(3)
    cost = build_cost(m, m)
    assert np.allclose(np.diag(cost), 0.0)
    off = cost[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0)


def test_build_cost_single_row():
    m1 = np.array([[3.0, 0.0]])
    m2 = np.array([[1.0, 1.0]])
    expected = 1.0 - 1.0 / math.sqrt(2.0)
    assert build_cost(m1, m2)[0, 0] == pytest.approx(expected)


def test_build_cost_matches_double_loop():
    rng = np.random.default_rng(4)
    m1, m2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    cost = build_cost(m1, m2)
    for i in range(4):
        for j in range(4):
            ci = 1.0 - np.dot(m1[i], m2[j]) / (
                np.linalg.norm(m1[i]) * np.linalg.norm(m2[j])
            )
            assert cost[i, j] == pytest.approx(ci, abs=1e-12)


def test_build_cost_rejects_degenerate_row():
    m = np.ones((3, 2))
    m[2] = 0.0
    with pytest.raises(DegenerateInputError, match="row 2"):
        build_cost(m, np.ones((3, 2)))


def test_sinkhorn_single_atom():
    plan = sinkhorn(np.array([[0.7]]), SinkhornConfig(epsilon=0.3))
    assert np.allclose(plan.plan, [[1.0]])
    assert plan.value == pytest.approx(0.7)


def test_sinkhorn_two_atom_closed_form():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    for eps in (0.5, 0.1, 0.01):
        plan = sinkhorn(cost, SinkhornConfig(epsilon=eps))
        a = two_atom_diag(eps)
        expected = np.array([[a, 0.5 - a], [0.5 - a, a]])
        assert np.allclose(plan.plan, expected, atol=1e-9)
        assert plan.value == pytest.approx(2.0 * (0.5 - a), abs=1e-6)
    tight = sinkhorn(cost, SinkhornConfig(epsilon=0.01))
    assert np.allclose(tight.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)
    assert tight.value < 1e-3


def test_sinkhorn_near_exact_at_small_epsilon():
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-10,
                         log_domain=True)
    for seed in range(20):
        cost = random_cost(np.random.default_rng(seed), 4)
        plan = sinkhorn_log_domain(cost, cfg)
        exact = exact_ot_uniform(cost)
        assert plan.value >= exact - 1e-9
        assert plan.value - exact < 0.02


def test_converged_plans_are_feasible():
    for seed in range(20):
        cost = random_cost(np.random.default_rng(100 + seed), 5)
        plan = sinkhorn(cost, SinkhornConfig(epsilon=0.3, max_iters=500))
        assert plan.converged
        assert plan.marginal_violation <= 1e-6
        assert np.all(plan.plan >= 0.0)
        assert np.allclose(plan.plan.sum(axis=1), 0.2, atol=1e-6)
        assert np.allclose(plan.plan.sum(axis=0), 0.2, atol=1e-6)


def test_plan_recomputes_from_scaling_vectors():
    cost = random_cost(np.random.default_rng(8), 4)
    cfg = SinkhornConfig(epsilon=0.05)
    plan = sinkhorn(cost, cfg)
    kernel = np.exp(-cost / cfg.epsilon)
    rebuilt = plan.scaling_u[:, None] * kernel * plan.scaling_v[None, :]
    assert np.max(np.abs(rebuilt - plan.plan)) < 1e-12


def test_scaling_identity():
    cost = random_cost(np.random.default_rng(9), 4)
    base = sinkhorn(cost, SinkhornConfig(epsilon=0.05))
    for alpha in (0.5, 2.0, 7.0):
        scaled = sinkhorn(alpha * cost, SinkhornConfig(epsilon=alpha * 0.05))
        assert np.max(np.abs(scaled.plan - base.plan)) < 1e-9


def test_log_domain_agrees_with_standard_path():
    for seed in range(30):
        cost = random_cost(np.random.default_rng(200 + seed), 4)
        cfg = SinkhornConfig(epsilon=0.3, max_iters=500, marginal_tol=1e-9)
        std = sinkhorn(cost, cfg)
        log = sinkhorn_log_domain(cost, cfg)
        assert np.max(np.abs(std.plan - log.plan)) < 1e-8


def test_log_domain_survives_standard_underflow():
    rng = np.random.default_rng(5)
    cost = random_cost(rng, 4)
    cfg = SinkhornConfig(epsilon=1e-4, max_iters=500, marginal_tol=1e-9)
    with pytest.raises(NumericalRegimeError):
        sinkhorn(cost, cfg)
    plan = sinkhorn_log_domain(cost, cfg)
    assert plan.converged
    assert plan.marginal_violation <= 1e-9
    # at tiny epsilon the entropic value is pinned just above the exact one
    assert plan.value >= exact_ot_uniform(cost) - 1e-9


def test_solve_dispatches_on_log_domain_flag():
    cost = random_cost(np.random.default_rng(6), 3)
    std = solve(cost, SinkhornConfig(epsilon=0.3, max_iters=500))
    log = solve(cost, SinkhornConfig(epsilon=0.3, max_iters=500, log_domain=True))
    assert np.max(np.abs(std.plan - log.plan)) < 1e-8


def test_sinkhorn_input_validation():
    cfg = SinkhornConfig()
    with pytest.raises(ContractError):
        sinkhorn(np.ones((2, 3)), cfg)
    with pytest.raises(ContractError):
        sinkhorn(np.array([[-0.1, 0.0], [0.0, 0.0]]), cfg)
    with pytest.raises(Exception):
        SinkhornConfig(epsilon=0.0).validate()


def test_exact_ot_uniform_reference_cases():
    assert exact_ot_uniform(np.zeros((3, 3))) == 0.0
    assert exact_ot_uniform(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    # forced off-diagonal assignment
    cost = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert exact_ot_uniform(cost) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        exact_ot_uniform(np.zeros((9, 9)))


def test_ot_distance_self_is_near_zero():
    m = Tensor(np.eye(3))
    cfg = SinkhornConfig(epsilon=0.01, unroll_iters=30)
    value = ot_distance(m, m, cfg).item()
    assert value < 1e-6
    assert value <= cfg.epsilon * 3 * math.log(3)


def test_ot_distance_swap_symmetry():
    rng = np.random.default_rng(12)
    m1 = Tensor(rng.normal(size=(4, 3)))
    m2 = Tensor(rng.normal(size=(4, 3)))
    cfg = SinkhornConfig(epsilon=0.3, unroll_iters=100)
    forward = ot_distance(m1, m2, cfg).item()
    backward = ot_distance(m2, m1, cfg).item()
    assert abs(forward - backward) < 1e-9


def test_ot_distance_matches_nondifferentiable_solver():
    rng = np.random.default_rng(13)
    m1, m2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=200, marginal_tol=1e-12)
    value = ot_distance(Tensor(m1), Tensor(m2), cfg).item()
    reference = sinkhorn(build_cost(m1, m2), cfg).value
    assert value == pytest.approx(reference, abs=1e-9)


def test_ot_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    m1 = rng.normal(size=(3, 2))
    m2 = rng.normal(size=(3, 2))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=50)

    leaf = Tensor(m1, requires_grad=True)
    ot_distance(leaf, Tensor(m2), cfg).backward()
    numeric = numeric_grad(
        lambda arr: ot_distance(Tensor(arr), Tensor(m2), cfg).item(), m1.copy()
    )
    assert rel_err(leaf.grad, numeric) < 1e-3


def test_ot_distance_entropy_flag():
    rng = np.random.default_rng(15)
    m1, m2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    plain_cfg = SinkhornConfig(epsilon=0.3, unroll_iters=100)
    ent_cfg = SinkhornConfig(epsilon=0.3, unroll_iters=100, include_entropy=True)
    plain = ot_distance(Tensor(m1), Tensor(m2), plain_cfg).item()
    with_ent = ot_distance(Tensor(m1), Tensor(m2), ent_cfg).item()
    # independent numpy replay of the same unrolled iteration
    r1 = m1 / np.linalg.norm(m1, axis=1, keepdims=True)
    r2 = m2 / np.linalg.norm(m2, axis=1, keepdims=True)
    cost = np.clip(1.0 - r1 @ r2.T, 0.0, 2.0)
    kernel = np.exp(-cost / 0.3)
    u = np.ones((3, 1))
    for _ in range(100):
        v = (1.0 / 3.0) / (kernel.T @ u)
        u = (1.0 / 3.0) / (kernel @ v)
    plan = u * kernel * v.T
    entropy = -np.sum(plan * (np.log(plan + 1e-300) - 1.0))
    assert plain == pytest.approx(np.sum(cost * plan), abs=1e-12)
    assert with_ent == pytest.approx(plain - 0.3 * entropy, abs=1e-12)


def test_batched_ot_distance_equals_single_pair_calls():
    rng = np.random.default_rng(16)
    m1, m2 = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3))
    for include_entropy in (False, True):
        cfg = SinkhornConfig(epsilon=0.1, unroll_iters=20,
                             include_entropy=include_entropy)
        batched = ot_distance(Tensor(m1), Tensor(m2), cfg)
        assert batched.shape == (5,)
        singles = [ot_distance(Tensor(a), Tensor(b), cfg).item()
                   for a, b in zip(m1, m2)]
        assert np.max(np.abs(batched.data - singles)) < 1e-12


def test_batched_ot_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    m2 = Tensor(rng.normal(size=(3, 3, 2)))
    weights = Tensor(rng.uniform(0.5, 1.5, size=3))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=30)
    check_grad(lambda t: (ot_distance(t, m2, cfg) * weights).sum(),
               rng.normal(size=(3, 3, 2)), tol=1e-3)


def test_ot_distance_rejects_mismatched_stacks():
    cfg = SinkhornConfig(epsilon=0.1)
    with pytest.raises(ContractError):
        ot_distance(Tensor(np.ones((2, 3, 2))), Tensor(np.ones((3, 3, 2))), cfg)
    with pytest.raises(ContractError):
        ot_distance(Tensor(np.ones((1, 2, 3, 2))), Tensor(np.ones((1, 2, 3, 2))), cfg)


def test_oracle_sandwich_monotone_in_epsilon():
    # small-scale version; the full 200-seed sweep is an acceptance test
    for seed in range(30):
        cost = random_cost(np.random.default_rng(300 + seed), 4)
        exact = exact_ot_uniform(cost)
        gaps = []
        for eps in (0.05, 0.01, 0.005):
            cfg = SinkhornConfig(epsilon=eps, max_iters=500,
                                 marginal_tol=1e-12, log_domain=True)
            gaps.append(sinkhorn_log_domain(cost, cfg).value - exact)
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[0] >= gaps[1] - 1e-10 and gaps[1] >= gaps[2] - 1e-10


def _plain_log_sinkhorn_violation(cost, epsilon, iters):
    """Column marginal error after `iters` plain log-domain updates."""
    n = cost.shape[0]
    log_k = -cost / epsilon
    log_u = np.zeros((n, 1))
    for _ in range(iters):
        log_v = -np.log(n) - np.logaddexp.reduce(log_k + log_u, axis=0, keepdims=True)
        log_u = -np.log(n) - np.logaddexp.reduce(log_k + log_v, axis=1, keepdims=True)
    cols = np.exp(log_u + log_k + log_v).sum(axis=0)
    return np.max(np.abs(cols - 1.0 / n))


def test_stalled_cold_start_hands_off_before_budget_is_spent():
    # criterion-1 problems at the smallest epsilon; seeds 0-39 hold none
    # of the locked-support cases that need the epsilon ladder
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-12,
                         log_domain=True)
    stalled = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        cost = rng.random((n, n))
        if _plain_log_sinkhorn_violation(cost, cfg.epsilon, cfg.max_iters) <= 1e-12:
            continue
        stalled += 1
        plan = sinkhorn_log_domain(cost, cfg)
        assert plan.converged and plan.marginal_violation <= 1e-12, seed
        assert plan.iterations_used < cfg.max_iters, (seed, plan.iterations_used)
    assert stalled >= 30


def test_locked_support_still_runs_the_epsilon_ladder(monkeypatch):
    from otface import ot

    laddered = []
    real_anneal = ot._anneal

    def spy(cost, *args, **kwargs):
        laddered.append(cost.shape)
        return real_anneal(cost, *args, **kwargs)

    monkeypatch.setattr(ot, "_anneal", spy)
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-12,
                         log_domain=True)
    for seed in (129, 140, 165):  # criterion-1 seeds with a locked support
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        cost = rng.random((n, n))
        plan = sinkhorn_log_domain(cost, cfg)
        assert plan.converged and plan.marginal_violation <= 1e-12, seed
        assert plan.value >= exact_ot_uniform(cost) - 1e-12, seed
    assert laddered
