import math
import re

import numpy as np
import pytest

from otface import (
    ConfigurationError,
    ContractError,
    NumericalRegimeError,
    SinkhornConfig,
    Tensor,
    exact_ot_uniform,
    normalize_rows,
    ot_distance,
    ot_pair_distances,
    sinkhorn_log_domain,
)

from otface import ot

from conftest import check_grad, numeric_grad, rel_err


def two_atom_diag(epsilon):
    # closed form for C=[[0,1],[1,0]] with uniform marginals
    return 1.0 / (2.0 * (1.0 + math.exp(-1.0 / epsilon)))


def random_cost(rng, n):
    return rng.uniform(0.0, 2.0, size=(n, n))


def criterion_1_cost(seed):
    """The cost matrix acceptance criterion 1 draws for `seed`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return rng.random((n, n))


def test_sinkhorn_single_atom():
    plan = sinkhorn_log_domain(np.array([[0.7]]), SinkhornConfig(epsilon=0.3))
    assert np.allclose(plan.plan, [[1.0]])
    assert plan.value == pytest.approx(0.7)


def test_sinkhorn_two_atom_closed_form():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    for eps in (0.5, 0.1, 0.01):
        plan = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=eps))
        a = two_atom_diag(eps)
        expected = np.array([[a, 0.5 - a], [0.5 - a, a]])
        assert np.allclose(plan.plan, expected, atol=1e-9)
        assert plan.value == pytest.approx(2.0 * (0.5 - a), abs=1e-6)
    tight = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=0.01))
    assert np.allclose(tight.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)
    assert tight.value < 1e-3


def test_sinkhorn_near_exact_at_small_epsilon():
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-10)
    for seed in range(20):
        cost = random_cost(np.random.default_rng(seed), 4)
        plan = sinkhorn_log_domain(cost, cfg)
        exact = exact_ot_uniform(cost)
        assert plan.value >= exact - 1e-9
        assert plan.value - exact < 0.02


def test_converged_plans_are_feasible():
    for seed in range(20):
        cost = random_cost(np.random.default_rng(100 + seed), 5)
        plan = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=0.3, max_iters=500))
        assert plan.converged
        assert plan.marginal_violation <= 1e-6
        assert np.all(plan.plan >= 0.0)
        assert np.allclose(plan.plan.sum(axis=1), 0.2, atol=1e-6)
        assert np.allclose(plan.plan.sum(axis=0), 0.2, atol=1e-6)


def test_plan_recomputes_from_scaling_vectors():
    # P = diag(u) K diag(v) exactly when log P + C/eps = log u_i + log v_j,
    # i.e. when its double-centred form vanishes
    cost = random_cost(np.random.default_rng(8), 4)
    cfg = SinkhornConfig(epsilon=0.05)
    plan = sinkhorn_log_domain(cost, cfg)
    log_scalings = np.log(plan.plan) + cost / cfg.epsilon
    centred = (log_scalings - log_scalings.mean(axis=1, keepdims=True)
               - log_scalings.mean(axis=0, keepdims=True) + log_scalings.mean())
    assert np.max(np.abs(centred)) < 1e-9


def test_scaling_identity():
    cost = random_cost(np.random.default_rng(9), 4)
    base = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=0.05))
    for alpha in (0.5, 2.0, 7.0):
        scaled = sinkhorn_log_domain(alpha * cost, SinkhornConfig(epsilon=alpha * 0.05))
        assert np.max(np.abs(scaled.plan - base.plan)) < 1e-9


def _standard_domain_plan(cost, epsilon, iters):
    """Textbook Sinkhorn scaling on the kernel itself."""
    n = cost.shape[0]
    kernel = np.exp(-cost / epsilon)
    u = np.ones((n, 1))
    for _ in range(iters):
        v = (1.0 / n) / (kernel.T @ u)
        u = (1.0 / n) / (kernel @ v)
    return u * kernel * v.T


def test_log_domain_agrees_with_standard_path():
    for seed in range(30):
        cost = random_cost(np.random.default_rng(200 + seed), 4)
        cfg = SinkhornConfig(epsilon=0.3, max_iters=500, marginal_tol=1e-9)
        log = sinkhorn_log_domain(cost, cfg)
        std = _standard_domain_plan(cost, cfg.epsilon, 500)
        assert np.max(np.abs(std - log.plan)) < 1e-8


def test_log_domain_survives_standard_underflow():
    rng = np.random.default_rng(5)
    cost = random_cost(rng, 4)
    cfg = SinkhornConfig(epsilon=1e-4, max_iters=500, marginal_tol=1e-9)
    # exp(-C/eps) underflows to 0 for every entry above ~0.075
    assert np.any(np.exp(-cost / cfg.epsilon).sum(axis=1) == 0.0)
    plan = sinkhorn_log_domain(cost, cfg)
    assert plan.converged
    assert plan.marginal_violation <= 1e-9
    # at tiny epsilon the entropic value is pinned just above the exact one
    assert plan.value >= exact_ot_uniform(cost) - 1e-9


@pytest.mark.parametrize("scale", [1e3, 1e4])
def test_ladder_start_follows_the_cost_scale(scale):
    # costs up to 2e3 and 2e4: a ladder topped at epsilon 1 starts on a
    # kernel that underflows and locks onto an infeasible support
    eps = 0.5
    for seed in range(5, 10):
        cost = np.random.default_rng(seed).uniform(0.0, 2.0, size=(5, 5)) * scale
        plan = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=eps))
        exact = exact_ot_uniform(cost)
        assert plan.converged, (seed, plan.marginal_violation)
        assert exact - 1e-12 * scale <= plan.value <= exact + 2 * eps * math.log(5), seed


def test_sinkhorn_input_validation():
    cfg = SinkhornConfig()
    with pytest.raises(ContractError):
        sinkhorn_log_domain(np.ones((2, 3)), cfg)
    with pytest.raises(ContractError):
        sinkhorn_log_domain(np.array([[-0.1, 0.0], [0.0, 0.0]]), cfg)
    with pytest.raises(Exception):
        SinkhornConfig(epsilon=0.0).validate()
    for name in ("epsilon", "marginal_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
                sinkhorn_log_domain(np.zeros((2, 2)), SinkhornConfig(**{name: bad}))
    for name in ("max_iters", "unroll_iters"):
        with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
            SinkhornConfig(**{name: 10 ** 400}).validate()
    with pytest.raises(ConfigurationError, match="standard-domain solver"):
        SinkhornConfig(log_domain=False).validate()


def test_exact_ot_uniform_reference_cases():
    assert exact_ot_uniform(np.zeros((3, 3))) == 0.0
    assert exact_ot_uniform(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    # forced off-diagonal assignment
    cost = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert exact_ot_uniform(cost) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        exact_ot_uniform(np.zeros((9, 9)))


def test_ot_distance_of_a_sample_with_itself_is_its_diagonal_plan_objective():
    # C = 1 - I, so P* is I / 3 up to exp(-1 / eps) and the objective is
    # -eps * H(I / 3) = -eps * (1 + log 3), below the transport cost 0
    m = Tensor(np.eye(3))
    cfg = SinkhornConfig(epsilon=0.01, unroll_iters=30)
    value = ot_distance(m, m, cfg).item()
    assert value == pytest.approx(-cfg.epsilon * (1.0 + math.log(3)), abs=1e-12)


def _cosine_cost(m1, m2):
    r1 = m1 / np.linalg.norm(m1, axis=-1, keepdims=True)
    r2 = m2 / np.linalg.norm(m2, axis=-1, keepdims=True)
    return np.clip(1.0 - r1 @ np.swapaxes(r2, -1, -2), 0.0, 2.0)


def _entropic_objective(cost, epsilon):
    """<C, P> - epsilon * H(P) of the plan `sinkhorn_log_domain` converges
    to 1e-12 for one cost; H(P) = -sum P (log P - 1)."""
    plan = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=epsilon,
                                                    marginal_tol=1e-12)).plan
    return np.sum(cost * plan) + epsilon * np.sum(plan * (np.log(plan) - 1.0))


def test_ot_distance_swap_symmetry():
    rng = np.random.default_rng(12)
    m1 = Tensor(rng.normal(size=(4, 3)))
    m2 = Tensor(rng.normal(size=(4, 3)))
    cfg = SinkhornConfig(epsilon=0.3, unroll_iters=100)
    forward = ot_distance(m1, m2, cfg).item()
    backward = ot_distance(m2, m1, cfg).item()
    assert abs(forward - backward) < 1e-9


def test_ot_distance_matches_nondifferentiable_solver():
    # the solver reports the plan's transport cost <C, P>; the node's value
    # is that cost less epsilon times the plan's entropy
    rng = np.random.default_rng(13)
    m1, m2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=200, marginal_tol=1e-12)
    value = ot_distance(Tensor(m1), Tensor(m2), cfg).item()
    cost = _cosine_cost(m1, m2)
    solved = sinkhorn_log_domain(cost, cfg)
    assert solved.value == pytest.approx(np.sum(cost * solved.plan), abs=1e-12)
    entropy = -np.sum(solved.plan * (np.log(solved.plan) - 1.0))
    assert entropy > 0.0
    assert value == pytest.approx(solved.value - 0.1 * entropy, abs=1e-12)


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


def test_batched_ot_distance_equals_single_pair_calls():
    rng = np.random.default_rng(16)
    m1, m2 = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=20)
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


def test_ot_pair_distances_rejects_malformed_pairs_and_samples():
    cfg = SinkhornConfig(epsilon=0.1)
    samples = Tensor(np.ones((3, 2, 2)))
    for pairs in ([0, 1], [[0, 1, 2]], np.zeros((0, 2)), [[0, 3]], [[-1, 0]]):
        with pytest.raises(ContractError):
            ot_pair_distances(samples, pairs, cfg)
    for samples in (Tensor(np.ones((3, 2))), {0: Tensor(np.ones(2)), 1: Tensor(np.ones(2))}):
        with pytest.raises(ContractError):
            ot_pair_distances(samples, [[0, 1]], cfg)


def _tape_unroll(m1, m2, cfg):
    """`ot_distance` built op by op on the tape: standard-domain Sinkhorn
    updates recorded until the column marginals are exact to 1e-15, so
    backward differentiates the unrolled iterations rather than using the
    implicit formula."""
    n = m1.shape[-2]
    cost = (1.0 - normalize_rows(m1) @ normalize_rows(m2).mT).clip(0.0, 2.0)
    kernel = (-cost * (1.0 / cfg.epsilon)).exp()
    r = Tensor(1.0 / n)
    kernel_t = kernel.mT
    u = Tensor(np.ones(m1.shape[:-1] + (1,)))
    for _ in range(20000):
        v = r / (kernel_t @ u)
        u = r / (kernel @ v)
        if np.max(np.abs((kernel_t.data @ u.data) * v.data - 1.0 / n)) < 1e-15:
            break
    plan = u * kernel * v.mT
    entropy = -(plan * ((plan + 1e-300).log() - 1.0)).sum(axis=(-2, -1))
    return (cost * plan).sum(axis=(-2, -1)) - entropy * cfg.epsilon


def _value_and_grads(distance, a, b, cfg, weights):
    t1, t2 = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    value = distance(t1, t2, cfg)
    (value * Tensor(weights)).sum().backward()
    return value.data, t1.grad, t2.grad


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("unroll_iters", [1, 10, 50])
@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_ot_distance_node_matches_tape_unroll(epsilon, unroll_iters, repeated):
    # the node's value and gradients are those of the converged unroll,
    # whatever plain-iteration budget precedes Newton; `repeated` gives one
    # side of each pair a repeated atom, on either side
    cfg = SinkhornConfig(epsilon=epsilon, unroll_iters=unroll_iters)
    rng = np.random.default_rng(18)
    for shape in ((4, 3), (6, 5, 4), (3, 16, 16)):
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        weights = rng.uniform(0.5, 1.5, size=shape[:-2])
        cases = [(a, b)]
        if repeated:
            a[..., 1, :] = a[..., 0, :]
            cases = [(a, b), (b, a)]
        for m1, m2 in cases:
            value, g1, g2 = _value_and_grads(ot_distance, m1, m2, cfg, weights)
            ref_value, ref_g1, ref_g2 = _value_and_grads(_tape_unroll, m1, m2, cfg,
                                                         weights)
            assert value.shape == shape[:-2]
            assert np.max(np.abs(value - ref_value)) < 1e-10 * np.max(np.abs(ref_value))
            assert rel_err(g1, ref_g1) < 1e-10
            assert rel_err(g2, ref_g2) < 1e-10


@pytest.mark.parametrize("second", [False, True])
@pytest.mark.parametrize("epsilon", [0.1, 0.02])
def test_implicit_gradient_matches_central_differences(epsilon, second):
    # the gradient with respect to the first distribution, or the second;
    # the B pairs are independent, so one perturbed entry per pair at a
    # time gives every pair's central difference from one batched call
    rng = np.random.default_rng(18)
    x, other = rng.normal(size=(3, 16, 16)), Tensor(rng.normal(size=(3, 16, 16)))
    cfg = SinkhornConfig(epsilon=epsilon, unroll_iters=15)

    def values(t):
        return ot_distance(*((other, t) if second else (t, other)), cfg)

    leaf = Tensor(x, requires_grad=True)
    values(leaf).sum().backward()
    h = 1e-5
    numeric = np.empty_like(x)
    for i, j in np.ndindex(x.shape[1:]):
        hi, lo = x.copy(), x.copy()
        hi[:, i, j] += h
        lo[:, i, j] -= h
        numeric[:, i, j] = (values(Tensor(hi)).data - values(Tensor(lo)).data) / (2 * h)
    assert np.max(np.abs(leaf.grad - numeric)) < 1e-6 * np.max(np.abs(leaf.grad))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_ot_distance_equals_the_converged_solver_per_pair(n):
    rng = np.random.default_rng(20 + n)
    m1, m2 = rng.normal(size=(4, n, 5)), rng.normal(size=(4, n, 5))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=15)
    leaf = Tensor(m1, requires_grad=True)
    values = ot_distance(leaf, Tensor(m2), cfg)
    for value, cost in zip(values.data, _cosine_cost(m1, m2)):
        assert value == pytest.approx(_entropic_objective(cost, 0.1), rel=1e-10, abs=1e-12)
    values.sum().backward()
    numeric = numeric_grad(
        lambda arr: ot_distance(Tensor(arr), Tensor(m2), cfg).data.sum(), m1.copy())
    assert np.max(np.abs(leaf.grad - numeric)) < 1e-6 * np.max(np.abs(leaf.grad))


def test_ot_distance_converges_where_the_gibbs_kernel_underflows():
    # exp(-C / 1e-4) underflows to 0 for every cost above ~0.075
    rng = np.random.default_rng(21)
    m1, m2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    cost = _cosine_cost(m1, m2)
    assert np.any(np.exp(-cost / 1e-4).sum(axis=1) == 0.0)
    leaf = Tensor(m1, requires_grad=True)
    value = ot_distance(leaf, Tensor(m2), SinkhornConfig(epsilon=1e-4))
    value.backward()
    # exact - eps H(P) with the entropy H = -sum P (log P - 1) between that
    # of a permutation, 1 + log n, and that of the uniform plan, 1 + 2 log n
    exact, eps, n = exact_ot_uniform(cost), 1e-4, 4
    assert exact - eps * (1 + 2 * math.log(n)) - 1e-12 <= value.item()
    assert value.item() <= exact - eps * (1 + math.log(n)) + 1e-12
    assert np.isfinite(leaf.grad).all()


def test_unconverged_pair_raises_naming_its_index(monkeypatch):
    from otface import ot

    monkeypatch.setattr(ot, "NEWTON_STEPS", 0)
    rng = np.random.default_rng(22)
    # pairs 0 and 2 have one repeated atom each, so a constant cost whose
    # uniform plan the first update reaches; pair 1 needs Newton
    m1 = np.repeat(rng.normal(size=(3, 1, 4)), 6, axis=1)
    m2 = m1.copy()
    m1[1], m2[1] = rng.normal(size=(2, 6, 4))
    cfg = SinkhornConfig(epsilon=0.02, unroll_iters=2)
    with pytest.raises(NumericalRegimeError, match=r"OT pairs \[1\] did not converge"):
        ot_distance(Tensor(m1), Tensor(m2), cfg)


def test_unconverged_pairs_are_named_once_per_reason(monkeypatch):
    from otface import ot

    monkeypatch.setattr(ot, "NEWTON_STEPS", 0)
    m1, m2 = np.random.default_rng(0).normal(size=(2, 3, 6, 4))
    with pytest.raises(NumericalRegimeError) as info:
        ot_distance(Tensor(m1), Tensor(m2), SinkhornConfig(epsilon=0.02, unroll_iters=5))
    assert re.fullmatch(r"OT pairs \[0, 1, 2\] did not converge at epsilon=0.02: "
                        r"marginal violation \S+ after Newton", str(info.value))


def test_nan_violation_raises_naming_its_pair(monkeypatch):
    from otface import ot

    real_solve = ot._solve

    def nan_pair_1(*args):
        plan, violation, iters = real_solve(*args)
        violation[1] = np.nan
        return plan, violation, iters

    monkeypatch.setattr(ot, "_solve", nan_pair_1)
    m1, m2 = np.random.default_rng(0).normal(size=(2, 3, 6, 4))
    with pytest.raises(NumericalRegimeError, match=r"OT pairs \[1\] did not converge"):
        ot_distance(Tensor(m1), Tensor(m2), SinkhornConfig(epsilon=0.1, unroll_iters=15))


def test_nan_violation_after_plain_iterations_is_handed_to_newton(monkeypatch):
    from otface import ot

    real_plain, real_newton, handed = ot._plain, ot._newton, []

    def nan_plain(*args):
        f, g, violation, used = real_plain(*args)
        return f, g, np.full_like(violation, np.nan), used

    def spy(plan, tol):
        handed.append(len(plan))
        return real_newton(plan, tol)

    monkeypatch.setattr(ot, "_plain", nan_plain)
    monkeypatch.setattr(ot, "_newton", spy)
    cost = np.random.default_rng(1).random((4, 4))
    plan = sinkhorn_log_domain(cost, SinkhornConfig(epsilon=0.1, max_iters=500,
                                                    marginal_tol=1e-9))
    assert handed == [1]
    assert plan.converged


# Random (3, n <= 16, d <= 16) stacks, seeds 0-29: every level of the
# ladder gets the whole budget, so every pair reaches epsilon, and a stack
# that raises does so because Newton left a pair above tolerance.
@pytest.mark.parametrize("eps,budget,raising_stacks", [
    (1e-4, 15, 6), (1e-4, 50, 2), (1e-3, 15, 6), (1e-3, 50, 4),
])
def test_every_pair_reaches_epsilon_and_raises_only_after_newton(monkeypatch, eps, budget,
                                                                 raising_stacks):
    from otface import ot

    plain, budgets, at_eps = ot._plain, set(), []
    def spy(cost, level, f, tol, left):
        budgets.add(left)
        *solved, iters = plain(cost, level, f, tol, left)
        if level == eps:
            at_eps.extend(iters.tolist())
        return *solved, iters
    monkeypatch.setattr(ot, "_plain", spy)
    raised = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 17, size=2)
        m1, m2 = rng.normal(size=(2, 3, n, d))
        at_eps.clear()
        try:
            ot_distance(Tensor(m1), Tensor(m2), SinkhornConfig(epsilon=eps, unroll_iters=budget))
        except NumericalRegimeError as exc:
            assert re.fullmatch(r"OT pairs \[[\d, ]+\] did not converge at epsilon=\S+: "
                                r"marginal violation \S+ after Newton", str(exc))
            raised += 1
        assert len(at_eps) == 3 and min(at_eps) >= 1, seed
    assert budgets == {budget}
    assert raised == raising_stacks


def _tape_edges(root):
    """Number of `_prev` edges among the nodes reachable from `root`."""
    seen, todo, edges = {id(root)}, [root], 0
    while todo:
        node = todo.pop()
        edges += len(node._prev)
        for child in node._prev:
            if id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return edges


def test_ot_distance_tape_does_not_grow_with_iterations():
    rng = np.random.default_rng(19)
    m1 = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
    m2 = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
    sizes = [_tape_edges(ot_distance(m1, m2, SinkhornConfig(epsilon=0.1,
                                                            unroll_iters=iters)))
             for iters in (5, 50)]
    assert sizes[0] == sizes[1]


def test_oracle_sandwich_monotone_in_epsilon():
    # small-scale version; the full 200-seed sweep is an acceptance test
    for seed in range(30):
        cost = random_cost(np.random.default_rng(300 + seed), 4)
        exact = exact_ot_uniform(cost)
        gaps = []
        for eps in (0.05, 0.01, 0.005):
            cfg = SinkhornConfig(epsilon=eps, max_iters=500,
                                 marginal_tol=1e-12)
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
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-12)
    stalled = 0
    for seed in range(40):
        cost = criterion_1_cost(seed)
        if _plain_log_sinkhorn_violation(cost, cfg.epsilon, cfg.max_iters) <= 1e-12:
            continue
        stalled += 1
        plan = sinkhorn_log_domain(cost, cfg)
        assert plan.converged and plan.marginal_violation <= 1e-12, seed
        assert plan.iterations_used < cfg.max_iters, (seed, plan.iterations_used)
    assert stalled >= 30


def test_locked_support_still_runs_the_epsilon_ladder(monkeypatch):
    from otface import ot

    levels = []
    real_plain = ot._plain

    def spy(cost, eps, f, tol, budget):
        levels.append((eps, tol))
        return real_plain(cost, eps, f, tol, budget)

    monkeypatch.setattr(ot, "_plain", spy)
    cfg = SinkhornConfig(epsilon=0.005, max_iters=500, marginal_tol=1e-12)
    for seed in (129, 140, 165):  # criterion-1 seeds with a locked support
        cost = criterion_1_cost(seed)
        levels.clear()
        plan = sinkhorn_log_domain(cost, cfg)
        assert plan.converged and plan.marginal_violation <= 1e-12, seed
        assert plan.value >= exact_ot_uniform(cost) - 1e-12, seed
        ladder = (1.0, 0.1, 0.01, 0.005)
        assert len(levels) == len(ladder), seed
        for (level, _), eps in zip(levels, ladder):
            assert level == pytest.approx(eps), (seed, eps)
        assert [tol for _, tol in levels] == [ot.COARSE_TOL] * 3 + [1e-12], seed


def test_slowly_contracting_solves_hand_off_before_budget_is_spent():
    # criterion-1 problems whose violation keeps halving within the stall
    # window, but too slowly to reach the tolerance in 500 iterations
    for seed, eps in ((4, 0.05), (61, 0.05), (78, 0.05), (113, 0.05),
                      (130, 0.01), (148, 0.05), (165, 0.005), (197, 0.05)):
        cost = criterion_1_cost(seed)
        cfg = SinkhornConfig(epsilon=eps, max_iters=500, marginal_tol=1e-12)
        assert _plain_log_sinkhorn_violation(cost, eps, cfg.max_iters) > 1e-12
        plan = sinkhorn_log_domain(cost, cfg)
        assert plan.converged and plan.marginal_violation <= 1e-12, (seed, eps)
        assert plan.iterations_used < cfg.max_iters, (seed, eps, plan.iterations_used)


def test_newton_never_spends_its_whole_step_budget(monkeypatch):
    from otface import ot

    steps_taken = []
    real_newton = ot._newton

    def spy(*args, **kwargs):
        *solved, steps = real_newton(*args, **kwargs)
        steps_taken.extend(steps.tolist())
        return *solved, steps

    monkeypatch.setattr(ot, "_newton", spy)
    for seed in range(200):  # the criterion-1 problems
        cost = criterion_1_cost(seed)
        for eps in (0.05, 0.01, 0.005):
            plan = sinkhorn_log_domain(cost, SinkhornConfig(
                epsilon=eps, max_iters=500, marginal_tol=1e-12))
            assert plan.converged, (seed, eps)
    assert steps_taken and max(steps_taken) < 50


# The solver's loops as they were before they were trimmed of numpy calls,
# kept verbatim as the byte oracle: the trimmed loops must reach every
# iterate, stop decision, plan and count exactly as these do.

def _reference_plain(cost: np.ndarray, eps: float, f: np.ndarray, tol: float,
                     budget: int) -> tuple[np.ndarray, ...]:
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
    window = ot.STALL_WINDOW
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


def _reference_schur_solve(gram: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    schur = -gram
    schur.reshape(len(gram), -1)[:, ::cols.shape[-1]] += (1.0 + ot.SCHUR_JITTER) * cols[..., :-1]
    b = np.linalg.solve(schur, rhs[..., None])[..., 0]
    return np.concatenate([b, np.zeros((len(b), 1))], axis=-1)


def _reference_newton(plan: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
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
        stop = (viol <= tol) | (step == ot.NEWTON_STEPS)
        if stop.any():
            done = active[stop]
            plan[done], violation[done], steps[done] = p[stop], viol[stop], step
            if stop.all():
                return plan, violation, steps
            keep = ~stop
            active, p, cols, residual = (v[keep] for v in (active, p, cols, residual))
        step += 1
        pinned = p[..., :-1]
        db = _reference_schur_solve(n * (pinned.mT @ pinned), cols, residual[:, :-1])
        # a shift of the column potentials is absorbed by the row
        # normalisation; damp wild steps
        db -= (db @ ones)[:, None] / n
        db *= np.minimum(1.0, 1.0 / np.abs(db).max(axis=-1))[:, None]
        p = p * np.exp(db)[:, None, :]


def _reference_solve(cost: np.ndarray, eps: float, tol: float, budget: int
                     ) -> tuple[np.ndarray, ...]:
    levels = []
    level = max(eps, 1.0, float(cost.max()) / 10.0)
    while level > eps:
        levels.append(level)
        level /= 10.0
    f = np.zeros(cost.shape[:-1] + (1,))
    iters = np.zeros(len(cost), dtype=np.int64)
    for level in levels + [eps]:
        f, g, violation, used = _reference_plain(cost, level, f,
                                                 ot.COARSE_TOL if level > eps else tol, budget)
        iters += used
    plan = np.exp((f + g - cost) / eps)
    stuck = np.flatnonzero(violation > tol)
    if stuck.size:
        plan[stuck], violation[stuck], steps = _reference_newton(plan[stuck],
                                                                 min(tol, ot.POLISH_TOL))
        iters[stuck] += steps
    return plan, violation, iters


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.005])
def test_solve_is_byte_identical_to_the_reference_on_criterion_1_costs(eps):
    for seed in range(200):
        cost = criterion_1_cost(seed)[None]
        _assert_same_bytes(ot._solve(cost, eps, 1e-12, 500),
                           _reference_solve(cost, eps, 1e-12, 500))


@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_solve_is_byte_identical_to_the_reference_on_cosine_costs(eps):
    rng = np.random.default_rng(31)
    for _ in range(40):
        cost = _cosine_cost(*rng.normal(size=(2, 16, 16)))[None]
        _assert_same_bytes(ot._solve(cost, eps, 1e-6, 200),
                           _reference_solve(cost, eps, 1e-6, 200))


def test_stack_stopping_at_different_iterations_is_byte_identical_to_the_reference():
    # one cold level on 40 problems: some reach the tolerance, some stall,
    # and some stop early on the rate forecast, which a budget of 10**6
    # leaves running
    cost = np.random.default_rng(0).random((40, 5, 5))
    f = np.zeros((40, 5, 1))
    runs = {}
    for budget in (500, 10 ** 6):
        runs[budget] = _reference_plain(cost, 0.05, f, 1e-12, budget)
        _assert_same_bytes(ot._plain(cost, 0.05, f, 1e-12, budget), runs[budget])
    *_, violation, iters = runs[500]
    *_, long_violation, long_iters = runs[10 ** 6]
    assert np.sum(violation <= 1e-12) >= 10
    assert np.sum((long_violation > 1e-12) & (long_iters > ot.STALL_WINDOW)) >= 10
    assert np.sum((iters < long_iters) & (iters > ot.STALL_WINDOW)) >= 10
    assert len(np.unique(iters)) >= 20
    # a NaN problem runs to the budget without holding the others back
    nan_f = f.copy()
    nan_f[7, 2] = np.nan
    plan = np.exp(-cost / 0.05)
    plan[2, 1] = 0.0  # a zero row, whose normalisation gives NaN
    with np.errstate(all="ignore"):
        for budget in (15, 500):
            _assert_same_bytes(ot._plain(cost, 0.05, nan_f, 1e-12, budget),
                               _reference_plain(cost, 0.05, nan_f, 1e-12, budget))
        _assert_same_bytes(ot._newton(plan[:8], 1e-12), _reference_newton(plan[:8], 1e-12))
    # the whole ladder, and batched Newton on the problems it leaves; the
    # cosine stack is a trained batch's, polished at its budget
    cosine = _cosine_cost(*np.random.default_rng(1).normal(size=(2, 40, 16, 16)))
    for stack, eps, tol, budget in ((cost, 0.05, 1e-12, 500), (cost, 0.01, 1e-12, 15),
                                    (cosine, 0.1, ot.POLISH_TOL, 15),
                                    (cosine, 0.02, ot.POLISH_TOL, 50)):
        _assert_same_bytes(ot._solve(stack, eps, tol, budget),
                           _reference_solve(stack, eps, tol, budget))
