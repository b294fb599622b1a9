import math

import numpy as np
import pytest

from otface import (
    ClassifierWeights,
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    LabeledBatch,
    MarginConfig,
    SinkhornConfig,
    Tensor,
    cross_entropy,
    margin_logits,
    normalize_rows,
    ot_distance,
    ot_pair_distances,
    ot_triplet_loss,
    otface_loss,
    per_sample_cross_entropy,
    stack,
    to_distribution,
)
from otface import losses as losses_mod
from otface import ot as ot_mod
from otface.mining import HardGroup

from conftest import rel_err


def axis_weights(dim, num_classes):
    """Classifier whose column j is the j-th coordinate axis."""
    return ClassifierWeights(Tensor(np.eye(dim)[:, :num_classes], requires_grad=True))


def test_margin_config_validation():
    with pytest.raises(ConfigurationError):
        MarginConfig(variant="bogus").validate()
    with pytest.raises(ConfigurationError):
        MarginConfig(variant="additive_cosine", margin=1.0).validate()
    with pytest.raises(ConfigurationError):
        MarginConfig(variant="additive_angular", margin=math.pi / 2).validate()
    with pytest.raises(ConfigurationError):
        MarginConfig(scale=0.0).validate()
    # margin 0 is the plain cosine head; there is no variant for it
    with pytest.raises(ConfigurationError, match="unknown margin variant 'plain'"):
        MarginConfig(variant="plain", margin=0.0).validate()


@pytest.mark.parametrize("variant", ["additive_cosine", "additive_angular"])
@pytest.mark.parametrize("field,value", [
    ("scale", math.nan), ("scale", math.inf), ("scale", -1.0),
    ("margin", math.nan), ("margin", math.inf), ("margin", -0.1)])
def test_margin_config_rejects_a_non_finite_or_out_of_range_value(variant, field, value):
    with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
        MarginConfig(variant=variant, **{field: value}).validate()


def test_classifier_columns_normalize_to_unit():
    rng = np.random.default_rng(0)
    w = ClassifierWeights.init_random(8, 5, rng)
    norms = np.linalg.norm(w.normalized().data, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_cosine_margin_target_logit_arithmetic():
    w = axis_weights(4, 3)
    emb = Tensor([[1.0, 0.0, 0.0, 0.0]])  # cos with class 0 is exactly 1
    cfg = MarginConfig(variant="additive_cosine", scale=30.0, margin=0.35)
    logits = margin_logits(emb, w, [0], cfg)
    assert logits.data[0, 0] == pytest.approx(30.0 * (1.0 - 0.35))  # 19.5
    assert logits.data[0, 1] == pytest.approx(0.0)


def test_angular_margin_target_logit_arithmetic():
    w = axis_weights(4, 3)
    emb = Tensor([[1.0, 0.0, 0.0, 0.0]])  # theta_y = 0
    cfg = MarginConfig(variant="additive_angular", scale=1.0, margin=0.5)
    logits = margin_logits(emb, w, [0], cfg)
    assert logits.data[0, 0] == pytest.approx(math.cos(0.5))


def test_zero_margin_collapses_all_variants():
    rng = np.random.default_rng(3)
    w = ClassifierWeights.init_random(6, 4, rng)
    emb = Tensor(rng.normal(size=(5, 6)))
    labels = rng.integers(0, 4, size=5)
    outs = [
        margin_logits(emb, w, labels,
                      MarginConfig(variant=v, scale=12.0, margin=0.0)).data
        for v in ("additive_cosine", "additive_angular")
    ]
    assert np.array_equal(outs[0], outs[1])
    cosine = (normalize_rows(emb) @ w.normalized()).data.clip(-1.0, 1.0)
    assert np.array_equal(outs[0], cosine * 12.0)


def test_margin_only_shrinks_target_logit():
    rng = np.random.default_rng(4)
    w = ClassifierWeights.init_random(6, 4, rng)
    emb = Tensor(rng.normal(size=(8, 6)))
    labels = rng.integers(0, 4, size=8)
    plain = margin_logits(emb, w, labels, MarginConfig("additive_cosine", 10.0, 0.0)).data
    for variant in ("additive_cosine", "additive_angular"):
        marged = margin_logits(emb, w, labels,
                               MarginConfig(variant, 10.0, 0.3)).data
        rows = np.arange(8)
        assert np.all(marged[rows, labels] <= plain[rows, labels] + 1e-12)
        off = ~np.eye(4, dtype=bool)[labels]
        assert np.allclose(marged[off.nonzero()[0], off.nonzero()[1]],
                           plain[off.nonzero()[0], off.nonzero()[1]])


def test_margin_logits_rejects_bad_labels():
    w = axis_weights(4, 3)
    with pytest.raises(ContractError):
        margin_logits(Tensor([[1.0, 0.0, 0.0, 0.0]]), w, [3], MarginConfig())


def test_cross_entropy_saturated_and_uniform():
    assert cross_entropy(Tensor([[1000.0, 0.0, 0.0]]), [0]).item() == pytest.approx(0.0)
    k = 7
    assert cross_entropy(Tensor(np.zeros((1, k))), [2]).item() == pytest.approx(math.log(k))


def test_cross_entropy_matches_naive_softmax():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4)) * 3.0
    labels = rng.integers(0, 4, size=6)
    got = per_sample_cross_entropy(Tensor(logits), labels).data
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    naive = -np.log(probs[np.arange(6), labels])
    assert np.max(np.abs(got - naive)) < 1e-12


def test_ot_triplet_empty_groups_is_zero():
    assert ot_triplet_loss([], {}, SinkhornConfig()).item() == 0.0


def test_ot_triplet_hinge_boundary():
    # positive and negative distributions identical -> OT(a,p) == OT(a,n)
    rng = np.random.default_rng(8)
    shared = Tensor(rng.normal(size=(3, 4)))
    dists = {0: Tensor(rng.normal(size=(3, 4))), 1: shared, 2: shared}
    loss = ot_triplet_loss([HardGroup(0, 1, 2)], dists,
                           SinkhornConfig(epsilon=0.1))
    assert loss.item() == 0.0


def test_ot_triplet_permutation_vs_orthogonal():
    anchor = Tensor(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    permuted = Tensor(np.array([[0, 1.0, 0, 0], [1.0, 0, 0, 0]]))
    orthogonal = Tensor(np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]))
    cfg = SinkhornConfig(epsilon=0.05, unroll_iters=30)
    dists = {0: anchor, 1: permuted, 2: orthogonal}
    # OT(anchor, permuted) ~ -eps (1 + log 2) on the permutation plan,
    # OT(anchor, orthogonal) = 1 - eps (1 + 2 log 2) on the uniform plan
    assert ot_triplet_loss([HardGroup(0, 1, 2)], dists, cfg).item() == \
        pytest.approx(0.0, abs=1e-6)
    assert ot_triplet_loss([HardGroup(0, 2, 1)], dists, cfg).item() == \
        pytest.approx(1.0 - 0.05 * math.log(2), abs=1e-6)


def test_ot_triplet_is_nonnegative():
    rng = np.random.default_rng(9)
    dists = {i: Tensor(rng.normal(size=(4, 3))) for i in range(6)}
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=30)
    for _ in range(10):
        a, p, n = rng.choice(6, size=3, replace=False)
        loss = ot_triplet_loss([HardGroup(int(a), int(p), int(n))], dists, cfg)
        assert loss.item() >= 0.0


def test_ot_triplet_rejects_negative_hinge():
    with pytest.raises(ConfigurationError):
        ot_triplet_loss([HardGroup(0, 1, 2)], {}, SinkhornConfig(), hinge_margin=-0.1)


def test_ot_triplet_stack_and_mapping_agree_in_one_ot_call(monkeypatch):
    calls = []

    def counting_ot_pair_distances(samples, pairs, cfg):
        calls.append((samples, pairs.tolist()))
        return ot_pair_distances(samples, pairs, cfg)

    monkeypatch.setattr(losses_mod, "ot_pair_distances", counting_ot_pair_distances)
    rng = np.random.default_rng(13)
    maps = rng.normal(size=(7, 4, 3))
    # (0, 1) and (0, 2) recur across groups, (2, 0) is (0, 2) reversed;
    # sample 6 is in no group
    groups = [HardGroup(0, 1, 2), HardGroup(0, 1, 3), HardGroup(2, 5, 0),
              HardGroup(1, 0, 4), HardGroup(0, 1, 2)]
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=20)

    stacked = Tensor(maps, requires_grad=True)
    from_stack = ot_triplet_loss(groups, stacked, cfg, hinge_margin=0.3)
    from_stack.backward()
    rows = {i: Tensor(maps[i], requires_grad=True) for i in range(6)}
    from_dict = ot_triplet_loss(groups, rows, cfg, hinge_margin=0.3)
    from_dict.backward()

    # one call per loss, on the distinct unordered pairs
    distinct = [[0, 1], [0, 2], [0, 3], [1, 4], [2, 5]]
    assert len(calls) == 2
    assert calls[0][0] is stacked and calls[1][0] is rows
    assert calls[0][1] == calls[1][1] == distinct
    assert from_stack.item() > 0.0
    assert from_stack.item() == pytest.approx(from_dict.item(), abs=1e-12)
    for i in range(6):
        assert np.max(np.abs(stacked.grad[i] - rows[i].grad)) < 1e-12
    assert not stacked.grad[6].any()

    # the same value as summing the per-group hinge terms one by one
    def ot(i, j):
        lo, hi = min(i, j), max(i, j)
        return ot_distance(Tensor(maps[lo]), Tensor(maps[hi]), cfg).item()
    expected = sum(max(ot(g.anchor, g.positive) - ot(g.anchor, g.negative) + 0.3,
                       0.0) for g in groups)
    assert from_stack.item() == pytest.approx(expected, abs=1e-12)


def _composed_pair_distances(samples, pairs, cfg):
    """What `ot_pair_distances` fuses, op by op on the tape: the used
    samples stacked (a mapping) or not (a tensor), both pair ends gathered,
    their rows normalised and the cosine cost built from tape ops, then one
    node whose backward is the plan."""
    if not isinstance(samples, Tensor):
        used = sorted(set(pairs.ravel().tolist()))
        samples = stack([samples[i] for i in used])
        pairs = np.searchsorted(used, pairs)
    m1, m2 = (samples.gather(end) for end in pairs.T)
    cost = (1.0 - normalize_rows(m1) @ normalize_rows(m2).mT).clip(0.0, 2.0)
    eps = cfg.epsilon
    plan, violation, _ = ot_mod._solve(cost.data, eps, ot_mod.POLISH_TOL, cfg.unroll_iters)
    assert np.all(violation <= ot_mod.POLISH_TOL)
    ones = np.ones(cost.shape[-1])
    log_plan = np.log(plan, out=np.zeros_like(plan), where=plan > 0.0)
    value = (cost.data * plan) @ ones @ ones + eps * (plan * (log_plan - 1.0)).sum(axis=(-2, -1))
    return Tensor._make(value, (cost,), lambda g: cost._accum(g[:, None, None] * plan))


# every sample but 4 and 7 is paired, most of them on both ends and more
# than once on one end
BYTE_PAIRS = np.array([[0, 1], [0, 2], [1, 2], [3, 0], [2, 5], [5, 6], [0, 6], [6, 1]])


def test_pair_distances_are_byte_identical_to_the_composition_on_feature_maps():
    # the training input: `to_distribution`'s transposed view of the maps
    rng = np.random.default_rng(40)
    maps = rng.normal(size=(8, 16, 4, 4))
    weights = Tensor(rng.uniform(-1.0, 1.0, size=len(BYTE_PAIRS)))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=15)
    results = []
    for distances in (ot_pair_distances, _composed_pair_distances):
        leaf = Tensor(maps, requires_grad=True)
        values = distances(to_distribution(leaf), BYTE_PAIRS, cfg)
        (values * weights).sum().backward()
        results.append((values.data.tobytes(), leaf.grad.tobytes()))
    assert results[0] == results[1]


def test_pair_distances_are_byte_identical_to_the_composition_on_a_mapping():
    rng = np.random.default_rng(41)
    # some samples are transposed views, as `to_distribution` gives them
    arrays = {i: rng.normal(size=(16, 12) if i % 2 else (12, 16)) for i in range(8)}
    weights = Tensor(rng.uniform(-1.0, 1.0, size=len(BYTE_PAIRS)))
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=15)
    results = []
    for distances in (ot_pair_distances, _composed_pair_distances):
        leaves = {i: Tensor(a, requires_grad=True) for i, a in arrays.items()}
        rows = {i: leaf.mT if i % 2 == 0 else leaf for i, leaf in leaves.items()}
        values = distances(rows, BYTE_PAIRS, cfg)
        (values * weights).sum().backward()
        grads = [leaves[i].grad.tobytes() for i in sorted(set(BYTE_PAIRS.ravel().tolist()))]
        results.append((values.data.tobytes(), grads))
    assert results[0] == results[1]


def test_ot_triplet_loss_records_one_ot_node_on_the_distributions():
    rng = np.random.default_rng(42)
    distributions = Tensor(rng.normal(size=(6, 4, 3)), requires_grad=True)
    groups = [HardGroup(0, 1, 2), HardGroup(3, 1, 0), HardGroup(2, 5, 0)]
    loss = ot_triplet_loss(groups, distributions, SinkhornConfig(epsilon=0.1), 0.3)
    nodes, todo = {id(loss): loss}, [loss]
    while todo:
        for child in todo.pop()._prev:
            if id(child) not in nodes:
                nodes[id(child)] = child
                todo.append(child)
    readers = [t for t in nodes.values() if any(p is distributions for p in t._prev)]
    assert len(readers) == 1
    node = readers[0]
    assert node._prev == (distributions,) and node.shape == (5,)
    # the hinge terms read the pair values straight from the node
    assert [len(t._prev) for t in nodes.values() if any(p is node for p in t._prev)] == [1, 1]


def test_degenerate_atom_is_named_by_its_sample_index_only_if_the_sample_is_paired():
    rng = np.random.default_rng(43)
    maps = rng.normal(size=(6, 4, 3))
    maps[4, 2] = 0.0
    cfg = SinkhornConfig(epsilon=0.1)
    unpaired = [HardGroup(0, 1, 2), HardGroup(3, 5, 0)]
    paired = unpaired + [HardGroup(1, 0, 4)]
    for distributions in (Tensor(maps), {i: Tensor(m) for i, m in enumerate(maps)}):
        assert ot_triplet_loss(unpaired, distributions, cfg).item() >= 0.0
        with pytest.raises(DegenerateInputError, match=r"^sample 4 atom 2 has norm 0\.000e\+00$"):
            ot_triplet_loss(paired, distributions, cfg)
    # a mapping's keys are the indices
    keyed = {10 + i: Tensor(m) for i, m in enumerate(maps)}
    with pytest.raises(DegenerateInputError, match=r"^sample 14 atom 2 has"):
        ot_triplet_loss([HardGroup(10 + g.anchor, 10 + g.positive, 10 + g.negative)
                         for g in paired], keyed, cfg)


def _toy_batch(rng, labels):
    emb = rng.normal(size=(len(labels), 6))
    return LabeledBatch(emb, np.asarray(labels)), Tensor(emb, requires_grad=True)


def test_otface_no_hard_groups_degrades_to_margin_tensor():
    rng = np.random.default_rng(10)
    batch, emb = _toy_batch(rng, [0, 0, 1, 1])
    weights = ClassifierWeights.init_random(6, 2, rng)
    breakdown = otface_loss(batch, emb, {}, weights, MarginConfig(),
                            SinkhornConfig(), mining_enabled=False)
    assert breakdown.num_hard_groups == 0
    assert breakdown.ot_loss.item() == 0.0
    assert breakdown.total is breakdown.margin_loss


def test_otface_single_class_batch_has_zero_ot():
    rng = np.random.default_rng(11)
    batch, emb = _toy_batch(rng, [0, 0, 0, 0])
    weights = ClassifierWeights.init_random(6, 1, rng)
    breakdown = otface_loss(batch, emb, {}, weights, MarginConfig(),
                            SinkhornConfig())
    assert breakdown.num_hard_groups == 0
    assert breakdown.ot_loss.item() == 0.0


def test_otface_loss_mines_through_the_module_attribute(monkeypatch):
    # benchmarks pin the groups by replacing `losses.mine_hard_groups`; a
    # miner called any other way would leave them unpinned
    rng = np.random.default_rng(12)
    batch, emb = _toy_batch(rng, [0, 0, 1, 1, 0, 1])
    dists = {i: Tensor(rng.normal(size=(4, 3))) for i in range(6)}
    weights = ClassifierWeights.init_random(6, 2, rng)
    calls = []

    def pinned(*args, **kwargs):
        calls.append(args)
        return [HardGroup(0, 4, 2)]

    monkeypatch.setattr(losses_mod, "mine_hard_groups", pinned)
    breakdown = otface_loss(batch, emb, dists, weights, MarginConfig(),
                            SinkhornConfig(epsilon=0.1, unroll_iters=20),
                            hinge_margin=0.2, cap_per_anchor=3)
    assert calls == [(batch, 3)]
    assert breakdown.num_hard_groups == 1


def test_otface_breakdown_invariants_and_lambda():
    rng = np.random.default_rng(12)
    batch, emb = _toy_batch(rng, [0, 0, 1, 1, 0, 1])
    dists = {i: Tensor(rng.normal(size=(4, 3))) for i in range(6)}
    weights = ClassifierWeights.init_random(6, 2, rng)
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=20)
    one = otface_loss(batch, emb, dists, weights, MarginConfig(), cfg,
                      hinge_margin=0.2, lambda_ot=1.0)
    assert one.num_hard_groups > 0
    assert one.ot_loss.item() >= 0.0
    assert one.total.item() == pytest.approx(
        one.margin_loss.item() + one.ot_loss.item()
    )
    half = otface_loss(batch, emb, dists, weights, MarginConfig(), cfg,
                       hinge_margin=0.2, lambda_ot=0.5)
    assert half.ot_loss.item() == pytest.approx(0.5 * one.ot_loss.item())
