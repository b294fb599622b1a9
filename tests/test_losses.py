import math

import numpy as np
import pytest

from otface import (
    ClassifierWeights,
    ConfigurationError,
    ContractError,
    LabeledBatch,
    MarginConfig,
    SinkhornConfig,
    Tensor,
    cross_entropy,
    margin_logits,
    ot_distance,
    ot_triplet_loss,
    otface_loss,
    per_sample_cross_entropy,
)
from otface import losses as losses_mod
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
        for v in ("plain", "additive_cosine", "additive_angular")
    ]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_margin_only_shrinks_target_logit():
    rng = np.random.default_rng(4)
    w = ClassifierWeights.init_random(6, 4, rng)
    emb = Tensor(rng.normal(size=(8, 6)))
    labels = rng.integers(0, 4, size=8)
    plain = margin_logits(emb, w, labels, MarginConfig("plain", 10.0, 0.0)).data
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

    def counting_ot_distance(*args):
        calls.append(args[0].shape)
        return ot_distance(*args)

    monkeypatch.setattr(losses_mod, "ot_distance", counting_ot_distance)
    rng = np.random.default_rng(13)
    maps = rng.normal(size=(6, 4, 3))
    # (0, 1) and (0, 2) recur across groups, (2, 0) is (0, 2) reversed
    groups = [HardGroup(0, 1, 2), HardGroup(0, 1, 3), HardGroup(2, 5, 0),
              HardGroup(1, 0, 4), HardGroup(0, 1, 2)]
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=20)

    stacked = Tensor(maps, requires_grad=True)
    from_stack = ot_triplet_loss(groups, stacked, cfg, hinge_margin=0.3)
    from_stack.backward()
    rows = {i: Tensor(maps[i], requires_grad=True) for i in range(6)}
    from_dict = ot_triplet_loss(groups, rows, cfg, hinge_margin=0.3)
    from_dict.backward()

    # distinct unordered pairs: (0,1) (0,2) (0,3) (1,4) (2,5)
    assert calls == [(5, 4, 3), (5, 4, 3)]
    assert from_stack.item() > 0.0
    assert from_stack.item() == pytest.approx(from_dict.item(), abs=1e-12)
    for i in range(6):
        assert np.max(np.abs(stacked.grad[i] - rows[i].grad)) < 1e-12

    # the same value as summing the per-group hinge terms one by one
    def ot(i, j):
        lo, hi = min(i, j), max(i, j)
        return ot_distance(Tensor(maps[lo]), Tensor(maps[hi]), cfg).item()
    expected = sum(max(ot(g.anchor, g.positive) - ot(g.anchor, g.negative) + 0.3,
                       0.0) for g in groups)
    assert from_stack.item() == pytest.approx(expected, abs=1e-12)


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
