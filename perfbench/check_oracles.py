"""Tests for the benchmark's own oracles and checks.

Each oracle must agree with the program on hand-sized cases, and each
check must fail on a planted fault. The file name keeps these checks out
of the package's own test run; pytest collects the file when it is named:

    PYTHONPATH=src python -m pytest perfbench/check_oracles.py -q
"""

import itertools

import numpy as np
import pytest

import oracles
from otface import LabeledBatch, SinkhornConfig, mine_hard_groups
from otface.evaluation import (PairSet, kfold_accuracy, roc_points,
                               tar_at_far)
from otface.ot import exact_ot_uniform, sinkhorn_log_domain


def _groups(batch, cap):
    return [(g.anchor, g.positive, g.negative) for g in mine_hard_groups(batch, cap)]


# -- optimal transport --------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_exact_ot_matches_enumeration_and_program(seed):
    rng = np.random.default_rng(seed)
    cost = rng.random((int(rng.integers(2, 7)),) * 2)
    value = oracles.exact_ot(cost)
    assert value == pytest.approx(oracles.exact_ot_enumerated(cost), abs=1e-15)
    assert value == pytest.approx(exact_ot_uniform(cost), abs=1e-15)


def test_reference_sinkhorn_matches_program_solver():
    rng = np.random.default_rng(3)
    costs = [rng.random((4, 4)) for _ in range(5)]
    values, err = oracles.sinkhorn_reference(np.stack(costs), 0.05)
    assert np.all(err <= 1e-12)
    cfg = SinkhornConfig(epsilon=0.05, max_iters=500, marginal_tol=1e-12,
                         log_domain=True)
    for cost, value in zip(costs, values):
        assert sinkhorn_log_domain(cost, cfg).value == pytest.approx(value, rel=1e-10)


def test_ot_checks_pass_program_output_and_fail_planted_faults():
    cost = np.random.default_rng(8).random((5, 5))
    exact = oracles.exact_ot(cost)
    ladder = []
    for eps in (0.05, 0.01, 0.005):
        plan = sinkhorn_log_domain(cost, SinkhornConfig(
            epsilon=eps, max_iters=500, marginal_tol=1e-12, log_domain=True))
        assert oracles.check_ot_value(plan.value, exact) == []
        assert oracles.check_plan(plan.plan, 1e-11) == []
        ladder.append(plan.value)
    assert oracles.check_gap_ladder(ladder, exact) == []
    # planted: a value below the exact optimum, a plan with mass moved off
    # its marginals, and a gap that grows as epsilon shrinks
    assert oracles.check_ot_value(exact - 1e-6, exact)
    bad = plan.plan.copy()
    bad[0, 0] += 1e-6
    assert oracles.check_plan(bad, 1e-11)
    assert oracles.check_gap_ladder(ladder[::-1], exact)


# -- mining -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("cap", [None, 1, 2])
def test_brute_force_miner_matches_program(seed, cap):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    labels = rng.integers(0, 3, size=n)
    emb = rng.normal(size=(n, 4))
    batch = LabeledBatch(emb, labels)
    assert oracles.check_groups(_groups(batch, cap), emb, labels, cap) == []


def _tied_batch():
    # samples 2 and 3 are identical impostors, so every anchor of class 0
    # has two hard groups with bit-identical violations
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    return emb, np.array([0, 0, 1, 1])


def test_tie_goes_to_the_smaller_negative():
    emb, labels = _tied_batch()
    got = _groups(LabeledBatch(emb, labels), 1)
    assert (0, 1, 2) in got and (0, 1, 3) not in got
    assert oracles.check_groups(got, emb, labels, 1) == []


def test_miner_check_fails_on_a_miner_that_keeps_the_wrong_tie():
    emb, labels = _tied_batch()
    full = _groups(LabeledBatch(emb, labels), None)
    planted = []
    for a, rows in itertools.groupby(full, key=lambda g: g[0]):
        planted.append(list(rows)[-1])  # keeps the last of the tied groups
    assert oracles.check_groups(planted, emb, labels, 1)
    assert oracles.check_groups(full, emb, labels, 1)  # keeps both


# -- verification protocol ----------------------------------------------------


def _random_protocol(seed, n=400, k=10):
    rng = np.random.default_rng(seed)
    same = rng.random(n) < 0.5
    # rounding to 2 decimals makes many tied scores
    scores = np.round(np.where(same, 0.3, 0.0) + rng.normal(0, 0.3, n), 2)
    fold = np.arange(n) % k
    pairs = PairSet(np.zeros(n), np.zeros(n), same, fold)
    return pairs, scores


@pytest.mark.parametrize("seed", range(5))
def test_protocol_oracles_match_program(seed):
    pairs, scores = _random_protocol(seed)
    report = kfold_accuracy(pairs, scores, k=10)
    assert oracles.check_kfold(report.fold_accuracies, report.thresholds,
                               report.mean_accuracy, scores, pairs.same,
                               pairs.fold) == []
    assert oracles.check_roc(roc_points(scores, pairs.same), scores, pairs.same) == []
    targets = [0.5, 0.1, 0.01, 1e-4]
    assert oracles.check_tar_at_far(tar_at_far(scores, pairs.same, targets),
                                    scores, pairs.same, targets) == []


def _largest_tied_thresholds(scores, same, fold):
    """A planted k-fold that lets the largest of tied thresholds win."""
    out = []
    for f in np.unique(fold):
        s, y = scores[fold != f], same[fold != f]
        uniq = np.unique(s)
        cands = np.concatenate(([uniq[0] - 1], (uniq[:-1] + uniq[1:]) / 2,
                                [uniq[-1] + 1]))
        accs = [np.mean((s >= t) == y) for t in cands]
        out.append(float(cands[len(accs) - 1 - int(np.argmax(accs[::-1]))]))
    return out


def test_kfold_check_fails_when_the_largest_tied_threshold_wins():
    # each training fold has thresholds 0.3 and 0.8 tied at 3/4 correct
    scores = np.array([0.9, 0.5, 0.7, 0.1] * 2)
    same = np.array([True, True, False, False] * 2)
    fold = np.repeat([0, 1], 4)
    pairs = PairSet(np.zeros(8), np.zeros(8), same, fold)
    report = kfold_accuracy(pairs, scores, k=2)
    assert report.thresholds == [0.3, 0.3]
    assert oracles.check_kfold(report.fold_accuracies, report.thresholds,
                               report.mean_accuracy, scores, same, fold) == []
    planted = _largest_tied_thresholds(scores, same, fold)
    assert planted == [0.8, 0.8]
    assert oracles.check_kfold(report.fold_accuracies, planted,
                               report.mean_accuracy, scores, same, fold)


def test_score_and_norm_checks():
    emb = np.random.default_rng(0).normal(size=(6, 3))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    left, right = np.array([0, 1, 2]), np.array([3, 4, 5])
    scores = np.sum(emb[left] * emb[right], axis=1)
    assert oracles.check_scores(scores, emb, left, right) == []
    assert oracles.check_scores(scores + 1e-9, emb, left, right)
    assert oracles.check_unit_norm(emb) == []
    assert oracles.check_unit_norm(emb * 1.001)


# -- gradients ----------------------------------------------------------------


def test_directional_check_accepts_true_and_rejects_wrong_gradient():
    x = {"w": np.array([0.3, -1.2, 2.0]), "b": np.array([[0.5]])}

    def loss(p):
        return float(np.sum(np.sin(p["w"])) + np.sum(p["b"] ** 3))

    grads = {"w": np.cos(x["w"]), "b": 3 * x["b"] ** 2}
    assert oracles.directional_check(loss, x, grads, np.random.default_rng(0)) == []
    wrong = {"w": grads["w"] * 1.01, "b": grads["b"]}
    assert oracles.directional_check(loss, x, wrong, np.random.default_rng(0))
