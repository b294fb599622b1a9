import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otface.errors import ContractError, DegenerateInputError
from otface.evaluation import (
    PairSet,
    kfold_accuracy,
    make_pairs,
    pair_scores,
    rank1_identification,
    roc_points,
    tar_at_far,
)


def pairset(same_flags, folds):
    n = len(same_flags)
    return PairSet(np.arange(n), np.arange(n), np.array(same_flags),
                   np.array(folds))


def sweep_oracle(train_s, train_y, test_s, test_y):
    """Brute-force: try every midpoint/sentinel threshold on the train
    split, break accuracy ties toward the smaller threshold. Returns the
    held-out accuracy and the chosen threshold."""
    uniq = np.unique(train_s)
    cands = np.concatenate(([uniq[0] - 1.0],
                            (uniq[:-1] + uniq[1:]) / 2.0,
                            [uniq[-1] + 1.0]))
    best_t, best_a = None, -1.0
    for t in cands:
        a = float(np.mean((train_s >= t) == train_y))
        if a > best_a:
            best_a, best_t = a, t
    return float(np.mean((test_s >= best_t) == test_y)), float(best_t)


def scan_roc_oracle(scores, same):
    """(FAR, TAR) by comparing every observed score threshold against
    every score, thresholds descending."""
    genuine, impostor = scores[same], scores[~same]
    return [(float(np.mean(impostor >= t)), float(np.mean(genuine >= t)))
            for t in np.unique(scores)[::-1]]


def scan_tar_oracle(scores, same, targets):
    """TAR at the smallest observed score whose FAR is <= each target,
    found by scanning every threshold."""
    genuine, impostor = scores[same], scores[~same]
    out = {}
    for target in targets:
        feasible = [t for t in np.unique(scores)
                    if np.mean(impostor >= t) <= target]
        out[target] = (None if target < 1.0 / impostor.size or not feasible
                       else float(np.mean(genuine >= min(feasible))))
    return out


def test_pair_scores_reference_points():
    emb = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0], [0.0, 1.0]])
    pairs = PairSet([0, 0, 0], [1, 2, 3], [True, False, False], [0, 0, 0])
    scores = pair_scores(emb, pairs)
    assert scores == pytest.approx([1.0, -1.0, 0.0])


def test_pair_scores_scale_invariant():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(6, 4))
    pairs = PairSet([0, 1, 2], [3, 4, 5], [True, True, False], [0, 0, 0])
    base = pair_scores(emb, pairs)
    scaled = pair_scores(emb * 13.0, pairs)
    assert np.allclose(base, scaled, atol=1e-12)


def test_pair_scores_rejects_zero_embedding():
    emb = np.zeros((2, 3))
    with pytest.raises(DegenerateInputError):
        pair_scores(emb, PairSet([0], [1], [True], [0]))


def test_kfold_perfectly_separable_is_one():
    same = [True] * 10 + [False] * 10
    folds = list(range(5)) * 2 + list(range(5)) * 2
    scores = np.array([0.9] * 10 + [0.1] * 10)
    report = kfold_accuracy(pairset(same, folds), scores, k=5)
    assert report.mean_accuracy == 1.0
    assert report.fold_accuracies == [1.0] * 5


def test_kfold_uninformative_scores_hit_chance():
    same = [True, False] * 10
    folds = sorted(list(range(5)) * 4)
    scores = np.full(20, 0.5)
    report = kfold_accuracy(pairset(same, folds), scores, k=5)
    assert report.mean_accuracy == pytest.approx(0.5)


def test_kfold_matches_brute_force_sweep():
    rng = np.random.default_rng(1)
    for trial in range(20):
        scores = rng.normal(size=20)
        same = rng.random(20) > 0.5
        folds = np.repeat(np.arange(4), 5)
        report = kfold_accuracy(pairset(same.tolist(), folds.tolist()),
                                scores, k=4)
        for f in range(4):
            held = folds == f
            expected, threshold = sweep_oracle(scores[~held], same[~held],
                                               scores[held], same[held])
            assert report.fold_accuracies[f] == expected
            assert report.thresholds[f] == threshold


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(20, 240), st.integers(2, 5),
       st.sampled_from(["continuous", "rounded", "few_values"]), st.booleans())
def test_protocol_equals_per_threshold_scan(seed, n, k, kind, equal_folds):
    # the sorted-count protocol must reproduce the scan bit for bit,
    # including heavy ties, unequal folds and FAR == 1/num_impostors
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if kind == "rounded":
        scores = np.round(scores, 1)
    elif kind == "few_values":
        scores = rng.choice(rng.normal(size=int(rng.integers(3, 6))), size=n)
    same = rng.random(n) < rng.uniform(0.2, 0.8)
    same[:2] = [True, False]
    if equal_folds:
        folds = np.arange(n) % k
    else:
        folds = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    report = kfold_accuracy(pairset(same.tolist(), folds.tolist()), scores, k=k)
    expected = [sweep_oracle(scores[folds != f], same[folds != f],
                             scores[folds == f], same[folds == f])
                for f in range(k)]
    assert report.fold_accuracies == [acc for acc, _ in expected]
    assert report.thresholds == [t for _, t in expected]
    assert report.mean_accuracy == float(np.mean([acc for acc, _ in expected]))
    assert report.roc_points == scan_roc_oracle(scores, same)
    num_impostors = int(np.count_nonzero(~same))
    targets = [1.0 / num_impostors, 0.5 / num_impostors, 2.0 / num_impostors,
               0.01, 0.1, 0.5, 1.0]
    assert tar_at_far(scores, same, targets) == scan_tar_oracle(scores, same,
                                                                targets)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.floats(0.25, 4.0), st.floats(-2.0, 2.0))
def test_kfold_invariant_under_positive_affine_transform(seed, a, b):
    # a positive affine map moves every candidate midpoint with the
    # scores, so fold decisions are unchanged -- provided no held-out
    # score falls outside its training range, where the fixed-offset
    # sentinel thresholds are not affine-equivariant
    rng = np.random.default_rng(seed)
    # every fold carries the global extremes so no held-out score can
    # stray outside its training range
    scores = np.concatenate([
        np.concatenate(([-5.0, 5.0], rng.normal(size=3))) for _ in range(4)
    ])
    same = rng.random(20) > 0.5
    folds = np.repeat(np.arange(4), 5)
    ps = pairset(same.tolist(), folds.tolist())
    base = kfold_accuracy(ps, scores, k=4)
    warped = kfold_accuracy(ps, a * scores + b, k=4)
    assert base.fold_accuracies == warped.fold_accuracies


def test_protocol_with_nan_scores_equals_per_threshold_scan():
    # a NaN score is never >= a threshold and a NaN threshold accepts
    # nothing; repr compares exactly and, unlike ==, equates NaNs
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=60), 1)
        scores[rng.integers(0, 60, size=3)] = np.nan
        same = rng.random(60) < 0.5
        same[:2] = [True, False]
        folds = np.arange(60) % 3
        report = kfold_accuracy(pairset(same.tolist(), folds.tolist()), scores, k=3)
        expected = [sweep_oracle(scores[folds != f], same[folds != f],
                                 scores[folds == f], same[folds == f])
                    for f in range(3)]
        assert repr(report.fold_accuracies) == repr([acc for acc, _ in expected])
        assert repr(report.thresholds) == repr([t for _, t in expected])
        assert repr(report.roc_points) == repr(scan_roc_oracle(scores, same))
        targets = [0.05, 0.2, 0.5]
        assert repr(tar_at_far(scores, same, targets)) == repr(
            scan_tar_oracle(scores, same, targets))


def test_kfold_requires_two_folds():
    with pytest.raises(ContractError):
        kfold_accuracy(pairset([True, False], [0, 0]), np.zeros(2), k=1)


def test_roc_monotone_and_bounded():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=30)
    same = rng.random(30) > 0.4
    points = roc_points(scores, same)
    fars = [p[0] for p in points]
    tars = [p[1] for p in points]
    assert all(0.0 <= v <= 1.0 for v in fars + tars)
    assert fars == sorted(fars)
    assert tars == sorted(tars)


def test_tar_at_far_perfectly_separable():
    scores = np.array([0.9, 0.8, 0.85, 0.2, 0.1, 0.15])
    same = np.array([True, True, True, False, False, False])
    out = tar_at_far(scores, same, [0.5, 1.0 / 3.0])
    assert out[0.5] == 1.0
    assert out[1.0 / 3.0] == 1.0


def test_tar_at_far_chance_line():
    # identical genuine and impostor score multisets: TAR == FAR at the
    # chosen threshold by construction
    vals = np.linspace(0.0, 1.0, 10)
    scores = np.concatenate([vals, vals])
    same = np.array([True] * 10 + [False] * 10)
    out = tar_at_far(scores, same, [0.1, 0.3, 0.5])
    for target, tar in out.items():
        threshold_pass = np.mean(vals >= min(
            t for t in np.unique(scores) if np.mean(vals >= t) <= target
        ))
        assert tar == pytest.approx(threshold_pass)
        assert tar <= target + 1e-12


def test_tar_at_far_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    genuine = rng.normal(0.6, 0.2, size=10)
    impostor = rng.normal(0.3, 0.2, size=10)
    scores = np.concatenate([genuine, impostor])
    same = np.array([True] * 10 + [False] * 10)
    for target in (0.1, 0.2, 0.5):
        got = tar_at_far(scores, same, [target])[target]
        feasible = [t for t in np.unique(scores)
                    if np.mean(impostor >= t) <= target]
        expected = np.mean(genuine >= min(feasible))
        assert got == expected


def test_tar_at_far_rejects_pair_set_without_genuine_pairs():
    with pytest.raises(ContractError, match="genuine"):
        tar_at_far(np.array([0.9, 0.1, 0.2]), np.zeros(3, dtype=bool), [0.5])


def test_tar_at_far_unattainable_target_is_none():
    scores = np.array([0.9, 0.1, 0.2])
    same = np.array([True, False, False])
    out = tar_at_far(scores, same, [1e-4])
    assert out[1e-4] is None


def test_tar_at_far_nonincreasing_in_target():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=40)
    same = rng.random(40) > 0.5
    targets = [0.8, 0.4, 0.2, 0.1]
    out = tar_at_far(scores, same, targets)
    vals = [out[t] for t in targets]
    assert all(a >= b for a, b in zip(vals, vals[1:]) if None not in (a, b))


def test_rank1_gallery_equals_probes():
    emb = np.random.default_rng(5).normal(size=(6, 4))
    labels = np.arange(6)
    assert rank1_identification(emb, labels, emb, labels) == 1.0


def test_rank1_no_matching_labels():
    emb = np.random.default_rng(6).normal(size=(4, 3))
    assert rank1_identification(emb, np.zeros(4), emb, np.ones(4)) == 0.0


def test_rank1_matches_nearest_neighbor_oracle():
    rng = np.random.default_rng(7)
    probes = rng.normal(size=(5, 4))
    gallery = rng.normal(size=(5, 4))
    probe_labels = rng.integers(0, 3, size=5)
    gallery_labels = rng.integers(0, 3, size=5)
    hits = 0
    for i in range(5):
        sims = [
            np.dot(probes[i], gallery[j]) /
            (np.linalg.norm(probes[i]) * np.linalg.norm(gallery[j]))
            for j in range(5)
        ]
        hits += gallery_labels[int(np.argmax(sims))] == probe_labels[i]
    expected = hits / 5.0
    assert rank1_identification(probes, probe_labels,
                                gallery, gallery_labels) == expected


def test_rank1_tie_prefers_lowest_gallery_index():
    gallery = np.array([[1.0, 0.0], [2.0, 0.0]])  # same direction, tie
    probes = np.array([[3.0, 0.0]])
    assert rank1_identification(probes, np.array([7]),
                                gallery, np.array([7, 8])) == 1.0


def test_make_pairs_balanced_folds():
    labels = np.repeat(np.arange(4), 5)
    pairs = make_pairs(labels, pairs_per_fold=6, num_folds=5, seed=3)
    assert pairs.num_folds == 5
    for f in range(5):
        held = pairs.fold == f
        assert held.sum() == 12
        assert pairs.same[held].sum() == 6
    genuine = pairs.same
    assert np.all(labels[pairs.left[genuine]] == labels[pairs.right[genuine]])
    assert np.all(labels[pairs.left[~genuine]] != labels[pairs.right[~genuine]])


def test_make_pairs_needs_two_usable_classes():
    with pytest.raises(ContractError):
        make_pairs(np.array([0, 0, 0, 1]), 4)
