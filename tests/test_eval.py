import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otface import evaluation
from otface.data import generate_synthetic, load_dataset
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pair_scores_rejects_non_finite_embedding(bad):
    emb = np.random.default_rng(1).normal(size=(4, 3))
    emb[2, 1] = bad
    with pytest.raises(DegenerateInputError, match="embedding 2"):
        pair_scores(emb, PairSet([0, 1], [2, 3], [True, False], [0, 0]))


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


def test_rank1_rejects_zero_gallery_row():
    emb = np.random.default_rng(8).normal(size=(4, 3))
    gallery = emb.copy()
    gallery[1] = 0.0
    with pytest.raises(DegenerateInputError, match="gallery embedding 1"):
        rank1_identification(emb, np.arange(4), gallery, np.arange(4))


def test_rank1_rejects_nan_probe_row():
    emb = np.random.default_rng(9).normal(size=(4, 3))
    probes = emb.copy()
    probes[2, 0] = np.nan
    with pytest.raises(DegenerateInputError, match="probe embedding 2"):
        rank1_identification(probes, np.arange(4), emb, np.arange(4))


def test_make_pairs_balanced_folds():
    labels = np.repeat(np.arange(4), 5)
    pairs = make_pairs(labels, pairs_per_fold=6, num_folds=5, seed=3)
    assert np.array_equal(np.unique(pairs.fold), np.arange(5))
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


@pytest.mark.parametrize("ppf, folds, name", [
    (0, 10, "pairs_per_fold"), (-3, 10, "pairs_per_fold"),
    (4, 0, "num_folds"), (4, -1, "num_folds"),
])
def test_make_pairs_rejects_pair_counts_below_one(ppf, folds, name):
    message = f"{name} must be >= 1, got {min(ppf, folds)}"
    with pytest.raises(ContractError, match=message):
        make_pairs(np.repeat(np.arange(3), 4), ppf, folds)


def loop_pairs(labels, pairs_per_fold, num_folds=10, seed=0):
    """The per-pair loop that `make_pairs` replays from a block of words:
    the order oracle. Criterion 6's pair set and every reported accuracy
    stay the same only if the arrays are equal, so they are compared whole."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    by_class = {c: np.nonzero(labels == c)[0] for c in np.unique(labels)}
    usable = [c for c, idx in by_class.items() if idx.shape[0] >= 2]
    if len(usable) < 2:
        raise ContractError("need >= 2 classes with >= 2 samples each")
    classes = np.array(usable)
    total = pairs_per_fold * num_folds
    left, right, same = [], [], []
    for _ in range(total):
        c = rng.choice(classes)
        a, b = rng.choice(by_class[c], size=2, replace=False)
        left.append(a); right.append(b); same.append(True)
    for _ in range(total):
        c1, c2 = rng.choice(classes, size=2, replace=False)
        left.append(rng.choice(by_class[c1]))
        right.append(rng.choice(by_class[c2]))
        same.append(False)
    fold = np.concatenate([np.repeat(np.arange(num_folds), pairs_per_fold)] * 2)
    return PairSet(np.array(left), np.array(right), np.array(same), fold)


def assert_same_pairs(got, want):
    for name in ("left", "right", "same", "fold"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_make_pairs_matches_per_pair_loop():
    rng = np.random.default_rng(13)
    seen = {"one_member": 0, "two_members": 0, "two_usable": 0, "compared": 0}
    for trial in range(310):
        num = int(rng.integers(2, 40))
        # odd trials: classes of 1-7 samples; even: 2-299
        sizes = rng.integers(1, 8, num) if trial % 2 else rng.integers(2, 300, num)
        if trial % 5 == 0:  # exactly two classes with >= 2 samples
            sizes[:] = 1
            sizes[rng.choice(num, 2, replace=False)] = rng.integers(2, 5, 2)
        # shuffled labels whose values have gaps between them
        labels = rng.permutation(np.repeat(rng.choice(1000, num, replace=False), sizes))
        args = (labels, int(rng.integers(1, 60)), int(rng.integers(2, 11)),
                int(rng.integers(0, 2**32)))
        seen["one_member"] += bool(np.any(sizes == 1))
        seen["two_members"] += bool(np.any(sizes == 2))
        seen["two_usable"] += int(np.count_nonzero(sizes >= 2) == 2)
        if np.count_nonzero(sizes >= 2) < 2:
            for fn in (make_pairs, loop_pairs):
                with pytest.raises(ContractError):
                    fn(*args)
            continue
        assert_same_pairs(make_pairs(*args), loop_pairs(*args))
        seen["compared"] += 1
    assert seen["compared"] >= 300 and seen["two_usable"] >= 60
    assert seen["one_member"] >= 100 and seen["two_members"] >= 100


def test_make_pairs_matches_loop_on_fixed_calls(tmp_path):
    manifest = generate_synthetic(tmp_path / "hard", 10, 100, 0.7, seed=123,
                                  image_size=16, holdout_per_class=30)
    te_labels = load_dataset(manifest, "test")[1]
    calls = [(te_labels, 50, 10, 999),  # acceptance criterion 6
             (np.repeat(np.arange(20), 100), 500, 10, 801)]  # the verify bench
    calls += [(np.repeat(np.arange(40), 5), 7, 5, seed) for seed in (0, 1, 999)]
    # NaN matches no label, so the loop skips those samples
    nan_labels = np.array([0.0, 0.0, 1.0, 1.0, np.nan, np.nan, 2.5, np.nan, 2.5])
    calls.append((nan_labels, 6, 3, 2))
    for args in calls:
        assert_same_pairs(make_pairs(*args), loop_pairs(*args))


def test_make_pairs_lengthens_a_short_block(monkeypatch):
    sizes = [2, 3, 2, 9, 1, 4]
    labels = np.random.default_rng(4).permutation(np.repeat(np.arange(6), sizes))
    want = loop_pairs(labels, 8, 4, seed=5)
    # blocks of one word per pair: each pair reads 2-5, so the walk lengthens many times
    monkeypatch.setattr(evaluation, "_WORDS_PER_PAIR", 1)
    assert_same_pairs(make_pairs(labels, 8, 4, seed=5), want)


@pytest.mark.parametrize("n, rejects",
                         [(7, False), (2**31 + 1, True), (3 * 2**30, True)])
def test_bounded_draw_replays_rng_integers(n, rejects):
    # rejections come with probability (2**32 mod n) / 2**32 per word, so
    # label sets of desk size never reach them; these bounds do
    words = np.random.default_rng(21).integers(0, 2**32, size=1000, dtype=np.uint64)
    values, after = evaluation._draw(words, np.arange(len(words) + 2), n)
    rng = np.random.default_rng(21)
    at, rejected = 0, 0
    for _ in range(200):
        assert values[at] == rng.integers(0, n)
        rejected += int(after[at]) - at - 1
        at = int(after[at])
    assert (rejected > 0) == rejects
