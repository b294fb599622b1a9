import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otface import ContractError, DegenerateInputError, HardGroup, LabeledBatch
from otface.mining import mine_hard_groups, similarity_matrix


def brute_force_groups(embeddings, labels):
    """O(N^3) triple enumeration, the reference for the miner."""
    sim = similarity_matrix(np.asarray(embeddings, dtype=np.float64))
    n = len(labels)
    out = []
    for a in range(n):
        for p in range(n):
            for q in range(n):
                if p == a or labels[p] != labels[a] or labels[q] == labels[a]:
                    continue
                if sim[a, p] < sim[a, q]:
                    out.append(HardGroup(a, p, q))
    return out


def random_batch(rng, n, num_classes=4, dim=6):
    emb = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n)
    return LabeledBatch(emb, labels)


def test_matches_brute_force_on_random_batches():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, int(rng.integers(2, 20)))
        mined = mine_hard_groups(batch)
        oracle = brute_force_groups(batch.embeddings, batch.labels)
        assert set(mined) == set(oracle)


def test_planted_violation_is_the_only_group():
    # anchor 0 and positive 1 share a class; sample 2 (other class) sits
    # closer to the anchor than the positive does
    emb = np.array([
        [1.0, 0.0],
        [0.0, 1.0],       # positive, orthogonal to anchor
        [0.9, 0.1],       # negative, nearly parallel to anchor
        [-1.0, -1.0],     # far-away negative, not violating
    ])
    labels = np.array([0, 0, 1, 1])
    batch = LabeledBatch(emb, labels)
    mined = mine_hard_groups(batch)
    oracle = brute_force_groups(emb, labels)
    assert set(mined) == set(oracle)
    assert HardGroup(0, 1, 2) in mined
    # anchor 1's view: sim(1,0)=0 < sim(1,2)=... also hard; assert exactness
    sim = similarity_matrix(emb)
    for g in mined:
        assert labels[g.anchor] == labels[g.positive]
        assert g.anchor != g.positive
        assert labels[g.anchor] != labels[g.negative]
        assert sim[g.anchor, g.positive] < sim[g.anchor, g.negative]


def test_well_separated_clusters_yield_nothing():
    emb = np.array([
        [1.0, 0.01], [1.0, -0.01],     # class 0, tight
        [0.01, 1.0], [-0.01, 1.0],     # class 1, tight
    ])
    batch = LabeledBatch(emb, np.array([0, 0, 1, 1]))
    assert mine_hard_groups(batch) == []


def test_single_class_batch_yields_nothing():
    rng = np.random.default_rng(1)
    batch = LabeledBatch(rng.normal(size=(6, 4)), np.zeros(6, dtype=int))
    assert mine_hard_groups(batch) == []


def test_equal_similarity_is_not_hard():
    # every pair is perfectly aligned, so sim(a,p) == sim(a,n) exactly;
    # strict inequality means no group forms at the boundary
    emb = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    batch = LabeledBatch(emb, np.array([0, 0, 1]))
    assert mine_hard_groups(batch) == []


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_batch_permutation_maps_groups_consistently(seed):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, 10)
    perm = rng.permutation(10)
    permuted = LabeledBatch(batch.embeddings[perm], batch.labels[perm])
    # position j in the permuted batch is original sample perm[j]
    remapped = {
        HardGroup(int(perm[g.anchor]), int(perm[g.positive]), int(perm[g.negative]))
        for g in mine_hard_groups(permuted)
    }
    assert remapped == set(mine_hard_groups(batch))


def test_adding_a_sample_never_removes_groups():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(9, 5))
        labels = rng.integers(0, 3, size=9)
        before = set(mine_hard_groups(LabeledBatch(emb[:8], labels[:8])))
        after = set(mine_hard_groups(LabeledBatch(emb, labels)))
        assert before <= after


def test_cap_keeps_hardest_per_anchor():
    rng = np.random.default_rng(42)
    batch = random_batch(rng, 16, num_classes=3)
    sim = similarity_matrix(batch.embeddings)
    capped = mine_hard_groups(batch, cap_per_anchor=2)
    full = mine_hard_groups(batch)
    by_anchor = {}
    for g in full:
        by_anchor.setdefault(g.anchor, []).append(g)
    for anchor, groups in by_anchor.items():
        kept = [g for g in capped if g.anchor == anchor]
        assert len(kept) == min(2, len(groups))
        margins = sorted(
            (sim[g.anchor, g.negative] - sim[g.anchor, g.positive] for g in groups),
            reverse=True,
        )
        kept_margins = sorted(
            (sim[g.anchor, g.negative] - sim[g.anchor, g.positive] for g in kept),
            reverse=True,
        )
        assert kept_margins == margins[: len(kept)]


def test_cap_tie_break_prefers_low_pn_index_order():
    # two positives at the same angle from the anchor -> equal margins
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.8, 0.6]])
    labels = np.array([0, 0, 0, 1])
    capped = mine_hard_groups(LabeledBatch(emb, labels), cap_per_anchor=1)
    anchor0 = [g for g in capped if g.anchor == 0]
    assert anchor0 == [HardGroup(0, 1, 3)]


def test_cap_must_be_positive():
    batch = random_batch(np.random.default_rng(0), 4)
    with pytest.raises(ContractError):
        mine_hard_groups(batch, cap_per_anchor=0)


def test_batch_validation():
    with pytest.raises(ContractError):
        LabeledBatch(np.ones((1, 3)), np.array([0]))
    with pytest.raises(ContractError):
        LabeledBatch(np.ones((3, 2)), np.array([0, 1]))
    bad = np.ones((3, 2))
    bad[1] = 0.0
    with pytest.raises(DegenerateInputError):
        LabeledBatch(bad, np.array([0, 1, 0]))
    bad[1] = [np.nan, 1.0]
    with pytest.raises(DegenerateInputError, match="embedding 1"):
        LabeledBatch(bad, np.array([0, 1, 0]))
