import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otface.mining as mining_mod
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


def per_anchor_groups(batch, cap_per_anchor=None):
    """The per-anchor loop the vectorised miner replaced: the order oracle.

    Training is byte-identical only if the miner returns the same triples
    in the same order, so this is compared as a whole list."""
    sim = similarity_matrix(batch.embeddings)
    labels = batch.labels
    groups = []
    for a in range(labels.shape[0]):
        same = labels == labels[a]
        pos_idx = np.nonzero(same)[0]
        pos_idx = pos_idx[pos_idx != a]
        neg_idx = np.nonzero(~same)[0]
        margin = sim[a, neg_idx][None, :] - sim[a, pos_idx][:, None]
        pi, ni = np.nonzero(margin > 0.0)
        if cap_per_anchor is not None and pi.size > cap_per_anchor:
            order = np.argsort(-margin[pi, ni], kind="stable")[:cap_per_anchor]
            pi, ni = pi[order], ni[order]
        groups.extend(HardGroup(a, int(pos_idx[p]), int(neg_idx[q]))
                      for p, q in zip(pi, ni))
    return groups


def pk_batch(rng, p, k, tied):
    """A P x K batch in shuffled order; `tied` draws embeddings from
    {-1, 0, 1}, so many similarities and margins are exactly equal."""
    labels = rng.permutation(np.repeat(rng.permutation(20)[:p], k))
    if tied:
        emb = rng.integers(-1, 2, size=(p * k, 3)).astype(np.float64)
        emb[~emb.any(axis=1)] = 1.0
    else:
        emb = rng.normal(size=(p * k, 6))
    return LabeledBatch(emb, labels)


def test_miner_matches_per_anchor_loop_in_order():
    rng = np.random.default_rng(2024)
    ties = 0
    for trial in range(420):
        tied = trial % 3 == 0
        batch = pk_batch(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), tied)
        for cap in (None, 1, 2, 5):
            got = mine_hard_groups(batch, cap)
            assert got == per_anchor_groups(batch, cap), (trial, cap)
            assert all(type(v) is int for g in got for v in g)
        ties += tied
    assert ties >= 140


def test_miner_order_holds_across_anchor_blocks(monkeypatch):
    rng = np.random.default_rng(7)
    batches = [pk_batch(rng, 8, 4, tied) for tied in (False, True)]
    expected = [[per_anchor_groups(b, cap) for cap in (None, 1, 2, 5)]
                for b in batches]
    # blocks of 1 anchor, of 5 with a short last block, and of the whole batch
    for cells in (1, 5 * 32 * 32 + 7, 32 * 32 * 32):
        monkeypatch.setattr(mining_mod, "_MARGIN_CELLS", cells)
        for batch, want in zip(batches, expected):
            assert [mine_hard_groups(batch, cap) for cap in (None, 1, 2, 5)] == want


def test_groups_are_an_index_array():
    batch = pk_batch(np.random.default_rng(3), 4, 3, False)
    groups = mine_hard_groups(batch)
    triples = np.asarray(groups)
    assert triples.shape == (len(groups), 3) and triples.dtype.kind == "i"
    assert [tuple(g) for g in groups] == [tuple(t) for t in triples.tolist()]
    assert (groups[0].anchor, groups[0].positive, groups[0].negative) == tuple(groups[0])
