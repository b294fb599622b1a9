import json
import os

import numpy as np
import pytest

from otface import (
    BackboneConfig,
    ConfigurationError,
    LabeledBatch,
    Tensor,
    forward,
    init_params,
)
from otface.config import DEFAULTS, load_config
from otface.data import (
    DatasetManifest,
    atomic_write_text,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from otface.mining import mine_hard_groups


def read_all_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_gives_byte_identical_dataset(tmp_path):
    generate_synthetic(tmp_path / "a", 3, 4, 0.5, seed=9, image_size=8)
    generate_synthetic(tmp_path / "b", 3, 4, 0.5, seed=9, image_size=8)
    a, b = read_all_bytes(tmp_path / "a"), read_all_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


def test_labels_are_contiguous_and_split_sizes_match(tmp_path):
    manifest = generate_synthetic(tmp_path / "d", 4, 5, 0.3, seed=0,
                                  image_size=8, holdout_per_class=2)
    labels = sorted({s.label for s in manifest.samples})
    assert labels == [0, 1, 2, 3]
    train = [s for s in manifest.samples if s.split == "train"]
    test = [s for s in manifest.samples if s.split == "test"]
    assert len(train) == 20 and len(test) == 8


def test_zero_hardness_mines_nothing_under_random_backbone(tmp_path):
    manifest = generate_synthetic(tmp_path / "easy", 4, 5, 0.0, seed=3,
                                  image_size=8)
    images, labels = load_dataset(manifest, "train")
    cfg = BackboneConfig(input_size=8, stage_channels=(4, 6), embedding_dim=5,
                         tap_stage=1)
    params = init_params(cfg, np.random.default_rng(11))
    emb = forward(Tensor(images), params, cfg).embedding.data
    assert mine_hard_groups(LabeledBatch(emb, labels)) == []


def test_higher_hardness_mines_more_under_random_backbone(tmp_path):
    counts = []
    for hardness in (0.0, 0.9):
        manifest = generate_synthetic(tmp_path / f"h{hardness}", 4, 6,
                                      hardness, seed=3, image_size=8)
        images, labels = load_dataset(manifest, "train")
        cfg = BackboneConfig(input_size=8, stage_channels=(4, 6),
                             embedding_dim=5, tap_stage=1)
        params = init_params(cfg, np.random.default_rng(11))
        emb = forward(Tensor(images), params, cfg).embedding.data
        counts.append(len(mine_hard_groups(LabeledBatch(emb, labels))))
    assert counts[0] < counts[1]


def test_manifest_round_trip(tmp_path):
    manifest = generate_synthetic(tmp_path / "d", 2, 3, 0.4, seed=1,
                                  image_size=8)
    loaded = DatasetManifest.load(tmp_path / "d")
    assert loaded.image_shape == manifest.image_shape
    assert loaded.encoding == manifest.encoding
    assert [(s.sample_id, s.file, s.label, s.split) for s in loaded.samples] == \
        [(s.sample_id, s.file, s.label, s.split) for s in manifest.samples]
    images_a, labels_a = load_dataset(manifest)
    images_b, labels_b = load_dataset(loaded)
    assert np.array_equal(images_a, images_b)
    assert np.array_equal(labels_a, labels_b)


def test_manifest_rejects_missing_file_and_bad_version(tmp_path):
    manifest = generate_synthetic(tmp_path / "d", 2, 2, 0.4, seed=1,
                                  image_size=8)
    victim = tmp_path / "d" / manifest.samples[0].file
    victim.unlink()
    with pytest.raises(ConfigurationError, match="missing image file"):
        DatasetManifest.load(tmp_path / "d")
    doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
    doc["version"] = 999
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="version"):
        DatasetManifest.load(tmp_path / "d")


def test_float32_images_round_trip_exactly(tmp_path):
    manifest = generate_synthetic(tmp_path / "f32", 2, 3, 0.6, seed=2,
                                  image_size=8, encoding="float32")
    images, _ = load_dataset(manifest)
    again, _ = load_dataset(DatasetManifest.load(tmp_path / "f32"))
    assert np.array_equal(images, again)
    assert images.dtype == np.float64


def test_uint8_images_decode_into_unit_range(tmp_path):
    manifest = generate_synthetic(tmp_path / "u8", 2, 3, 0.6, seed=2,
                                  image_size=8, encoding="uint8")
    images, _ = load_dataset(manifest)
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    params = {
        "stage0.weight": Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True),
        "proj.bias": Tensor(rng.normal(size=5), requires_grad=True),
    }
    momentum = {k: rng.normal(size=v.shape) for k, v in params.items()}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, momentum, epoch=7, step=123)
    loaded, mom, epoch, step = load_checkpoint(path)
    assert epoch == 7 and step == 123
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad
        assert np.array_equal(mom[name], momentum[name])


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "ckpt.npz"
    np.savez(path, __meta__=np.array([99, 0, 0]))
    with pytest.raises(ConfigurationError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_npz_naming_the_path(tmp_path):
    no_meta = tmp_path / "no_meta.npz"
    np.savez(no_meta, weights=np.ones(3))
    with pytest.raises(ConfigurationError, match="no_meta.npz"):
        load_checkpoint(no_meta)
    no_params = tmp_path / "no_params.npz"
    np.savez(no_params, __meta__=np.array([1, 0, 0]), other=np.ones(3))
    with pytest.raises(ConfigurationError, match="no_params.npz.*no parameters"):
        load_checkpoint(no_params)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    atomic_write_text(tmp_path / "out.txt", "hello")
    assert (tmp_path / "out.txt").read_text() == "hello"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_config_defaults_and_file_merge(tmp_path):
    cfg = load_config()
    assert cfg == DEFAULTS
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"trainer": {"epochs": 3}, "margin": {"scale": 8.0}}))
    cfg = load_config(doc)
    assert cfg["trainer"]["epochs"] == 3
    assert cfg["margin"]["scale"] == 8.0
    assert cfg["trainer"]["momentum"] == DEFAULTS["trainer"]["momentum"]


def test_config_rejects_unknown_keys(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"trainer": {"epohcs": 3}}))
    with pytest.raises(ConfigurationError, match="trainer.epohcs"):
        load_config(doc)
    with pytest.raises(ConfigurationError, match="margin.scal"):
        load_config(None, ["margin.scal=8"])


def test_config_set_overrides_are_typed():
    cfg = load_config(None, [
        "trainer.epochs=5",
        "margin.scale=12.5",
        "sinkhorn.include_entropy=true",
        "trainer.lr_milestones=[2,4]",
        "mining.cap_per_anchor=3",
    ])
    assert cfg["trainer"]["epochs"] == 5
    assert cfg["margin"]["scale"] == 12.5
    assert cfg["sinkhorn"]["include_entropy"] is True
    assert cfg["trainer"]["lr_milestones"] == [2, 4]
    assert cfg["mining"]["cap_per_anchor"] == 3


def test_solver_keys_training_never_reads_are_rejected():
    for item in ("sinkhorn.max_iters=1", "sinkhorn.marginal_tol=1e-3",
                 "sinkhorn.log_domain=true"):
        with pytest.raises(ConfigurationError, match=item.split("=")[0]):
            load_config(None, [item])


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("OTFACE_SEED", "77")
    assert load_config()["trainer"]["seed"] == 77
    monkeypatch.setenv("OTFACE_SEED", "nope")
    with pytest.raises(ConfigurationError, match="OTFACE_SEED"):
        load_config()


def test_config_malformed_json_reports_line(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{\n  broken\n}")
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(doc)
