import dataclasses
import json
import os

import numpy as np
import pytest

from otface import (
    BackboneConfig,
    ConfigurationError,
    LabeledBatch,
    MarginConfig,
    SinkhornConfig,
    Tensor,
    TrainConfig,
    forward,
    init_params,
)
from otface.config import DEFAULTS, build_config, load_config
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


@pytest.mark.parametrize("name, kwargs", [
    ("per_class", {"per_class": 0}),
    ("per_class", {"per_class": -3}),
    ("holdout_per_class", {"per_class": 3, "holdout_per_class": -2}),
    ("image_size", {"image_size": 0}),
    ("channels", {"channels": 0}),
])
def test_generate_synthetic_rejects_bad_sizes_naming_the_argument(tmp_path, name, kwargs):
    args = {"per_class": 3, **kwargs}
    with pytest.raises(ConfigurationError, match=name):
        generate_synthetic(tmp_path / "d", 2, args.pop("per_class"), 0.5, seed=0, **args)
    assert not (tmp_path / "d").exists()


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


@pytest.mark.parametrize("doc, detail", [
    ({"version": 1}, "missing key 'encoding'"),
    ([1, 2], "expected a JSON object"),
    ({"encoding": "float32"}, "missing key 'version'"),
    ({"version": 1, "encoding": "float32", "image_shape": [1, 8, 8]},
     "missing key 'samples'"),
    ({"version": 1, "encoding": "float32", "image_shape": [1, 8, 8],
      "samples": [{"id": 0, "label": 0}]}, "sample 0: missing key 'file'"),
], ids=["version_only", "list", "no_version", "no_samples", "sample_without_file"])
def test_manifest_missing_keys_are_configuration_errors_naming_the_file(
        tmp_path, doc, detail):
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as info:
        DatasetManifest.load(tmp_path)
    assert str(tmp_path / "manifest.json") in str(info.value)
    assert detail in str(info.value)


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
        "mining.enabled=false",
        "trainer.lr_milestones=[2,4]",
        "mining.cap_per_anchor=3",
    ])
    assert cfg["trainer"]["epochs"] == 5
    assert cfg["margin"]["scale"] == 12.5
    assert cfg["mining"]["enabled"] is False
    assert cfg["trainer"]["lr_milestones"] == [2, 4]
    assert cfg["mining"]["cap_per_anchor"] == 3


def test_solver_keys_training_never_reads_are_rejected():
    # training has one OT value, so no key picks it
    for item in ("sinkhorn.max_iters=1", "sinkhorn.marginal_tol=1e-3",
                 "sinkhorn.log_domain=true", "sinkhorn.include_entropy=true"):
        with pytest.raises(ConfigurationError, match=f"unknown config key '{item.split('=')[0]}'"):
            load_config(None, [item])


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("OTFACE_SEED", "77")
    assert load_config()["trainer"]["seed"] == 77
    for bad in ("nope", "-1"):
        monkeypatch.setenv("OTFACE_SEED", bad)
        with pytest.raises(ConfigurationError, match="OTFACE_SEED must be an integer >= 0"):
            load_config()


def test_config_malformed_json_reports_line(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{\n  broken\n}")
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(doc)


def _leaves(doc=DEFAULTS, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAVES = dict(_leaves())


def _wrong_value(key, default):
    """A value of the wrong type for `key`, as a JSON document holds it."""
    if key == "data.manifest":
        return 5
    if isinstance(default, str):
        return None
    if isinstance(default, list):
        return [str(v) for v in default]
    return str(3 if default is None else default)


def _nested(key, value):
    section, leaf = key.split(".")
    return {section: {leaf: value}}


@pytest.mark.parametrize("key", LEAVES)
def test_every_key_rejects_a_wrong_type_from_a_file(tmp_path, key):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(_nested(key, _wrong_value(key, LEAVES[key]))))
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        load_config(doc)


# data.manifest takes any --set string as a path, and null
@pytest.mark.parametrize("key", [k for k in LEAVES if k != "data.manifest"])
def test_every_key_rejects_a_wrong_type_from_set(key):
    wrong = _wrong_value(key, LEAVES[key])
    item = f"{key}={'null' if wrong is None else json.dumps(wrong)}"
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        load_config(None, [item])


FLOAT_KEYS = [k for k, v in LEAVES.items()
              if isinstance(v[0] if isinstance(v, list) else v, float)]


# the last value is an int that no float can hold
@pytest.mark.parametrize("value", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="1e400")])
@pytest.mark.parametrize("source", ["file", "set"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_rejects_a_non_finite_value(tmp_path, key, source, value):
    raw = f"[{value}]" if isinstance(LEAVES[key], list) else value
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps(_nested(key, json.loads(raw))))
    args = (doc,) if source == "file" else (None, [f"{key}={raw}"])
    with pytest.raises(ConfigurationError, match=f"'{key}' must be finite"):
        load_config(*args)


@pytest.mark.parametrize("item,key", [
    ("mining.enabled=1", "mining.enabled"),
    ("trainer.epochs=3.0", "trainer.epochs"),
    ("trainer.epochs=true", "trainer.epochs"),
    ("margin.scale=false", "margin.scale"),
    ("trainer.lr_milestones=[1.5]", "trainer.lr_milestones"),
    ("eval.far_targets=[true]", "eval.far_targets"),
    ("trainer.seed=null", "trainer.seed"),
    ("trainer.epochs=abc", "trainer.epochs"),
    ("trainer.lr_milestones=[1", "trainer.lr_milestones"),
])
def test_config_type_rules(item, key):
    with pytest.raises(ConfigurationError, match=key):
        load_config(None, [item])


def test_config_floats_take_ints_and_optional_keys_take_null():
    cfg = load_config(None, ["margin.scale=8", "eval.far_targets=[1, 0.1]",
                             "mining.enabled=No", "mining.cap_per_anchor=2",
                             "mining.cap_per_anchor=none", "data.manifest=123"])
    assert cfg["margin"]["scale"] == 8.0 and isinstance(cfg["margin"]["scale"], float)
    assert cfg["eval"]["far_targets"] == [1, 0.1]
    assert cfg["mining"] == {"enabled": False, "cap_per_anchor": None}
    assert cfg["data"]["manifest"] == "123"


SECTION_CLASSES = {"backbone": BackboneConfig, "margin": MarginConfig,
                   "sinkhorn": SinkhornConfig, "trainer": TrainConfig}

CHANGED = {
    "backbone.input_size": 64, "backbone.in_channels": 3,
    "backbone.stage_channels": [8, 16, 24], "backbone.embedding_dim": 32,
    "backbone.tap_stage": 1, "backbone.kernel_size": 5,
    "margin.variant": "additive_angular", "margin.scale": 16.0,
    "margin.margin": 0.5,
    "sinkhorn.epsilon": 0.1, "sinkhorn.unroll_iters": 15,
    "trainer.batch_size": 6, "trainer.epochs": 30, "trainer.lr": 0.05,
    "trainer.momentum": 0.5, "trainer.weight_decay": 1e-3,
    "trainer.lr_milestones": [5, 20],
    "trainer.sampler_p": 3, "trainer.sampler_k": 2, "trainer.seed": 7,
}


@pytest.mark.parametrize("source", ["file", "set"])
def test_changed_values_reach_the_built_dataclasses(tmp_path, source):
    backed = {f"{section}.{f.name}" for section, cls in SECTION_CLASSES.items()
              for f in dataclasses.fields(cls) if f.name in DEFAULTS[section]}
    # trainer.sampler has one valid value, so it cannot change
    assert set(CHANGED) == backed - {"trainer.sampler"}
    assert all(CHANGED[key] != LEAVES[key] for key in CHANGED)
    if source == "file":
        doc = {}
        for key, value in CHANGED.items():
            section, leaf = key.split(".")
            doc.setdefault(section, {})[leaf] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
    else:
        cfg = load_config(None, [
            f"{key}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in CHANGED.items()])
    for section, cls in SECTION_CLASSES.items():
        built = build_config(cls, cfg[section])
        for key, value in CHANGED.items():
            if key.startswith(section + "."):
                field = key.split(".")[1]
                want = tuple(value) if isinstance(value, list) else value
                assert getattr(built, field) == want, key
    cfg["trainer"]["sampler"] = "uniform_random"
    with pytest.raises(ConfigurationError, match="uniform_random"):
        build_config(TrainConfig, cfg["trainer"])
