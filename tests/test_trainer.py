import gc

import numpy as np
import pytest

from otface import (
    BackboneConfig,
    ConfigurationError,
    ContractError,
    LabeledBatch,
    MarginConfig,
    SinkhornConfig,
    Tensor,
    TrainConfig,
    Trainer,
    TrainState,
    forward,
    lr_at,
    otface_loss,
    sgd_step,
    to_distribution,
)
from otface.data import generate_synthetic, load_dataset


def tiny_backbone():
    return BackboneConfig(input_size=8, in_channels=1, stage_channels=(4, 6),
                          embedding_dim=5, tap_stage=1)


def tiny_train_cfg(**overrides):
    base = dict(batch_size=4, epochs=2, lr=0.05, momentum=0.9,
                weight_decay=5e-4, lr_milestones=(1,), sampler="class_balanced",
                sampler_p=2, sampler_k=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def make_state(values):
    params = {"w": Tensor(np.array(values, dtype=float), requires_grad=True)}
    return TrainState(params=params,
                      momentum_buffers={"w": np.zeros_like(params["w"].data)})


def test_sgd_noop_without_gradient_or_decay():
    state = make_state([1.0, -2.0])
    cfg = tiny_train_cfg(weight_decay=0.0)
    sgd_step(state, {"w": np.zeros(2)}, 0.1, cfg)
    assert np.array_equal(state.params["w"].data, [1.0, -2.0])


def test_sgd_single_step_arithmetic():
    state = make_state([1.0])
    cfg = tiny_train_cfg(momentum=0.9, weight_decay=0.01)
    sgd_step(state, {"w": np.array([2.0])}, 0.1, cfg)
    # param - lr*(grad + wd*param)
    assert state.params["w"].data[0] == pytest.approx(1.0 - 0.1 * (2.0 + 0.01))


def test_sgd_matches_scalar_recurrence():
    lr, mu, wd, g = 0.1, 0.9, 0.01, 2.0
    state = make_state([1.0])
    cfg = tiny_train_cfg(momentum=mu, weight_decay=wd)
    # independent scalar replay
    p, buf = 1.0, 0.0
    for _ in range(5):
        sgd_step(state, {"w": np.array([g])}, lr, cfg)
        buf = mu * buf + g + wd * p
        p = p - lr * buf
    assert state.params["w"].data[0] == pytest.approx(p, abs=1e-15)
    assert state.step == 5


def test_sgd_two_steps_without_decay_displacement():
    lr, mu, g = 0.1, 0.9, 3.0
    state = make_state([0.0])
    cfg = tiny_train_cfg(momentum=mu, weight_decay=0.0)
    for _ in range(2):
        sgd_step(state, {"w": np.array([g])}, lr, cfg)
    assert state.params["w"].data[0] == pytest.approx(-lr * g * (2.0 + mu))


def test_sgd_shape_mismatch():
    state = make_state([1.0, 2.0])
    with pytest.raises(ContractError):
        sgd_step(state, {"w": np.zeros(3)}, 0.1, tiny_train_cfg())


def test_lr_schedule_reference_points():
    cfg = TrainConfig(epochs=24, lr=0.1, lr_milestones=(10, 18, 22)).validate()
    assert lr_at(0, cfg) == pytest.approx(0.1)
    assert lr_at(9, cfg) == pytest.approx(0.1)
    assert lr_at(10, cfg) == pytest.approx(0.01)
    assert lr_at(18, cfg) == pytest.approx(0.001)
    assert lr_at(23, cfg) == pytest.approx(0.0001)
    with pytest.raises(ContractError):
        lr_at(24, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_milestones=(5, 5), epochs=10).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_milestones=(12,), epochs=10).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(sampler="bogus").validate()
    # every batch is P classes x K samples; there is no other sampler
    with pytest.raises(ConfigurationError, match="uniform_random"):
        TrainConfig(sampler="uniform_random").validate()
    # a class_balanced batch is sampler_p * sampler_k samples
    with pytest.raises(ConfigurationError, match="batch_size"):
        TrainConfig(batch_size=64, sampler_p=2, sampler_k=2).validate()


def _trainer(images, labels, seed=0, **kwargs):
    return Trainer(images, labels, tiny_backbone(), MarginConfig(scale=8.0),
                   SinkhornConfig(epsilon=0.1, unroll_iters=10),
                   tiny_train_cfg(seed=seed), **kwargs)


def _dataset(tmp_path, hardness, name, classes=3, per_class=6):
    manifest = generate_synthetic(tmp_path / name, classes, per_class,
                                  hardness, seed=5, image_size=8)
    return load_dataset(manifest, "train")


def test_fixed_seed_replays_identically(tmp_path):
    images, labels = _dataset(tmp_path, 0.6, "d")
    histories = [
        _trainer(images, labels, seed=3).run()
        for _ in range(2)
    ]
    assert histories[0] == histories[1]


def test_total_is_margin_plus_ot(tmp_path):
    images, labels = _dataset(tmp_path, 0.7, "d")
    for row in _trainer(images, labels).run():
        assert row["total"] == row["margin_loss"] + row["ot_loss"]
        assert row["hard_groups"] >= 0


def test_sampler_p_above_the_class_count_is_rejected():
    # P=2 classes per batch cannot be drawn from a one-class dataset
    rng = np.random.default_rng(0)
    images = rng.normal(size=(8, 1, 8, 8))
    labels = np.zeros(8, dtype=int)
    with pytest.raises(ConfigurationError, match=r"sampler_p 2 exceeds the 1 classes"):
        _trainer(images, labels)


def test_zero_hardness_mining_degrades_to_margin_only(tmp_path):
    # at hardness 0 all samples of a class are identical, so no hard
    # group can ever form and mining must change nothing
    images, labels = _dataset(tmp_path, 0.0, "d")
    mined = _trainer(images, labels, mining_enabled=True).run()
    plain = _trainer(images, labels, mining_enabled=False).run()
    assert mined == plain
    assert all(row["hard_groups"] == 0 for row in mined)


def test_embed_shape_and_norm(tmp_path):
    images, labels = _dataset(tmp_path, 0.5, "d")
    trainer = _trainer(images, labels)
    emb = trainer.embed(images)
    assert emb.shape == (images.shape[0], 5)
    assert np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)) < 1e-9


def test_embed_rejects_a_bad_batch_size_or_no_images(tmp_path):
    images, labels = _dataset(tmp_path, 0.5, "d")
    trainer = _trainer(images, labels)
    with pytest.raises(ConfigurationError, match="batch_size must be at least 1, got 0"):
        trainer.embed(images, batch_size=0)
    with pytest.raises(ContractError, match="at least one image"):
        trainer.embed(images[:0])


def test_empty_dataset_rejected():
    with pytest.raises(ContractError):
        _trainer(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int))


def test_training_step_tape_is_freed_by_reference_counting(tmp_path):
    images, labels = _dataset(tmp_path, 0.7, "d")
    trainer = _trainer(images, labels)
    params = trainer.state.params

    def step():
        out = forward(Tensor(images), params, trainer.backbone_cfg)
        loss = otface_loss(
            LabeledBatch(out.embedding.data, labels), out.embedding,
            to_distribution(out.feature_maps), trainer.classifier,
            trainer.margin_cfg, trainer.sinkhorn_cfg, hinge_margin=0.1)
        assert loss.num_hard_groups > 0
        loss.total.backward()
        sgd_step(trainer.state, {k: p.grad for k, p in params.items()}, 0.01,
                 trainer.train_cfg)
        for p in params.values():
            p.zero_grad()
        return loss

    del step().total  # warm-up: first calls may fill module-level caches
    gc.collect()
    gc.disable()
    try:
        loss = step()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_gradients_equal_those_of_a_copying_accumulator(tmp_path, monkeypatch):
    # `_accum` keeps the first gradient a tensor receives without copying
    # it; the step's gradients must be those of a copy-on-accumulate tape
    images, labels = _dataset(tmp_path, 0.7, "d")
    trainer = _trainer(images, labels)
    params = trainer.state.params

    def step_gradients():
        for p in params.values():
            p.zero_grad()
        out = forward(Tensor(images), params, trainer.backbone_cfg)
        loss = otface_loss(
            LabeledBatch(out.embedding.data, labels), out.embedding,
            to_distribution(out.feature_maps), trainer.classifier,
            trainer.margin_cfg, trainer.sinkhorn_cfg, hinge_margin=0.1)
        assert loss.num_hard_groups > 0
        loss.total.backward()
        return {k: p.grad for k, p in params.items()}

    shared = step_gradients()

    def copying_accum(self, g):
        g = np.array(g, dtype=np.float64)
        self.grad = g if self.grad is None else self.grad + g

    monkeypatch.setattr(Tensor, "_accum", copying_accum)
    copied = step_gradients()
    assert shared.keys() == copied.keys()
    for name, grad in shared.items():
        assert np.array_equal(grad, copied[name]), name
