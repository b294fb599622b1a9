import os
import signal
import threading
import time

import numpy as np
import pytest

from otface import (
    BackboneConfig,
    ConfigurationError,
    ContractError,
    Tensor,
    backbone,
    forward,
    init_params,
    to_distribution,
)
from otface.backbone import embed
from otface.tensor import _im2col, normalize_rows

from conftest import numeric_grad, rel_err


def small_cfg():
    return BackboneConfig(input_size=8, in_channels=1, stage_channels=(4, 6, 6),
                          embedding_dim=5, tap_stage=1)


def test_default_config_shapes():
    cfg = BackboneConfig()
    params = init_params(cfg, np.random.default_rng(0))
    out = forward(Tensor(np.random.default_rng(1).normal(size=(2, 1, 32, 32))),
                  params, cfg)
    assert out.feature_maps.shape == (2, 64, 8, 8)
    assert out.embedding.shape == (2, 64)
    norms = np.linalg.norm(out.embedding.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_tap_spatial_matches_stage_halving():
    cfg = BackboneConfig()
    for stage in range(4):
        tapped = BackboneConfig(tap_stage=stage)
        assert tapped.tap_spatial() == 32 // 2 ** stage


def test_zero_image_gives_zero_feature_maps():
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(2))
    out = forward(Tensor(np.zeros((1, 1, 8, 8))), params, cfg)
    assert np.all(out.feature_maps.data == 0.0)
    # the embedding stays well-defined thanks to the projection bias
    assert abs(np.linalg.norm(out.embedding.data[0]) - 1.0) < 1e-9


def test_forward_is_deterministic():
    cfg = small_cfg()
    image = np.random.default_rng(3).normal(size=(1, 1, 8, 8))
    runs = []
    for _ in range(2):
        params = init_params(cfg, np.random.default_rng(7))
        runs.append(forward(Tensor(image), params, cfg).embedding.data)
    assert np.array_equal(runs[0], runs[1])


def test_embed_does_not_depend_on_chunk_size():
    # the batch shares the conv GEMMs' column dimension; chunking must not
    # couple samples
    cfg = BackboneConfig(input_size=16, stage_channels=(8, 16, 16),
                         embedding_dim=32, tap_stage=2)
    params = init_params(cfg, np.random.default_rng(14))
    images = np.random.default_rng(15).normal(size=(40, 1, 16, 16))
    small = embed(images, params, cfg, batch_size=7)
    whole = embed(images, params, cfg, batch_size=256)
    assert small.shape == (40, 32)
    assert np.max(np.abs(small - whole)) < 1e-12


@pytest.mark.parametrize("tap_stage", [0, 1, 2])
@pytest.mark.parametrize("batch", [1, 33])
def test_untaped_forward_gives_the_taped_bytes(tap_stage, batch):
    # The untaped pass runs each stage's GEMM over blocks of output rows,
    # batch innermost. A block is one row, grown to a multiple of 8 columns
    # (OpenBLAS's dgemm rounds a 1-4 column tail in another kernel) and past
    # its small-matrix size if the whole stage is past it; only the last
    # block has a tail. Every stage of this backbone (the acceptance and
    # benchmark one) has a multiple of 8 positions, so no block has a tail
    # and the blocks give the bytes of the tape's (n, oh, ow) column order.
    # The pooled mean must still sum each map's cells pairwise, as on the tape.
    cfg = BackboneConfig(input_size=16, stage_channels=(8, 16, 16),
                         embedding_dim=32, tap_stage=tap_stage)
    params = init_params(cfg, np.random.default_rng(16))
    images = Tensor(np.random.default_rng(batch).normal(size=(batch, 1, 16, 16)))
    taped = forward(images, params, cfg)
    frozen = forward(images, {k: Tensor(v.data) for k, v in params.items()}, cfg)
    assert taped.embedding.requires_grad and not frozen.embedding.requires_grad
    for got, want in ((frozen.feature_maps, taped.feature_maps),
                      (frozen.embedding, taped.embedding)):
        assert got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()


def _whole_stage_untaped_forward(images, params, cfg):
    """Reference for the row-blocked pass: one batch-innermost conv GEMM per
    whole stage, a Tensor bias add and relu, and a C-ordered copy of the
    last stage for the pool."""
    x = Tensor(images)
    for i in range(len(cfg.stage_channels)):
        k, stride, pad = cfg.stage_kernel(i)
        n, c, h, w = x.shape
        out_h = (h + 2 * pad - k) // stride + 1
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n)).transpose(3, 0, 1, 2)
        xp[:, :, pad:pad + h, pad:pad + w] = x.data
        wmat = params[f"stage{i}.weight"].data.reshape(cfg.stage_channels[i], -1)
        out = wmat @ _im2col(xp, k, k, stride, out_h, out_h, batch_last=True)
        x = Tensor._make(out.reshape(-1, out_h, out_h, n).transpose(3, 0, 1, 2), ())
        x = x + params[f"stage{i}.bias"].reshape(1, -1, 1, 1)
        if i == cfg.tap_stage:
            tap = x
        x = x.relu()
    x = Tensor._make(np.ascontiguousarray(x.data), ())
    pooled = x.mean(axis=(2, 3))
    embedding = pooled @ params["proj.weight"] + params["proj.bias"].reshape(1, -1)
    return tap, normalize_rows(embedding)


BYTE_PIN_CONFIGS = {
    "acceptance": BackboneConfig(input_size=16, stage_channels=(8, 16, 16),
                                 embedding_dim=32, tap_stage=2),
    "default": BackboneConfig(),
    "small": small_cfg(),
    "tap0": BackboneConfig(input_size=16, stage_channels=(8, 16, 16),
                           embedding_dim=32, tap_stage=0),
    "rgb-k5": BackboneConfig(input_size=8, in_channels=3, stage_channels=(5, 7),
                             embedding_dim=6, tap_stage=1, kernel_size=5),
}


# Worker counts for the untaped pass, forced through the free CPU count it reads:
# the caller alone, two and three threads, and more threads than any stage
# of these backbones has row blocks.
WORKER_COUNTS = (1, 2, 3, 64)


@pytest.mark.parametrize("name", list(BYTE_PIN_CONFIGS))
def test_row_blocked_pass_gives_the_whole_stage_bytes(name, monkeypatch):
    # Odd batches put a 1-4 column tail on stages whose position count is
    # not a multiple of 8 (the small and rgb-k5 backbones), and the default
    # backbone's 512- and 1024-term stages leave the BLAS's small-matrix
    # kernel at batches 1-3 only as whole stages. However the blocks are
    # dealt to threads, each block computes the same bytes.
    cfg = BYTE_PIN_CONFIGS[name]
    params = {k: Tensor(v.data) for k, v in init_params(cfg, np.random.default_rng(20)).items()}
    images = np.random.default_rng(21).normal(
        size=(300, cfg.in_channels, cfg.input_size, cfg.input_size))
    for batch in [*range(1, 41), 63, 64, 127, 256, 300]:
        tap, embedding = _whole_stage_untaped_forward(images[:batch], params, cfg)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(backbone, "_free_cpus", lambda: workers)
            got = forward(Tensor(images[:batch]), params, cfg)
            assert got.feature_maps.shape == tap.shape, (batch, workers)
            assert got.feature_maps.data.tobytes() == tap.data.tobytes(), (batch, workers)
            assert got.embedding.data.tobytes() == embedding.data.tobytes(), (batch, workers)


def test_embed_gives_the_whole_stage_bytes(monkeypatch):
    cfg = BYTE_PIN_CONFIGS["acceptance"]
    params = init_params(cfg, np.random.default_rng(22))
    images = np.random.default_rng(23).normal(size=(700, 1, 16, 16))
    want = np.concatenate([_whole_stage_untaped_forward(images[i:i + 256], params, cfg)[1].data
                           for i in range(0, 700, 256)])
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(backbone, "_free_cpus", lambda: workers)
        assert embed(images, params, cfg).tobytes() == want.tobytes(), workers


def test_the_pass_starts_threads_only_beside_a_one_thread_blas(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for openblas, omp, want in [(None, None, 1), (None, "1", cpus), ("1", None, cpus),
                                ("1", "2", cpus), ("2", "1", 1), ("4", None, 1)]:
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert backbone._free_cpus() == want, (openblas, omp)


def test_a_worker_error_is_raised_in_the_caller(monkeypatch):
    cfg = BYTE_PIN_CONFIGS["acceptance"]
    params = {k: Tensor(v.data) for k, v in init_params(cfg, np.random.default_rng(26)).items()}
    im2col = backbone._im2col

    def fail_off_the_caller(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker block")
        return im2col(*args, **kwargs)

    monkeypatch.setattr(backbone, "_free_cpus", lambda: 2)
    monkeypatch.setattr(backbone, "_im2col", fail_off_the_caller)
    with pytest.raises(MemoryError, match="worker block"):
        forward(Tensor(np.zeros((64, 1, 16, 16))), params, cfg)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_embeds_the_parents_bytes(monkeypatch):
    # The parent's embed starts its worker threads; a child forked after it
    # has none of them and must build its own instead of waiting on them.
    monkeypatch.setattr(backbone, "_free_cpus", lambda: 2)
    cfg = BYTE_PIN_CONFIGS["acceptance"]
    params = init_params(cfg, np.random.default_rng(27))
    images = np.random.default_rng(28).normal(size=(300, 1, 16, 16))
    want = embed(images, params, cfg).tobytes()
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if embed(images, params, cfg).tobytes() == want else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's embed did not finish in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_embed_rejects_a_bad_batch_size_or_no_images():
    cfg = BYTE_PIN_CONFIGS["acceptance"]
    params = init_params(cfg, np.random.default_rng(29))
    images = np.zeros((5, 1, 16, 16))
    for batch_size in (0, -3):
        with pytest.raises(ConfigurationError, match=rf"batch_size .*{batch_size}"):
            embed(images, params, cfg, batch_size=batch_size)
    with pytest.raises(ContractError, match="at least one image"):
        embed(images[:0], params, cfg)


def test_untaped_outputs_do_not_alias_a_later_call():
    cfg = BYTE_PIN_CONFIGS["acceptance"]
    params = {k: Tensor(v.data) for k, v in init_params(cfg, np.random.default_rng(24)).items()}
    rng = np.random.default_rng(25)
    first = forward(Tensor(rng.normal(size=(9, 1, 16, 16))), params, cfg)
    maps, embedding = first.feature_maps.data.tobytes(), first.embedding.data.tobytes()
    forward(Tensor(rng.normal(size=(9, 1, 16, 16))), params, cfg)
    assert first.feature_maps.data.tobytes() == maps
    assert first.embedding.data.tobytes() == embedding
    assert (first.feature_maps.data < 0.0).any()  # the tap is the pre-activation


def test_embedding_invariant_to_projection_rescaling():
    cfg = small_cfg()
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    image = Tensor(rng.normal(size=(1, 1, 8, 8)))
    base = forward(image, params, cfg).embedding.data[0]
    scaled = dict(params)
    scaled["proj.weight"] = Tensor(params["proj.weight"].data * 7.0)
    scaled["proj.bias"] = Tensor(params["proj.bias"].data * 7.0)
    rescaled = forward(image, scaled, cfg).embedding.data[0]
    assert np.dot(base, rescaled) == pytest.approx(1.0, abs=1e-9)


def test_forward_rejects_wrong_spatial_size():
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(5))
    with pytest.raises(ConfigurationError):
        forward(Tensor(np.zeros((1, 1, 9, 9))), params, cfg)
    with pytest.raises(ConfigurationError, match=r"\(N, 1, 8, 8\)"):
        forward(Tensor(np.zeros((1, 8, 8))), params, cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        BackboneConfig(stage_channels=()).validate()
    with pytest.raises(ConfigurationError):
        BackboneConfig(tap_stage=4).validate()
    with pytest.raises(ConfigurationError):
        BackboneConfig(input_size=30).validate()  # not divisible by 2^3
    with pytest.raises(ConfigurationError):
        BackboneConfig(kernel_size=4).validate()


def test_to_distribution_hand_case():
    maps = Tensor(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))  # (d=2, h=1, w=2)
    dist = to_distribution(maps)
    assert dist.shape == (2, 2)
    assert np.array_equal(dist.data, [[1.0, 3.0], [2.0, 4.0]])


def test_to_distribution_round_trip_and_norm():
    rng = np.random.default_rng(6)
    maps = rng.normal(size=(5, 3, 4))
    dist = to_distribution(Tensor(maps))
    assert dist.shape == (12, 5)
    assert np.linalg.norm(dist.data) == pytest.approx(np.linalg.norm(maps))
    assert np.array_equal(dist.data.T.reshape(5, 3, 4), maps)


def test_to_distribution_batch_equals_stacked_samples():
    maps = Tensor(np.random.default_rng(7).normal(size=(3, 5, 2, 4)))
    batched = to_distribution(maps)
    assert batched.shape == (3, 8, 5)
    per_sample = np.stack([to_distribution(maps.gather(i)).data for i in range(3)])
    assert np.array_equal(batched.data, per_sample)
    for shape in ((5, 8), (2, 3, 5, 2, 4)):
        with pytest.raises(ConfigurationError, match="feature maps"):
            to_distribution(Tensor(np.zeros(shape)))


def test_n_equals_hw_for_all_taps():
    for stage in range(3):
        cfg = BackboneConfig(input_size=8, stage_channels=(4, 6, 6),
                             embedding_dim=5, tap_stage=stage)
        params = init_params(cfg, np.random.default_rng(8))
        out = forward(Tensor(np.random.default_rng(9).normal(size=(1, 1, 8, 8))),
                      params, cfg)
        dist = to_distribution(out.feature_maps.gather(0))
        side = cfg.tap_spatial()
        assert dist.shape == (side * side, cfg.stage_channels[stage])


def test_parameter_gradients_match_finite_differences():
    cfg = small_cfg()
    rng = np.random.default_rng(10)
    image = np.random.default_rng(11).normal(size=(1, 1, 8, 8))
    target = np.random.default_rng(12).normal(size=5)

    def loss_given(params):
        emb = forward(Tensor(image), params, cfg).embedding
        return (emb.reshape(-1) * Tensor(target)).sum()

    params = init_params(cfg, rng)
    loss_given(params).backward()
    for name in ("stage0.weight", "proj.bias"):
        flat = params[name].data.reshape(-1)
        picks = np.random.default_rng(13).choice(flat.size, size=2, replace=False)
        for i in picks:
            def f(v, i=i, name=name):
                trial = {k: Tensor(p.data) for k, p in params.items()}
                patched = trial[name].data.copy().reshape(-1)
                patched[i] = v
                trial[name] = Tensor(patched.reshape(params[name].shape))
                return loss_given(trial).item()

            eps = 1e-4
            fd = (f(flat[i] + eps) - f(flat[i] - eps)) / (2 * eps)
            got = params[name].grad.reshape(-1)[i]
            assert rel_err(got, fd) < 1e-3
