"""Small convolutional feature extractor.

Stage 0 keeps the input resolution; every later stage halves it with a
stride-2 conv, so stage k outputs (input_size / 2^k)^2 spatial positions.
One stage's output is tapped as the per-pixel feature distribution that
feeds the OT loss; the last stage is pooled and projected to a unit-norm
embedding. Every stage runs batch innermost, (c, h, w, n). On the tape it
is one `conv2d` node with its bias, then a relu. Off it (`embed`, `otface
eval`) the stages run as one fused pass whose GEMMs over blocks of output
rows keep the tape's bytes (README, "Numerical notes"). Threads run a
stage's blocks at once: each reads only the finished previous stage, so
keeps its bytes.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .tensor import Tensor, _im2col, as_tensor, conv2d, normalize_rows

# Stride-2 stages use an even kernel so the halved output extent is exact.
_DOWN_KERNEL = 4
# OpenBLAS's dgemm runs a product of at most this many multiply-adds through
# its small-matrix kernel, which sums a dot product in another order.
_BLAS_SMALL_GEMM = 100 ** 3
# Images per untaped forward in `embed`. An image's embedding bytes can
# depend on how many images share its chunk (README, "Numerical notes").
EMBED_CHUNK = 256


@dataclass
class BackboneConfig:
    input_size: int = 32
    in_channels: int = 1
    stage_channels: tuple[int, ...] = (16, 32, 64, 128)
    embedding_dim: int = 64
    tap_stage: int = 2
    kernel_size: int = 3  # stride-1 stage 0 kernel; must be odd

    def validate(self) -> "BackboneConfig":
        if not self.stage_channels:
            raise ConfigurationError("at least one stage is required")
        if not 0 <= self.tap_stage < len(self.stage_channels):
            raise ConfigurationError(
                f"tap_stage {self.tap_stage} outside stages "
                f"0..{len(self.stage_channels) - 1}"
            )
        halvings = len(self.stage_channels) - 1
        if self.input_size % (2 ** halvings) != 0 \
                or self.input_size < 2 ** halvings:
            raise ConfigurationError(
                f"input_size {self.input_size} not divisible by 2^{halvings} "
                "(stages after the first each halve the extent)"
            )
        for name in ("in_channels", "embedding_dim", "kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if min(self.stage_channels) < 1:
            raise ConfigurationError(
                f"stage_channels must be positive, got {list(self.stage_channels)}")
        if self.kernel_size % 2 != 1:
            raise ConfigurationError("kernel_size must be odd")
        return self

    def stage_kernel(self, stage: int) -> tuple[int, int, int]:
        """(kernel, stride, padding) for one stage."""
        if stage == 0:
            return self.kernel_size, 1, self.kernel_size // 2
        return _DOWN_KERNEL, 2, (_DOWN_KERNEL - 2) // 2


@dataclass
class ForwardOutput:
    feature_maps: Tensor  # (N, d_tap, h, w), from a (d_tap, h, w, N) stage
    embedding: Tensor     # (N, embedding_dim), rows unit-norm


def init_params(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Kaiming-style fan-in init for conv kernels and the projection;
    conv biases start at zero."""
    cfg.validate()
    params: dict[str, Tensor] = {}
    c_prev = cfg.in_channels
    for i, c_out in enumerate(cfg.stage_channels):
        k, _, _ = cfg.stage_kernel(i)
        fan_in = c_prev * k * k
        std = math.sqrt(2.0 / fan_in)
        params[f"stage{i}.weight"] = Tensor(
            rng.normal(0.0, std, size=(c_out, c_prev, k, k)), requires_grad=True
        )
        params[f"stage{i}.bias"] = Tensor(np.zeros(c_out), requires_grad=True)
        c_prev = c_out
    std = math.sqrt(1.0 / c_prev)
    params["proj.weight"] = Tensor(
        rng.normal(0.0, std, size=(c_prev, cfg.embedding_dim)), requires_grad=True
    )
    # Small random projection bias keeps the embedding well-defined even
    # when every pooled activation is zero (all-black input).
    params["proj.bias"] = Tensor(
        rng.normal(0.0, 0.01, size=cfg.embedding_dim), requires_grad=True
    )
    return params


def _free_cpus() -> int:
    """The CPUs the untaped pass may fill with threads: all this process may run
    on if OpenBLAS is pinned to one thread, else one, since its threads do."""
    if (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) != "1":
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# The pass's worker threads, built on first use in each process: a forked
# child inherits its parent's pool but none of its threads.
_pool = functools.cache(lambda pid: ThreadPoolExecutor())


def _untaped_stages(images: np.ndarray, params: dict[str, Tensor],
                    cfg: BackboneConfig) -> tuple[Tensor, Tensor]:
    """The stages off the tape, batch innermost, in one allocation: the tap's
    pre-activation as an (N, c, h, w) view, and the last stage's rectified
    maps C-ordered (N, c, h, w), so the pool sums each map pairwise. A stage's
    row blocks go to the caller and a worker per further free CPU, joined."""
    n, c, h = images.shape[0], cfg.in_channels, cfg.input_size
    stages, scratch = [], [0, 0]
    for i, c_out in enumerate(cfg.stage_channels):
        k, s, p = cfg.stage_kernel(i)
        o = (h + 2 * p - k) // s + 1
        # GEMMs of `rows` output rows give the whole stage's bytes: a multiple of 8
        # columns, past the BLAS's small-matrix size if the stage is; the last takes the rest
        rows, madds = 8 // math.gcd(o * n, 8), c_out * c * k * k * o * n
        if madds * o > _BLAS_SMALL_GEMM:
            rows *= _BLAS_SMALL_GEMM // (madds * rows) + 1
        blocks = [(r, rows if r + 2 * rows <= o else o - r)
                  for r in range(0, max(o - rows, 0) + 1, rows)]
        widest = blocks[-1][1] * o * n
        scratch = [max(scratch[0], c * k * k * widest), max(scratch[1], c_out * widest)]
        stages.append(((c, h + 2 * p, h + 2 * p, n), k, s, p, c_out, o, blocks))
        c, h = c_out, o
    workers = min(_free_cpus(), max(len(st[-1]) for st in stages))
    sizes = [math.prod(shape) for shape, *_ in stages] + [n * c * h * h] \
        + [workers * size for size in scratch]
    *bufs, last, cols, outs = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    cols, outs = cols.reshape(workers, -1), outs.reshape(workers, -1)
    bufs, dests = [b.reshape(st[0]) for b, st in zip(bufs, stages)], []
    for buf, (_, _, _, p, *_) in zip(bufs, stages):  # zero each (c, h+2p, w+2p, N) pad ring
        e = buf.shape[1] - p
        buf[:, :p] = buf[:, e:] = buf[:, :, :p] = buf[:, :, e:] = 0.0
        dests.append(buf[:, p:e, p:e])
    dests[0][...] = images.transpose(1, 2, 3, 0)
    last = last.reshape(n, c, h, h)
    for i, (x, dest, (_, k, s, _, c_out, o, blocks)) in enumerate(
            zip(bufs, dests[1:] + [last.transpose(1, 2, 3, 0)], stages)):
        if i == cfg.tap_stage:
            tap = np.empty((c_out, o, o, n))
        weight = params[f"stage{i}.weight"].data.reshape(c_out, -1)
        w = min(workers, len(blocks))

        def run(j: int) -> None:  # every `w`-th block from the j-th, in scratch row j
            for r, m in blocks[j::w]:
                block = _im2col(x[:, r * s:], k, k, s, m, o, out=cols[j])
                pre = tap[:, r:r + m] if i == cfg.tap_stage else outs[j, :c_out * m * o * n]
                pre = pre.reshape(c_out, -1)
                np.matmul(weight, block, out=pre)
                pre += params[f"stage{i}.bias"].data.reshape(-1, 1)
                np.maximum(pre.reshape(c_out, m, o, n), 0.0, out=dest[:, r:r + m])

        jobs = [_pool(os.getpid()).submit(run, j) for j in range(1, w)]
        run(0)
        for job in jobs:
            job.result()
    return Tensor._make(tap.transpose(3, 0, 1, 2), ()), Tensor._make(last, ())


def forward(images: Tensor, params: dict[str, Tensor],
            cfg: BackboneConfig) -> ForwardOutput:
    """Run the conv+relu stages on (N, c, H, W) images, capture the tap,
    pool and project; when neither the images nor a stage parameter needs a
    gradient, the stages run as one untaped pass."""
    cfg.validate()
    x = as_tensor(images)
    if len(x.shape) != 4 or x.shape[1] != cfg.in_channels \
            or x.shape[2] != cfg.input_size or x.shape[3] != cfg.input_size:
        raise ConfigurationError(
            f"expected images (N, {cfg.in_channels}, {cfg.input_size}, "
            f"{cfg.input_size}), got {x.shape}"
        )
    if not (x.requires_grad or any(t.requires_grad for name, t in params.items()
                                   if name.startswith("stage"))):
        tap, x = _untaped_stages(x.data, params, cfg)
    else:
        x = x.transpose((1, 2, 3, 0))
        for i in range(len(cfg.stage_channels)):
            _, stride, pad = cfg.stage_kernel(i)
            x = conv2d(x, params[f"stage{i}.weight"], stride=stride, padding=pad,
                       bias=params[f"stage{i}.bias"])
            if i == cfg.tap_stage:
                # pre-activation: rectified maps routinely contain all-zero
                # pixel vectors, which are degenerate atoms for cosine cost
                tap = x.transpose((3, 0, 1, 2))
            x = x.relu()
        x = x.transpose((3, 0, 1, 2))  # C-ordered, so each map sums pairwise
    pooled = x.mean(axis=(2, 3))                      # (N, c_last)
    embedding = pooled @ params["proj.weight"] + params["proj.bias"].reshape(1, -1)
    embedding = normalize_rows(embedding)
    return ForwardOutput(feature_maps=tap, embedding=embedding)


def to_distribution(feature_maps: Tensor) -> Tensor:
    """Reshape a (d, h, w) feature-map stack into the (n, d) matrix of
    per-pixel feature vectors, n = h * w, row-major pixel order; an
    (N, d, h, w) batch maps to the (N, n, d) stack of them."""
    fm = as_tensor(feature_maps)
    if len(fm.shape) not in (3, 4):
        raise ConfigurationError(
            f"expected (d, h, w) or (N, d, h, w) feature maps, got {fm.shape}"
        )
    *batch, d, h, w = fm.shape
    return fm.reshape(*batch, d, h * w).mT


def embed(images: np.ndarray, params: dict[str, Tensor], cfg: BackboneConfig) -> np.ndarray:
    """Unit-norm embeddings of `images`, in chunks of `EMBED_CHUNK`, from
    untaped copies of `params`."""
    if len(images) == 0:
        raise ContractError("embed needs at least one image, got none")
    frozen = {k: Tensor(v.data) for k, v in params.items()}
    chunks = [forward(Tensor(images[i:i + EMBED_CHUNK]), frozen, cfg).embedding.data
              for i in range(0, images.shape[0], EMBED_CHUNK)]
    return np.concatenate(chunks, axis=0)
