"""Seeded input generation for the benchmark workloads.

Pixels, cost matrices and tap maps are made here with plain numpy, so a
change to the program cannot change what it is fed. Only the on-disk
containers (dataset manifest, checkpoint) are written through the
program's own serializers, so the files stay in the format it reads.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

IMAGE_SIZE = 16
HARDNESS = 0.7
# The class prototypes ("identities") come from this fixed seed; the run
# seed draws the images around them, the initialisation, the batches and
# the pairs. With seeded prototypes, how separable ten random classes
# happen to be moved held-out accuracy between 0.58 and 0.84 from seed to
# seed, far more than any change to the program would.
POPULATION_SEED = 0

# acceptance-6 backbone: stages (8, 16, 16), 32-d embedding, tap stage 2,
# so a 16x16 image gives a (16, 4, 4) tap, i.e. n = 16 atoms of d = 16
STAGE_CHANNELS = (8, 16, 16)
EMBEDDING_DIM = 32
TAP_STAGE = 2

# ot_solve cost families
RAND_EPSILONS = (0.05, 0.01, 0.005)
RAND_SIZES = (2, 3, 4, 5, 6)
TAP_EPSILONS = (0.1, 0.02)


def _smooth_field(rng: np.random.Generator, size: int, coarse: int = 4) -> np.ndarray:
    """Coarse gaussian noise, bilinearly upsampled and scaled to unit std."""
    grid = rng.normal(size=(coarse, coarse))
    src = np.linspace(0.0, coarse - 1.0, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    t = src - i0
    field = (grid[i0][:, i0] * np.outer(1 - t, 1 - t)
             + grid[i0][:, i1] * np.outer(1 - t, t)
             + grid[i1][:, i0] * np.outer(t, 1 - t)
             + grid[i1][:, i1] * np.outer(t, t))
    return field / max(field.std(), 1e-9)


def make_images(rng: np.random.Generator, classes: int, per_class: int,
                hardness: float = HARDNESS, size: int = IMAGE_SIZE
                ) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes pulled toward one shared pattern by `hardness`,
    plus `hardness`-scaled pixel noise drawn from `rng`:
    (classes*per_class, 1, size, size) images and their labels, class-major."""
    population = np.random.default_rng(POPULATION_SEED)
    shared = _smooth_field(population, size)
    protos = [(1.0 - hardness) * _smooth_field(population, size) + hardness * shared
              for _ in range(classes)]
    images = np.stack([
        protos[c] + hardness * rng.normal(size=(size, size))
        for c in range(classes) for _ in range(per_class)
    ])[:, None]
    labels = np.repeat(np.arange(classes), per_class)
    return images, labels


def write_dataset(root: Path, splits: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Write float32 raw images plus the program's manifest."""
    from otface.data import DatasetManifest, SampleEntry

    root.mkdir(parents=True, exist_ok=True)
    samples = []
    for split, (images, labels) in splits.items():
        for img, label in zip(images, labels):
            name = f"sample_{len(samples):05d}.raw"
            (root / name).write_bytes(img.astype("<f4").tobytes())
            samples.append(SampleEntry(len(samples), name, int(label), split))
    DatasetManifest(root, (1, IMAGE_SIZE, IMAGE_SIZE), "float32", samples).save()


def backbone_config():
    from otface import BackboneConfig

    return BackboneConfig(input_size=IMAGE_SIZE, stage_channels=STAGE_CHANNELS,
                          embedding_dim=EMBEDDING_DIM, tap_stage=TAP_STAGE)


def write_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """An initialised acceptance backbone saved with the program's
    checkpoint writer; returns the saved arrays for the round-trip check.
    The model under evaluation is fixed, like the class prototypes: with a
    seeded initialisation its k-fold accuracy ranged 0.52-0.62 by seed."""
    from otface import init_params
    from otface.data import save_checkpoint

    params = init_params(backbone_config(), np.random.default_rng(POPULATION_SEED))
    save_checkpoint(path, params)
    return {k: v.data.copy() for k, v in params.items()}


# ---------------------------------------------------------------------------
# ot_solve cost families
# ---------------------------------------------------------------------------

def rand_costs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Criterion-1-sized problems: uniform [0, 1) costs, n cycling 2..6 so
    every run holds the same mix of sizes."""
    return [rng.random((n, n)) for n in
            (RAND_SIZES[i % len(RAND_SIZES)] for i in range(count))]


def _conv(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, w)


def tap_maps(rng: np.random.Generator, images: np.ndarray) -> np.ndarray:
    """Stage-2 pre-activation maps of a freshly initialised acceptance
    backbone (3x3 stride-1 stage 0, 4x4 stride-2 later stages, fan-in
    normal init, zero bias), as (N, n, d) point clouds, n = h*w."""
    x, c_prev = images, images.shape[1]
    for stage, c_out in enumerate(STAGE_CHANNELS[:TAP_STAGE + 1]):
        k, stride, pad = (3, 1, 1) if stage == 0 else (4, 2, 1)
        w = rng.normal(0.0, math.sqrt(2.0 / (c_prev * k * k)),
                       size=(c_out, c_prev, k, k))
        x = _conv(x, w, stride, pad)
        if stage < TAP_STAGE:
            x = np.maximum(x, 0.0)
        c_prev = c_out
    n, d, h, w_ = x.shape
    return x.reshape(n, d, h * w_).transpose(0, 2, 1)


def cosine_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ra = a / np.linalg.norm(a, axis=1, keepdims=True)
    rb = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.clip(1.0 - ra @ rb.T, 0.0, 2.0)


def tap_costs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """n = 16 cosine costs between the tap clouds of random image pairs."""
    images, _ = make_images(rng, classes=8, per_class=8)
    clouds = tap_maps(rng, images)
    out = []
    for _ in range(count):
        i, j = rng.choice(clouds.shape[0], size=2, replace=False)
        out.append(cosine_cost(clouds[i], clouds[j]))
    return out
