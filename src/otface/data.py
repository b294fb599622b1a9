"""Dataset manifest, raw image storage, synthetic data generation, and
checkpoint serialization."""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractError
from .tensor import Tensor

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
CHECKPOINT_VERSION = 1

ENCODINGS = ("float32", "uint8")


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write-temp-then-rename so readers never observe a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass
class SampleEntry:
    sample_id: int
    file: str
    label: int
    split: str = "train"


@dataclass
class DatasetManifest:
    root: Path
    image_shape: tuple[int, int, int]  # (c, h, w)
    encoding: str
    samples: list[SampleEntry]

    def __post_init__(self):
        self.root = Path(self.root)
        if self.encoding not in ENCODINGS:
            raise ConfigurationError(f"unknown image encoding {self.encoding!r}")
        labels = sorted({s.label for s in self.samples})
        if labels != list(range(len(labels))):
            raise ConfigurationError(
                f"labels must form a contiguous 0..C-1 range, got {labels}"
            )

    @property
    def num_classes(self) -> int:
        return len({s.label for s in self.samples})

    def save(self) -> None:
        doc = {
            "version": MANIFEST_VERSION,
            "encoding": self.encoding,
            "image_shape": list(self.image_shape),
            "samples": [
                {"id": s.sample_id, "file": s.file, "label": s.label,
                 "split": s.split}
                for s in self.samples
            ],
        }
        atomic_write_text(self.root / MANIFEST_NAME, json.dumps(doc, indent=1))

    @classmethod
    def load(cls, root: Path) -> "DatasetManifest":
        root = Path(root)
        path = root / MANIFEST_NAME
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"no {MANIFEST_NAME} under {root}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed manifest {path}: {exc}") from None
        if doc.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported manifest version {doc.get('version')}"
            )
        samples = [
            SampleEntry(s["id"], s["file"], s["label"], s.get("split", "train"))
            for s in doc["samples"]
        ]
        manifest = cls(root, tuple(doc["image_shape"]), doc["encoding"], samples)
        for s in samples:
            if not (root / s.file).exists():
                raise ConfigurationError(f"missing image file {s.file} under {root}")
        return manifest


def _image_bytes(image: np.ndarray, encoding: str) -> bytes:
    if encoding == "float32":
        return image.astype("<f4").tobytes()
    lo, hi = image.min(), image.max()
    scaled = (image - lo) / (hi - lo) if hi > lo else np.zeros_like(image)
    return (scaled * 255.0).round().astype(np.uint8).tobytes()


def load_image(manifest: DatasetManifest, entry: SampleEntry) -> np.ndarray:
    raw = (manifest.root / entry.file).read_bytes()
    c, h, w = manifest.image_shape
    expected = c * h * w * (4 if manifest.encoding == "float32" else 1)
    if len(raw) != expected:
        raise ConfigurationError(
            f"image {entry.file}: got {len(raw)} bytes, expected {expected} "
            f"for shape {manifest.image_shape} ({manifest.encoding})"
        )
    if manifest.encoding == "float32":
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    else:
        arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    return arr.reshape(c, h, w)


def load_dataset(manifest: DatasetManifest,
                 split: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Images (N, c, h, w) and labels (N,) for one split (or all)."""
    entries = [s for s in manifest.samples if split is None or s.split == split]
    if not entries:
        raise ContractError(f"no samples in split {split!r}")
    images = np.stack([load_image(manifest, s) for s in entries])
    labels = np.array([s.label for s in entries])
    return images, labels


def _smooth_field(rng: np.random.Generator, size: int, coarse: int = 4) -> np.ndarray:
    """Low-frequency random pattern: coarse noise, bilinearly upsampled."""
    grid = rng.normal(size=(coarse, coarse))
    src = np.linspace(0.0, coarse - 1.0, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    t = src - i0
    rows = grid[i0][:, i0] * np.outer(1 - t, 1 - t) \
        + grid[i0][:, i1] * np.outer(1 - t, t) \
        + grid[i1][:, i0] * np.outer(t, 1 - t) \
        + grid[i1][:, i1] * np.outer(t, t)
    return rows / max(rows.std(), 1e-9)


def generate_synthetic(out_dir: Path, num_classes: int, per_class: int,
                       hardness: float, seed: int, image_size: int = 16,
                       channels: int = 1, holdout_per_class: int = 0,
                       encoding: str = "float32") -> DatasetManifest:
    """Write a synthetic dataset of per-class pattern prototypes.

    `hardness` in [0, 1] controls both how much every class prototype is
    pulled toward one shared pattern and the magnitude of within-class
    perturbation. At hardness 0 all samples of a class are identical, so
    no embedder can produce a hard group; higher hardness mixes classes
    together and inflates within-class spread.
    """
    if num_classes < 2:
        raise ConfigurationError(f"need >= 2 classes, got {num_classes}")
    if not 0.0 <= hardness <= 1.0:
        raise ConfigurationError(f"hardness must be in [0, 1], got {hardness}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    shared = np.stack([_smooth_field(rng, image_size) for _ in range(channels)])
    prototypes = []
    for _ in range(num_classes):
        own = np.stack([_smooth_field(rng, image_size) for _ in range(channels)])
        prototypes.append((1.0 - hardness) * own + hardness * shared)
    samples: list[SampleEntry] = []
    sample_id = 0
    for label in range(num_classes):
        for j in range(per_class + holdout_per_class):
            noise = rng.normal(size=(channels, image_size, image_size))
            image = prototypes[label] + hardness * noise
            fname = f"sample_{sample_id:05d}.raw"
            atomic_write_bytes(out_dir / fname, _image_bytes(image, encoding))
            split = "train" if j < per_class else "test"
            samples.append(SampleEntry(sample_id, fname, label, split))
            sample_id += 1
    manifest = DatasetManifest(out_dir, (channels, image_size, image_size),
                               encoding, samples)
    manifest.save()
    return manifest


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: Path, params: dict[str, Tensor],
                    momentum_buffers: dict[str, np.ndarray] | None = None,
                    epoch: int = 0, step: int = 0) -> None:
    """Versioned binary blob of named tensors (numpy .npz container)."""
    import io

    arrays: dict[str, np.ndarray] = {
        "__meta__": np.array([CHECKPOINT_VERSION, epoch, step], dtype=np.int64)
    }
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
    for name, buf in (momentum_buffers or {}).items():
        arrays[f"momentum/{name}"] = buf
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(Path(path), buf.getvalue())


def load_checkpoint(path: Path):
    """Returns (params, momentum_buffers, epoch, step)."""
    not_npz = f"{path}: not an otface checkpoint (not an .npz archive)"
    try:
        blob = np.load(Path(path))
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot read checkpoint ({exc.strerror or exc})") from exc
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(not_npz) from exc
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ConfigurationError(not_npz)
    with blob:
        if "__meta__" not in blob.files:
            raise ConfigurationError(f"{path}: not an otface checkpoint (no __meta__)")
        meta = blob["__meta__"]
        if int(meta[0]) != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported checkpoint version {meta[0]}"
            )
        params: dict[str, Tensor] = {}
        momentum: dict[str, np.ndarray] = {}
        for key in blob.files:
            if key.startswith("param/"):
                params[key[len("param/"):]] = Tensor(blob[key], requires_grad=True)
            elif key.startswith("momentum/"):
                momentum[key[len("momentum/"):]] = blob[key].copy()
        if not params:
            raise ConfigurationError(f"{path}: checkpoint holds no parameters")
        return params, momentum, int(meta[1]), int(meta[2])
