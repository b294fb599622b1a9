"""Mini-batch SGD training loop for the combined objective."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backbone import BackboneConfig, embed, forward, init_params, to_distributions
from .errors import ConfigurationError, ContractError, NumericalRegimeError
from .losses import ClassifierWeights, LossBreakdown, MarginConfig, otface_loss
from .mining import LabeledBatch
from .ot import SinkhornConfig
from .tensor import Tensor


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 24
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestones: tuple[int, ...] = (10, 18, 22)
    sampler: str = "class_balanced"
    sampler_p: int = 8
    sampler_k: int = 4
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be >= 2")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        ms = tuple(self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])) or any(
            not 0 < m < self.epochs for m in ms
        ):
            raise ConfigurationError(
                f"lr_milestones must be strictly increasing and < epochs, got {ms}"
            )
        if self.sampler not in ("uniform_random", "class_balanced"):
            raise ConfigurationError(f"unknown sampler {self.sampler!r}")
        if self.sampler == "class_balanced" and (
            self.sampler_p < 2 or self.sampler_k < 1
        ):
            raise ConfigurationError("class_balanced sampler needs P >= 2, K >= 1")
        return self


@dataclass
class TrainState:
    params: dict[str, Tensor]
    momentum_buffers: dict[str, np.ndarray]
    epoch: int = 0
    step: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    history: list[dict] = field(default_factory=list)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Initial lr decayed by 10x at each milestone reached."""
    if not 0 <= epoch < cfg.epochs:
        raise ContractError(f"epoch {epoch} outside [0, {cfg.epochs})")
    decays = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr * 0.1 ** decays


def sgd_step(state: TrainState, gradients: dict[str, np.ndarray], lr: float,
             cfg: TrainConfig) -> None:
    """buf <- momentum*buf + grad + wd*param;  param <- param - lr*buf."""
    for name, param in state.params.items():
        grad = gradients.get(name)
        if grad is None:
            grad = np.zeros_like(param.data)
        if grad.shape != param.data.shape:
            raise ContractError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{name} shape {param.data.shape}"
            )
        buf = state.momentum_buffers[name]
        buf *= cfg.momentum
        buf += grad + cfg.weight_decay * param.data
        param.data = param.data - lr * buf
    state.step += 1


def _uniform_batches(labels: np.ndarray, batch_size: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(labels.shape[0])
    chunks = [perm[i:i + batch_size] for i in range(0, perm.shape[0], batch_size)]
    return [c for c in chunks if c.shape[0] >= 2]


def _class_balanced_batches(labels: np.ndarray, p: int, k: int,
                            rng: np.random.Generator) -> list[np.ndarray]:
    classes = np.unique(labels)
    by_class = {c: np.nonzero(labels == c)[0] for c in classes}
    steps = max(1, math.ceil(labels.shape[0] / (p * k)))
    batches = []
    for _ in range(steps):
        chosen = rng.choice(classes, size=min(p, classes.shape[0]), replace=False)
        idx = []
        for c in chosen:
            pool = by_class[c]
            idx.append(rng.choice(pool, size=k, replace=pool.shape[0] < k))
        batches.append(np.concatenate(idx))
    return batches


class Trainer:
    """Owns parameters, classifier weights and optimizer state."""

    def __init__(self, images: np.ndarray, labels: np.ndarray,
                 backbone_cfg: BackboneConfig, margin_cfg: MarginConfig,
                 sinkhorn_cfg: SinkhornConfig, train_cfg: TrainConfig,
                 mining_enabled: bool = True,
                 cap_per_anchor: int | None = None,
                 hinge_margin: float = 0.0, lambda_ot: float = 1.0):
        if images.shape[0] == 0:
            raise ContractError("dataset must be nonempty")
        self.images = np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(labels)
        self.backbone_cfg = backbone_cfg.validate()
        self.margin_cfg = margin_cfg.validate()
        self.sinkhorn_cfg = sinkhorn_cfg.validate()
        self.train_cfg = train_cfg.validate()
        self.mining_enabled = mining_enabled
        self.cap_per_anchor = cap_per_anchor
        self.hinge_margin = hinge_margin
        self.lambda_ot = lambda_ot

        rng = np.random.default_rng(train_cfg.seed)
        params = init_params(backbone_cfg, rng)
        num_classes = int(self.labels.max()) + 1
        self.classifier = ClassifierWeights.init_random(
            backbone_cfg.embedding_dim, num_classes, rng
        )
        params["classifier.weight"] = self.classifier.tensor
        self.state = TrainState(
            params=params,
            momentum_buffers={k: np.zeros_like(v.data) for k, v in params.items()},
            rng=rng,
        )

    def _batches(self) -> list[np.ndarray]:
        cfg = self.train_cfg
        if cfg.sampler == "uniform_random":
            return _uniform_batches(self.labels, cfg.batch_size, self.state.rng)
        return _class_balanced_batches(
            self.labels, cfg.sampler_p, cfg.sampler_k, self.state.rng
        )

    def _loss_for_batch(self, idx: np.ndarray) -> LossBreakdown:
        out = forward(Tensor(self.images[idx]), self.state.params, self.backbone_cfg)
        batch = LabeledBatch(out.embedding.data, self.labels[idx])
        return otface_loss(
            batch, out.embedding, to_distributions(out.feature_maps),
            self.classifier, self.margin_cfg, self.sinkhorn_cfg,
            hinge_margin=self.hinge_margin, lambda_ot=self.lambda_ot,
            cap_per_anchor=self.cap_per_anchor, mining_enabled=self.mining_enabled,
        )

    def train_epoch(self) -> dict:
        """One pass over the sampler's batches; returns the epoch metrics."""
        lr = lr_at(self.state.epoch, self.train_cfg)
        margin_losses, ot_losses = [], []
        hard_groups = 0
        for batch_no, idx in enumerate(self._batches()):
            breakdown = self._loss_for_batch(idx)
            for term, value in (("margin", breakdown.margin_loss.item()),
                                ("ot", breakdown.ot_loss.item()),
                                ("total", breakdown.total.item())):
                if not math.isfinite(value):
                    raise NumericalRegimeError(
                        f"non-finite {term} loss ({value}) in epoch "
                        f"{self.state.epoch}, batch {batch_no}"
                    )
            for p in self.state.params.values():
                p.zero_grad()
            breakdown.total.backward()
            grads = {
                name: p.grad for name, p in self.state.params.items()
                if p.grad is not None
            }
            sgd_step(self.state, grads, lr, self.train_cfg)
            margin_losses.append(breakdown.margin_loss.item())
            ot_losses.append(breakdown.ot_loss.item())
            hard_groups += breakdown.num_hard_groups
        mean_margin = float(np.mean(margin_losses))
        mean_ot = float(np.mean(ot_losses))
        metrics = {
            "epoch": self.state.epoch,
            "margin_loss": mean_margin,
            "ot_loss": mean_ot,
            # summed, not re-averaged, so total == margin + ot exactly
            "total": mean_margin + mean_ot,
            "hard_groups": hard_groups,
            "lr": lr,
        }
        self.state.epoch += 1
        self.state.history.append(metrics)
        return metrics

    def run(self) -> list[dict]:
        return [self.train_epoch() for _ in range(self.train_cfg.epochs)]

    def embed(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Embeddings for evaluation; no tape is built."""
        return embed(images, self.state.params, self.backbone_cfg, batch_size)
