"""Mini-batch SGD training loop for the combined objective."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .backbone import BackboneConfig, embed, forward, init_params, to_distribution
from .errors import ConfigurationError, ContractError, NumericalRegimeError
from .losses import ClassifierWeights, LossBreakdown, MarginConfig, otface_loss
from .mining import LabeledBatch
from .ot import SinkhornConfig
from .tensor import Tensor


@dataclass
class TrainConfig:
    batch_size: int = 32
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
        # NaN fails both comparisons
        if not 0.0 < self.lr <= sys.float_info.max:
            raise ConfigurationError(f"lr must be positive and finite, got {self.lr}")
        for name in ("momentum", "weight_decay"):
            if not 0.0 <= getattr(self, name) <= sys.float_info.max:
                raise ConfigurationError(
                    f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        ms = tuple(self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])) or any(
            not 0 < m < self.epochs for m in ms
        ):
            raise ConfigurationError(
                f"lr_milestones must be strictly increasing and < epochs, got {ms}"
            )
        if self.sampler != "class_balanced":
            raise ConfigurationError(f"unknown sampler {self.sampler!r}")
        if self.sampler_p < 2 or self.sampler_k < 1:
            raise ConfigurationError("class_balanced sampler needs P >= 2, K >= 1")
        pk = self.sampler_p * self.sampler_k
        if self.batch_size != pk:
            raise ConfigurationError(f"batch_size {self.batch_size} must equal "
                                     f"sampler_p * sampler_k = {pk}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
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


def _class_balanced_batches(labels: np.ndarray, p: int, k: int,
                            rng: np.random.Generator) -> list[np.ndarray]:
    classes = np.unique(labels)
    by_class = {c: np.nonzero(labels == c)[0] for c in classes}
    steps = max(1, math.ceil(labels.shape[0] / (p * k)))
    batches = []
    for _ in range(steps):
        chosen = rng.choice(classes, size=p, replace=False)
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
        for key, value in (("hinge_margin", hinge_margin), ("lambda_ot", lambda_ot)):
            if value < 0.0:
                raise ConfigurationError(f"loss.{key} must be nonnegative, got {value}")
        if cap_per_anchor is not None and cap_per_anchor <= 0:
            raise ConfigurationError(
                f"mining.cap_per_anchor must be positive, got {cap_per_anchor}")
        self.images = np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(labels)
        self.backbone_cfg = backbone_cfg.validate()
        self.margin_cfg = margin_cfg.validate()
        self.sinkhorn_cfg = sinkhorn_cfg.validate()
        self.train_cfg = train_cfg.validate()
        classes = np.unique(self.labels).shape[0]
        if train_cfg.sampler_p > classes:
            raise ConfigurationError(f"trainer.sampler_p {train_cfg.sampler_p} exceeds "
                                     f"the {classes} classes of the training set")
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

    def _loss_for_batch(self, idx: np.ndarray) -> LossBreakdown:
        out = forward(Tensor(self.images[idx]), self.state.params, self.backbone_cfg)
        batch = LabeledBatch(out.embedding.data, self.labels[idx])
        return otface_loss(
            batch, out.embedding, to_distribution(out.feature_maps),
            self.classifier, self.margin_cfg, self.sinkhorn_cfg,
            hinge_margin=self.hinge_margin, lambda_ot=self.lambda_ot,
            cap_per_anchor=self.cap_per_anchor, mining_enabled=self.mining_enabled,
        )

    def train_epoch(self) -> dict:
        """One pass over the sampler's batches; returns the epoch metrics."""
        lr = lr_at(self.state.epoch, self.train_cfg)
        margin_losses, ot_losses = [], []
        hard_groups = 0
        cfg = self.train_cfg
        batches = _class_balanced_batches(self.labels, cfg.sampler_p, cfg.sampler_k,
                                          self.state.rng)
        for batch_no, idx in enumerate(batches):
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

    def embed(self, images: np.ndarray) -> np.ndarray:
        """Embeddings for evaluation; no tape is built."""
        return embed(images, self.state.params, self.backbone_cfg)
