"""Run configuration: a nested key-value document with typo-safe loading."""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path

from .backbone import BackboneConfig
from .errors import ConfigurationError
from .losses import MarginConfig
from .ot import SinkhornConfig
from .trainer import TrainConfig

DEFAULTS: dict = {
    "data": {
        "manifest": None,          # dataset directory containing manifest.json
    },
    "backbone": {
        "input_size": 32,
        "in_channels": 1,
        "stage_channels": [16, 32, 64, 128],
        "embedding_dim": 64,
        "tap_stage": 2,
        "kernel_size": 3,
    },
    "margin": {
        "variant": "additive_cosine",
        "scale": 30.0,
        "margin": 0.35,
    },
    "sinkhorn": {
        "epsilon": 0.02,
        "unroll_iters": 50,
        "include_entropy": False,
    },
    "trainer": {
        "batch_size": 64,
        "epochs": 24,
        "lr": 0.1,
        "momentum": 0.9,
        "weight_decay": 5e-4,
        "lr_milestones": [10, 18, 22],
        "sampler": "class_balanced",
        "sampler_p": 8,
        "sampler_k": 4,
        "seed": 0,
        "checkpoint_every": 0,     # 0 = only at the end
    },
    "mining": {
        "enabled": True,
        "cap_per_anchor": None,
    },
    "loss": {
        "hinge_margin": 0.0,
        "lambda_ot": 1.0,
    },
    "eval": {
        "folds": 10,
        "pairs_per_fold": 30,
        "far_targets": [1e-1, 1e-2],
        "pair_seed": 0,
    },
}


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {path!r}")
        if isinstance(defaults[key], dict) and not isinstance(value, dict):
            raise ConfigurationError(f"config key {path!r} must be a section")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, prefix=path + ".")
        else:
            merged[key] = value
    return merged


def _coerce(raw: str, default):
    """Parse a --set value string against the default's type."""
    if raw.lower() in ("null", "none"):
        return None
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, list):
        return json.loads(raw)
    if default is None:
        # untyped slot: try JSON, fall back to the raw string
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw
    return raw


def load_config(path: Path | None = None,
                overrides: list[str] | None = None) -> dict:
    """Defaults, deep-merged with an optional JSON file and then
    `key.path=value` override strings. Unknown keys are rejected with the
    offending key path; OTFACE_SEED (env) overrides trainer.seed last."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"malformed config {path}: line {exc.lineno}: {exc.msg}"
            ) from None
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        cfg = _merge(cfg, doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key.path=value, got {item!r}")
        key_path, raw = item.split("=", 1)
        keys = key_path.split(".")
        node = cfg
        default_node = DEFAULTS
        for k in keys[:-1]:
            if not isinstance(default_node, dict) or k not in default_node:
                raise ConfigurationError(f"unknown config key {key_path!r}")
            node = node[k]
            default_node = default_node[k]
        leaf = keys[-1]
        if not isinstance(default_node, dict) or leaf not in default_node \
                or isinstance(default_node[leaf], dict):
            raise ConfigurationError(f"unknown config key {key_path!r}")
        node[leaf] = _coerce(raw, default_node[leaf])
    env_seed = os.environ.get("OTFACE_SEED")
    if env_seed is not None:
        try:
            cfg["trainer"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigurationError(
                f"OTFACE_SEED must be an integer, got {env_seed!r}"
            ) from None
    return cfg


def backbone_config(cfg: dict) -> BackboneConfig:
    c = cfg["backbone"]
    return BackboneConfig(
        input_size=c["input_size"],
        in_channels=c["in_channels"],
        stage_channels=tuple(c["stage_channels"]),
        embedding_dim=c["embedding_dim"],
        tap_stage=c["tap_stage"],
        kernel_size=c["kernel_size"],
    ).validate()


def margin_config(cfg: dict) -> MarginConfig:
    c = cfg["margin"]
    return MarginConfig(variant=c["variant"], scale=c["scale"],
                        margin=c["margin"]).validate()


def sinkhorn_config(cfg: dict) -> SinkhornConfig:
    c = cfg["sinkhorn"]
    return SinkhornConfig(
        epsilon=c["epsilon"], unroll_iters=c["unroll_iters"],
        include_entropy=c["include_entropy"],
    ).validate()


def train_config(cfg: dict) -> TrainConfig:
    c = cfg["trainer"]
    return TrainConfig(
        batch_size=c["batch_size"], epochs=c["epochs"], lr=c["lr"],
        momentum=c["momentum"], weight_decay=c["weight_decay"],
        lr_milestones=tuple(c["lr_milestones"]), sampler=c["sampler"],
        sampler_p=c["sampler_p"], sampler_k=c["sampler_k"], seed=c["seed"],
    ).validate()
