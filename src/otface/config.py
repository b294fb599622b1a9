"""Run configuration: a nested key-value document with typo-safe loading.

Most sections take their keys and defaults from the config dataclasses.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
from pathlib import Path

from .backbone import BackboneConfig
from .errors import ConfigurationError
from .losses import MarginConfig
from .ot import SinkhornConfig
from .trainer import TrainConfig


def _section(cls, names=None) -> dict:
    """The defaults of `cls`'s fields (or of those in `names`), tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if names is None or f.name in names}


DEFAULTS: dict = {
    "data": {"manifest": None},  # dataset directory containing manifest.json
    "backbone": _section(BackboneConfig),
    "margin": _section(MarginConfig),
    # the other solver knobs reach only `otface ot solve`, never training
    "sinkhorn": _section(SinkhornConfig, ("epsilon", "unroll_iters")),
    "trainer": {**_section(TrainConfig), "checkpoint_every": 0},  # 0 = only at the end
    "mining": {"enabled": True, "cap_per_anchor": None},
    "loss": {"hinge_margin": 0.0, "lambda_ot": 1.0},
    "eval": {"folds": 10, "pairs_per_fold": 30, "far_targets": [1e-1, 1e-2],
             "pair_seed": 0},
}

# The type of the keys whose default is None; None stays allowed for them.
_OPTIONAL = {"data.manifest": str, "mining.cap_per_anchor": int}

_BOOLS = {"true": True, "yes": True, "false": False, "no": False}


def _is(value, kind: type) -> bool:
    """isinstance, except that bools are only bools and floats take ints."""
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _typed(path: str, value, default):
    """`value` if it has the type of `default`, lists element by element (an int
    for a float key becomes a float) and floats finite, ints for them within
    float range; else a ConfigurationError naming `path`."""
    if value is None and path in _OPTIONAL:
        return None
    kind = _OPTIONAL.get(path, type(default))
    item = type(default[0]) if kind is list else None
    if not _is(value, kind) or item and not all(_is(v, item) for v in value):
        want = kind.__name__ + (f" of {item.__name__}" if item else "")
        raise ConfigurationError(f"config key {path!r} must be {want}, got {value!r}")
    # NaN fails the comparison, and ints compare exactly, so none overflows
    if float in (kind, item) and not all(abs(v) <= sys.float_info.max
                                         for v in (value if item else (value,))):
        raise ConfigurationError(f"config key {path!r} must be finite, got {value!r}")
    return float(value) if kind is float else value


def _merge(cfg: dict, doc: dict, defaults: dict = DEFAULTS, prefix: str = "") -> None:
    """Lay `doc` over `cfg` in place, checking keys and types against `defaults`."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {path!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {path!r} must be a section")
            _merge(cfg[key], value, defaults[key], path + ".")
        else:
            cfg[key] = _typed(path, value, defaults[key])


def _parse_set(item: str) -> dict:
    """`a.b=v` as `{"a": {"b": v}}`. `v` is null/none, the raw string for a
    str key, true/yes/false/no, or else a JSON value."""
    key_path, eq, raw = item.partition("=")
    if not eq:
        raise ConfigurationError(f"--set expects key.path=value, got {item!r}")
    section, _, leaf = key_path.partition(".")
    kind = _OPTIONAL.get(key_path, type(DEFAULTS.get(section, {}).get(leaf)))
    if raw.lower() in ("null", "none"):
        value = None
    elif kind is str:
        value = raw
    elif raw.lower() in _BOOLS:
        value = _BOOLS[raw.lower()]
    else:
        try:
            value = json.loads(raw)
        except ValueError:  # JSONDecodeError, or an int past Python's digit limit
            raise ConfigurationError(
                f"--set {key_path}: {raw!r} is not a JSON value") from None
    return {section: {leaf: value}}


def load_config(path: Path | None = None, overrides: list[str] | None = None,
                run_config: Path | None = None) -> dict:
    """Defaults, with the `backbone` section of the JSON file `run_config` (a
    run's saved config) laid over them, deep-merged with an optional JSON
    file and then `key.path=value` override strings. Unknown keys and
    mistyped values are rejected with the offending key path; OTFACE_SEED
    (env) overrides trainer.seed last."""
    cfg = copy.deepcopy(DEFAULTS)
    for backbone_only, source in ((True, run_config), (False, path)):
        if source is None:
            continue
        try:
            doc = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"malformed config {source}: line {exc.lineno}: {exc.msg}"
            ) from None
        except ValueError as exc:  # an int past Python's digit limit
            raise ConfigurationError(f"malformed config {source}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config {source} must be a JSON object")
        _merge(cfg, {"backbone": doc.get("backbone", {})} if backbone_only else doc)
    for item in overrides or []:
        _merge(cfg, _parse_set(item))
    env_seed = os.environ.get("OTFACE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = -1
        if seed < 0:
            raise ConfigurationError(f"OTFACE_SEED must be an integer >= 0, got {env_seed!r}")
        cfg["trainer"]["seed"] = seed
    return cfg


def build_config(cls, section: dict):
    """A validated `cls` from the fields it has in `section`, lists as tuples."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in section.items() if k in names}).validate()
