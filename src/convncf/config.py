"""Flat key=value run configuration.

A config file is UTF-8 text: one `key = value` per line, full-line `#`
comments, blank lines ignored, later keys overriding earlier ones. Command
line `--key=value` (or bare `key=value`) overrides the file. Unknown keys
are hard errors, as are values that fail to parse as the key's type.

All randomness in a run flows from the single `seed` key, split per purpose
(split, init, shuffle, negatives, gradcheck), so one number reproduces a
whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


class ConfigError(ValueError):
    """A bad key, a bad value, or a missing required setting."""


@dataclass
class RunConfig:
    # data
    dataset: str = ""  # interaction TSV; required by data-driven commands
    outdir: str = "runs"
    checkpoint: str = ""  # model input for eval / recommend
    pretrain_checkpoint: str = ""  # optional warm-start tables for train
    min_item: int = 1  # ingest filtering thresholds
    min_user: int = 1
    # architecture
    variant: str = "mf"  # mf | fism | svdpp | itempop
    merge: str = "outer"  # outer | elementwise | concat | inner
    head: str = "cnn"  # cnn | mlp | linear | identity
    K: int = 64
    C: int = 32
    mlp_layers: int = 3
    alpha: float = 0.5
    fism_norm: str = "excluded_set"  # or full_set
    # optimization
    lr_embed: float = 0.005
    lr_net: float = 0.01
    lambda1: float = 1e-6  # user-side tables (P, Qp)
    lambda2: float = 1e-6  # target-item table (Q)
    lambda3: float = 10.0  # hidden tower
    lambda4: float = 1.0  # output projection; moves results the most
    batch_size: int = 512
    epochs: int = 30
    adagrad_epsilon: float = 1e-6
    epochs_pretrain: int = 20
    lambda_pretrain: float = 1e-6
    # run control
    seed: int = 42
    threads: int = 1  # evaluation fan-out; 1 keeps output ordering trivial
    # command extras
    user: str = ""  # recommend: raw user id
    topk: int = 10  # recommend: list length
    per_user: bool = False  # eval: also write user/rank TSV


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key}: cannot parse {text!r} as a boolean")


def parse_value(key: str, text: str):
    """Coerce a raw string to the key's declared type."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        if kind in (bool, "bool"):
            return _parse_bool(key, text)
        if kind in (int, "int"):
            return int(text)
        if kind in (float, "float"):
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"key {key}: cannot parse {text!r} as {kind}") from None


def read_config_file(path: str) -> list[tuple[str, str]]:
    """Raw (key, value) pairs in file order; duplicates are kept so that
    later entries can override earlier ones."""
    pairs: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, value = line.split("=", 1)
            pairs.append((key.strip(), value.strip()))
    return pairs


def build_config(config_path: Optional[str], overrides: list[str]) -> RunConfig:
    """File first, then command-line overrides of the form [--]key=value."""
    cfg = RunConfig()
    pairs: list[tuple[str, str]] = []
    if config_path:
        pairs.extend(read_config_file(config_path))
    for raw in overrides:
        item = raw[2:] if raw.startswith("--") else raw
        if "=" not in item:
            raise ConfigError(f"override {raw!r} is not of the form key=value")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    for key, value in pairs:
        setattr(cfg, key, parse_value(key, value))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.variant not in ("mf", "fism", "svdpp", "itempop"):
        raise ConfigError(f"key variant: unknown value {cfg.variant!r}")
    if cfg.merge not in ("outer", "elementwise", "concat", "inner"):
        raise ConfigError(f"key merge: unknown value {cfg.merge!r}")
    if cfg.head not in ("cnn", "mlp", "linear", "identity"):
        raise ConfigError(f"key head: unknown value {cfg.head!r}")
    if cfg.fism_norm not in ("excluded_set", "full_set"):
        raise ConfigError(f"key fism_norm: unknown value {cfg.fism_norm!r}")
    if cfg.K < 1:
        raise ConfigError("key K: must be >= 1")
    if cfg.C < 1:
        raise ConfigError("key C: must be >= 1")
    if not 1 <= cfg.mlp_layers <= 3:
        raise ConfigError("key mlp_layers: must be in 1..3")
    if cfg.lr_embed <= 0 or cfg.lr_net <= 0:
        raise ConfigError("key lr_embed/lr_net: learning rates must be > 0")
    if min(cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.lambda4, cfg.lambda_pretrain) < 0:
        raise ConfigError("regularization strengths must be >= 0")
    if cfg.batch_size < 1:
        raise ConfigError("key batch_size: must be >= 1")
    if cfg.epochs < 1:
        raise ConfigError("key epochs: must be >= 1")
    if cfg.epochs_pretrain < 0:
        raise ConfigError("key epochs_pretrain: must be >= 0")
    if cfg.adagrad_epsilon <= 0:
        raise ConfigError("key adagrad_epsilon: must be > 0")
    if cfg.min_item < 1 or cfg.min_user < 1:
        raise ConfigError("key min_item/min_user: thresholds must be >= 1")
    if cfg.threads < 1:
        raise ConfigError("key threads: must be >= 1")
    if cfg.topk < 1:
        raise ConfigError("key topk: must be >= 1")
    if cfg.alpha < 0:
        raise ConfigError("key alpha: must be >= 0")
