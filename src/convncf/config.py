"""Flat key=value run configuration.

A config file is UTF-8 text: one `key = value` per line, full-line `#`
comments, blank lines ignored, later keys overriding earlier ones. Command
line `--key=value` (or bare `key=value`) overrides the file. Unknown keys
are hard errors, as are values that fail to parse as the key's type.

The keys are the training hyper-parameters of `training.TrainConfig` plus
the data, architecture and run-control keys declared here; each key is
checked in one place, `TrainConfig.validate` or `validate_config`.

All randomness in a run flows from the single `seed` key, split per purpose
(split, init, shuffle, negatives, gradcheck), so one number reproduces a
whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from convncf.embeddings import FISM_NORM_EXCLUDED, FISM_NORMS, Variant
from convncf.model import HeadKind, MergeKind
from convncf.training import TrainConfig, check_bound


class ConfigError(ValueError):
    """A bad key, a bad value, or a missing required setting."""


@dataclass
class RunConfig(TrainConfig):
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
    fism_norm: str = FISM_NORM_EXCLUDED  # or full_set
    # command extras
    user: str = ""  # recommend: raw user id
    topk: int = 10  # recommend: list length
    per_user: bool = False  # eval: also write user/rank TSV


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

_CHOICES = {
    "variant": [v.value for v in Variant] + ["itempop"],
    "merge": [m.value for m in MergeKind],
    "head": [h.value for h in HeadKind],
    "fism_norm": list(FISM_NORMS),
}


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
    """Raise ConfigError naming the first key with an illegal value."""
    for key, legal in _CHOICES.items():
        if getattr(cfg, key) not in legal:
            raise ConfigError(f"key {key}: unknown value {getattr(cfg, key)!r}")
    if not 1 <= cfg.mlp_layers <= 3:
        raise ConfigError("key mlp_layers: must be in 1..3")
    try:
        cfg.validate()
        for key in ("K", "C", "min_item", "min_user", "topk"):
            check_bound(cfg, key, 1)
        check_bound(cfg, "alpha", 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
