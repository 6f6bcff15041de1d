"""Run configuration: a flat key-value file with dotted keys and CLI overrides.

A config file holds `key = value` lines (`#` starts a comment). Every key must
be one the run understands; unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default. Each command writes the resolved
configuration snapshot next to its outputs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import SynthWorldConfig
from .frozen import DEFAULT_PROMPTS, PromptSet
from .geo import TileSpec
from .losses import LossConfig
from .train import TrainSchedule


class ConfigError(ValueError):
    """Bad key, unparsable or out-of-range value, or malformed config line."""


@contextmanager
def _rejected_as_config_error(section: str):
    """Report a value rejected by a config object's own checks as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class RunConfig:
    seed: int = 0

    world_classes: int = 8
    world_embed_dim: int = 16
    world_feature_dim: int = 16
    world_extent_km: float = 10.0
    world_n_ground: int = 2000
    world_noise_sigma: float = 0.1
    world_snapshots: int = 3
    world_center_lat: float = 43.0
    world_center_lon: float = -76.0

    tile_resolution_m: float = 1.0
    tile_size_px: int = 224
    tile_patch_px: int = 16

    pair_cap: int = 25
    pair_min_sep_px: int = 112

    loss_variant: str = "image_default"
    loss_tau: float = 0.07

    train_epochs: int = 10
    train_peak_lr: float = 1e-3
    train_warmup_steps: int = 0
    train_weight_decay: float = 1e-2
    train_batch_size: int = 32
    train_hidden_dim: int = 32

    # Prompt templates, "|"-separated; each must contain one {label} slot.
    prompts: str = "|".join(DEFAULT_PROMPTS)

    # Density-map cell stride in pixels (cell spacing = stride x resolution).
    map_cell_px: int = 224

    def set_key(self, key: str, raw: str) -> None:
        attr = _KEY_TO_ATTR.get(key)
        if attr is None:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[attr]
        try:
            if kind is int:
                value = int(raw)
            elif kind is float:
                value = float(raw)
            else:
                value = raw
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
        if attr in _DOMAINS:
            allowed, in_domain = _DOMAINS[attr]
            if not in_domain(value):
                raise ConfigError(f"key {key!r}: {raw!r} is out of range, must be {allowed}")
        setattr(self, attr, value)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        cfg = cls()
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            try:
                cfg.set_key(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cfg

    def apply_overrides(self, pairs: list[str]) -> None:
        """Apply `key=value` strings (from --set flags); flags win over the file."""
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} must look like key=value")
            key, raw = (part.strip() for part in pair.split("=", 1))
            self.set_key(key, raw)

    def to_text(self) -> str:
        lines = [
            f"{_ATTR_TO_KEY[f.name]} = {getattr(self, f.name)}"
            for f in fields(self)
        ]
        return "\n".join(sorted(lines)) + "\n"

    def write_snapshot(self, outdir: str | Path, name: str = "run_config.txt") -> Path:
        path = Path(outdir) / name
        path.write_text(self.to_text())
        return path

    # Views onto the module-level config objects. A value those objects reject
    # raises ConfigError.

    def world_config(self) -> SynthWorldConfig:
        prompts = tuple(self.prompt_set().templates)
        with _rejected_as_config_error("world"):
            return SynthWorldConfig(
                n_classes=self.world_classes,
                embed_dim=self.world_embed_dim,
                feature_dim=self.world_feature_dim,
                extent_km=self.world_extent_km,
                n_ground=self.world_n_ground,
                noise_sigma=self.world_noise_sigma,
                n_snapshots=self.world_snapshots,
                center_lat=self.world_center_lat,
                center_lon=self.world_center_lon,
                prompts=prompts,
            )

    def tile_spec(self) -> TileSpec:
        with _rejected_as_config_error("tile"):
            return TileSpec(self.tile_resolution_m, self.tile_size_px, self.tile_patch_px)

    def loss_config(self) -> LossConfig:
        with _rejected_as_config_error("loss"):
            return LossConfig(tau=self.loss_tau, variant=self.loss_variant)

    def schedule(self) -> TrainSchedule:
        with _rejected_as_config_error("train"):
            return TrainSchedule(
                peak_lr=self.train_peak_lr,
                warmup_steps=self.train_warmup_steps,
                weight_decay=self.train_weight_decay,
                epochs=self.train_epochs,
                seed=self.seed,
            )

    def prompt_set(self) -> PromptSet:
        templates = tuple(t for t in self.prompts.split("|") if t)
        try:
            return PromptSet(templates)
        except ValueError as exc:
            raise ConfigError(f"prompts: {exc}") from exc


def _dotted_key(attr: str) -> str:
    for prefix in ("world", "tile", "pair", "loss", "train", "map"):
        if attr.startswith(prefix + "_"):
            return f"{prefix}.{attr[len(prefix) + 1:]}"
    return attr


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_FIELD_TYPES = {
    name: {"int": int, "float": float, "str": str}[t if isinstance(t, str) else t.__name__]
    for name, t in _FIELD_TYPES.items()
}
# Allowed values of a key, checked when the key is set: (description, test).
# Keys not listed here are checked by the config object that takes them.
_DOMAINS = {
    "seed": (">= 0", lambda v: v >= 0),
    "world_center_lat": ("finite, within [-90, 90]", lambda v: -90 <= v <= 90),
    "world_extent_km": ("finite, > 0", lambda v: 0 < v < math.inf),
    "world_noise_sigma": ("finite, >= 0", lambda v: 0 <= v < math.inf),
    "world_center_lon": ("finite", math.isfinite),
    "tile_resolution_m": ("finite, > 0", lambda v: 0 < v < math.inf),
    "pair_cap": (">= 1", lambda v: v >= 1),
    "pair_min_sep_px": (">= 0", lambda v: v >= 0),
    "train_batch_size": (">= 2, so every tile has negatives", lambda v: v >= 2),
    "train_hidden_dim": (">= 1", lambda v: v >= 1),
    "train_warmup_steps": (">= 0 (0 = derive)", lambda v: v >= 0),
    "map_cell_px": ("> 0", lambda v: v > 0),
}
_ATTR_TO_KEY = {f.name: _dotted_key(f.name) for f in fields(RunConfig)}
_KEY_TO_ATTR = {v: k for k, v in _ATTR_TO_KEY.items()}
