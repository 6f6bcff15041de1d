"""Run configuration: a flat key-value file with dotted keys and CLI overrides.

A config file holds `key = value` lines (`#` starts a comment). Every key must
be one the run understands; unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default. Each command writes the resolved
configuration snapshot next to its outputs.

A key that sets a field of a config object takes its default, parse type and
checks from that object; only the CLI's own keys state theirs here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import SynthWorldConfig
from .frozen import DEFAULT_PROMPTS, PromptSet
from .geo import TileSpec
from .losses import LossConfig
from .train import TrainSchedule


class ConfigError(ValueError):
    """Bad key, unparsable or out-of-range value, or malformed config line."""


# The config object each section builds, and the field each of its keys sets.
_SECTIONS = {"world": SynthWorldConfig, "tile": TileSpec, "loss": LossConfig,
             "train": TrainSchedule}
_FIELDS = {
    "world.classes": "n_classes",
    "world.embed_dim": "embed_dim",
    "world.feature_dim": "feature_dim",
    "world.extent_km": "extent_km",
    "world.n_ground": "n_ground",
    "world.noise_sigma": "noise_sigma",
    "world.snapshots": "n_snapshots",
    "world.center_lat": "center_lat",
    "world.center_lon": "center_lon",
    "tile.resolution_m": "resolution_m_per_px",
    "tile.size_px": "size_px",
    "tile.patch_px": "patch_px",
    "loss.variant": "variant",
    "loss.tau": "tau",
    "train.epochs": "epochs",
    "train.peak_lr": "peak_lr",
    "train.warmup_steps": "warmup_steps",
    "train.weight_decay": "weight_decay",
}
# The CLI's own keys: (default, allowed values, test), checked when the key is set.
_OWN = {
    "seed": (0, ">= 0", lambda v: v >= 0),
    "pair.cap": (25, ">= 1", lambda v: v >= 1),
    "pair.min_sep_px": (112, ">= 0", lambda v: v >= 0),
    "train.batch_size": (32, ">= 2, so every tile has negatives", lambda v: v >= 2),
    "train.hidden_dim": (32, ">= 1", lambda v: v >= 1),
    # density-map cell stride in pixels (cell spacing = stride x resolution)
    "map.cell_px": (224, "> 0", lambda v: v > 0),
}
_DEFAULTS = {
    **{key: getattr(_SECTIONS[key.split(".")[0]](), name) for key, name in _FIELDS.items()},
    **{key: default for key, (default, _, _) in _OWN.items()},
    # "|"-separated templates, each with one {label} slot; PromptSet checks them
    "prompts": "|".join(DEFAULT_PROMPTS),
}


@dataclass
class RunConfig:
    """The value of every config key, by dotted key: `cfg["train.epochs"]`."""

    values: dict[str, object] = field(default_factory=_DEFAULTS.copy)

    def __getitem__(self, key: str):
        return self.values[key]

    def set_key(self, key: str, raw: str) -> None:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(_DEFAULTS[key])
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
        if key in _OWN and not _OWN[key][2](value):
            raise ConfigError(f"key {key!r}: {raw!r} is out of range, must be {_OWN[key][1]}")
        self.values[key] = value

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

    def check(self) -> None:
        """Build every view once, so a value any config object rejects raises
        ConfigError whichever objects a command uses; run it after the last key
        is set, since an object checks its keys together."""
        self.world_config()  # and the prompt set
        self.tile_spec()
        self.loss_config()
        self.schedule()

    def to_text(self) -> str:
        return "\n".join(sorted(f"{key} = {value}" for key, value in self.values.items())) + "\n"

    def write_snapshot(self, outdir: str | Path, name: str = "run_config.txt") -> Path:
        path = Path(outdir) / name
        path.write_text(self.to_text())
        return path

    # Views onto the module-level config objects. A value those objects reject
    # raises ConfigError.

    def _view(self, section: str, **extra):
        cls = _SECTIONS[section]
        kwargs = {name: self[key] for key, name in _FIELDS.items()
                  if key.startswith(section + ".")}
        try:
            return cls(**kwargs, **extra)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    def world_config(self) -> SynthWorldConfig:
        return self._view("world", prompts=self.prompt_set().templates)

    def tile_spec(self) -> TileSpec:
        return self._view("tile")

    def loss_config(self) -> LossConfig:
        return self._view("loss")

    def schedule(self) -> TrainSchedule:
        return self._view("train", seed=self["seed"])

    def prompt_set(self) -> PromptSet:
        try:
            return PromptSet(tuple(t for t in self["prompts"].split("|") if t))
        except ValueError as exc:
            raise ConfigError(f"prompts: {exc}") from exc
