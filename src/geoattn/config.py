"""Flat ``key = value`` run configuration with typed validation.

The keys are the fields of ``ModelConfig``, ``BasisConfig``, ``TrainConfig``
and ``SyntheticSpec``, with their types and defaults, plus the data keys in
``DATA_KEYS``; unknown keys are hard errors so typos fail loudly.  The same
key set is what the CLI exposes as ``--key value`` overrides (CLI > config
file > defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .errors import ConfigError
from .geometry import BasisConfig
from .model import ModelConfig
from .training import SyntheticSpec, TrainConfig

# keys that no dataclass owns
DATA_KEYS = {
    "data_path": (str, ""),
    "train_fraction": (float, 0.8),
    "val_fraction": (float, 0.1),
    "test_fraction": (float, 0.1),
    "out_dir": (str, "runs"),
}
# fields keyed under another name, and fields that are not keys (``basis``
# is built from the BasisConfig keys; the others are set by code)
RENAMED = {(BasisConfig, "kind"): "basis_kind",
           (SyntheticSpec, "n_molecules"): "synthetic_molecules"}
NOT_KEYS = {"basis", "out_shift", "out_scale", "atom_refs", "min_distance",
            "pair_params"}


def _keyed_fields(cls) -> dict:
    """key -> (field name, type, default) for the keyed fields of ``cls``."""
    hints = get_type_hints(cls)
    return {RENAMED.get((cls, f.name), f.name): (f.name, hints[f.name], f.default)
            for f in fields(cls) if f.name not in NOT_KEYS}


# key -> (type, default)
KEYS: dict = {key: (typ, default)
              for cls in (ModelConfig, BasisConfig, TrainConfig, SyntheticSpec)
              for key, (_, typ, default) in _keyed_fields(cls).items()} | DATA_KEYS


def _convert(key: str, raw: str):
    typ, _ = KEYS[key]
    raw = raw.strip()
    try:
        if typ is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ is tuple:      # comma-separated integers, e.g. elements
            return tuple(int(z) for z in raw.split(","))
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r} (expected {typ.__name__})")
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    return value


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: d for k, (_, d) in KEYS.items()}
        for k, v in self.values.items():
            if k not in KEYS:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = v
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            values[key] = _convert(key, raw)
        return cls(values)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.parse(fh.read())

    def override(self, updates: dict) -> "RunConfig":
        """Apply string-valued overrides (e.g. from CLI flags)."""
        values = dict(self.values)
        for key, raw in updates.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _convert(key, raw) if isinstance(raw, str) else raw
        return RunConfig(values)

    def build(self, cls):
        """``ModelConfig``, ``BasisConfig``, ``TrainConfig`` or ``SyntheticSpec``
        with every keyed field taken from this config."""
        kwargs = {name: self.values[key]
                  for key, (name, _, _) in _keyed_fields(cls).items()}
        if cls is ModelConfig:
            kwargs["basis"] = self.build(BasisConfig)
        return cls(**kwargs)
