"""Run configuration: one JSON file covering augmentation, loss
weights, serialization, and the master seed.

Unknown keys and values of the wrong type are rejected at every level,
so a typo cannot silently fall back to a default. Every section checks
its ranges when it is built, so an out-of-range setting cannot exist;
each raises ConfigError. Environment variables
are never consulted. The augmentation and loss sections are defined
here, so reading a config loads neither the augmentation nor the loss
code.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .case import ORDERING_MODES, is_finite_number
from .errors import ConfigError


@dataclass(frozen=True)
class AugmentConfig:
    rot_range: float = 10.0  # degrees
    trans_mu: float = 0.0  # mm
    trans_sigma: float = 0.3  # mm
    gap_threshold: float = 2.35  # mm
    arch_dist_range: tuple[float, float] = (0.0, 2.2)  # mm
    ordinary_prob: float = 0.62
    max_collision_iters: int = 10

    def __post_init__(self) -> None:
        if self.rot_range < 0 or self.trans_sigma < 0 or self.gap_threshold < 0:
            raise ConfigError("augmentation ranges must be nonnegative")
        lo, hi = self.arch_dist_range
        if not (0 <= lo <= hi):
            raise ConfigError("arch_dist_range must be 0 <= lo <= hi")
        if not (0.0 <= self.ordinary_prob <= 1.0):
            raise ConfigError("ordinary_prob must lie in [0, 1]")
        if self.max_collision_iters < 1:
            raise ConfigError("max_collision_iters must be at least 1")


@dataclass(frozen=True)
class LossWeights:
    """Hyperparameters of the combined loss."""

    delta: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    omega: float = 10.0  # rotation emphasis inside the transform loss
    w_posterior: float = 2.0  # posterior share of the uniformity loss
    omega_anterior: float = float(1.0 / np.pi)  # angular-term scale
    tau: float = 0.07  # occlusal overlap threshold, mm
    max_angle: float = float(np.pi / 2.0)  # enhancement normalizer, rad
    max_translation: float = 4.5  # enhancement normalizer, mm

    def __post_init__(self) -> None:
        vals = (*self.delta, self.omega, self.w_posterior, self.omega_anterior,
                self.tau, self.max_angle, self.max_translation)
        if any(v < 0 for v in vals):
            raise ConfigError("loss weights must be nonnegative")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.max_angle <= 0 or self.max_translation <= 0:
            raise ConfigError("max_angle and max_translation must be positive")


@dataclass(frozen=True)
class Config:
    seed: int = 0
    ordering: str = "arch_line"
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.ordering not in ORDERING_MODES:
            raise ConfigError(f"ordering must be one of {sorted(ORDERING_MODES)}")


def _checked(name: str, value, default, context: str):
    """``value`` if it has the type of the field's default; list-valued
    fields arrive as JSON lists and leave as float tuples."""
    if isinstance(default, tuple):
        if not (
            isinstance(value, (list, tuple))
            and len(value) == len(default)
            and all(is_finite_number(v) for v in value)
        ):
            raise ConfigError(f"{context}.{name} must be a list of {len(default)} finite numbers")
        return tuple(float(v) for v in value)
    if isinstance(default, float):
        ok, kind = is_finite_number(value), "a finite number"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{context}.{name} must be {kind}, got {value!r}")
    return value


def _build(cls, data: dict, context: str, **sections):
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in sections}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    checked = {k: _checked(k, v, defaults[k], context) for k, v in data.items()}
    return cls(**checked, **sections)


def config_from_dict(data: dict) -> Config:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    sections = {}
    for name, cls in (("augment", AugmentConfig), ("loss", LossWeights)):
        section = data.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"the {name} section must be an object")
        sections[name] = _build(cls, section, name)
    return _build(Config, data, "config", **sections)


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, JSON, nesting
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
