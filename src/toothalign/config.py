"""Run configuration: one JSON file covering augmentation, loss
weights, serialization, and the master seed.

Unknown keys are rejected at every level so a typo cannot silently
fall back to a default. Environment variables are never consulted.
The augmentation and loss sections are defined here, so reading a
config loads neither the augmentation nor the loss code.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .case import ORDERING_MODES
from .errors import ConfigError


@dataclass(frozen=True)
class AugmentConfig:
    rot_range: float = 10.0  # degrees
    trans_mu: float = 0.0  # mm
    trans_sigma: float = 0.3  # mm
    gap_threshold: float = 2.35  # mm
    arch_dist_range: tuple[float, float] = (0.0, 2.2)  # mm
    constraint_ratio: float = 0.54
    ordinary_prob: float = 0.62
    max_collision_iters: int = 10

    def validate(self) -> None:
        if self.rot_range < 0 or self.trans_sigma < 0 or self.gap_threshold < 0:
            raise ConfigError("augmentation ranges must be nonnegative")
        lo, hi = self.arch_dist_range
        if not (0 <= lo <= hi):
            raise ConfigError("arch_dist_range must be 0 <= lo <= hi")
        for name in ("constraint_ratio", "ordinary_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
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

    def validate(self) -> None:
        vals = (*self.delta, self.omega, self.w_posterior, self.omega_anterior,
                self.tau, self.max_angle, self.max_translation)
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be nonnegative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class Config:
    seed: int = 0
    ordering: str = "arch_line"
    points_per_tooth: int = 512
    window_size: int = 8
    labial_positive: bool = True
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    loss: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.ordering not in ORDERING_MODES:
            raise ConfigError(f"ordering must be one of {sorted(ORDERING_MODES)}")
        if self.points_per_tooth < 1:
            raise ConfigError("points_per_tooth must be positive")
        if self.window_size < 1:
            raise ConfigError("window_size must be positive")
        self.augment.validate()
        try:
            self.loss.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["augment"]["arch_dist_range"] = list(self.augment.arch_dist_range)
        out["loss"]["delta"] = list(self.loss.delta)
        return out


def _build(cls, data: dict, context: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data: dict) -> Config:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    aug_data = data.pop("augment", {})
    loss_data = data.pop("loss", {})
    if not isinstance(aug_data, dict) or not isinstance(loss_data, dict):
        raise ConfigError("augment and loss sections must be objects")
    aug_data = dict(aug_data)
    loss_data = dict(loss_data)
    if "arch_dist_range" in aug_data:
        rng = aug_data["arch_dist_range"]
        if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
            raise ConfigError("arch_dist_range must be a [lo, hi] pair")
        aug_data["arch_dist_range"] = (float(rng[0]), float(rng[1]))
    if "delta" in loss_data:
        delta = loss_data["delta"]
        if not (isinstance(delta, (list, tuple)) and len(delta) == 4):
            raise ConfigError("delta must be a list of 4 weights")
        loss_data["delta"] = tuple(float(v) for v in delta)
    augment = _build(AugmentConfig, aug_data, "augment")
    loss = _build(LossWeights, loss_data, "loss")
    config = _build(Config, {**data, "augment": augment, "loss": loss}, "config")
    config.validate()
    return config


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
