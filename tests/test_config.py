"""Every configuration field is wired: the program outside config.py
reads it as an attribute somewhere, so it can change some output. A
field nobody reads is a knob that does nothing and should be deleted.
Every settings class checks its ranges when it is built (LossWeights
and SynthParams in test_losses.py and test_synthetic.py)."""

import ast
import dataclasses
from pathlib import Path

import pytest

import toothalign
from toothalign.config import AugmentConfig, Config, LossWeights
from toothalign.errors import ConfigError

PACKAGE = Path(toothalign.__file__).parent


def _attributes_read() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("cls", [Config, AugmentConfig, LossWeights], ids=lambda c: c.__name__)
def test_every_config_field_is_read_outside_config(cls):
    read = _attributes_read()
    assert [f.name for f in dataclasses.fields(cls) if f.name not in read] == []


INVALID = [
    (AugmentConfig, {"rot_range": -1.0}),
    (AugmentConfig, {"arch_dist_range": (2.0, 1.0)}),
    (AugmentConfig, {"ordinary_prob": 1.5}),
    (AugmentConfig, {"max_collision_iters": 0}),
    (Config, {"seed": -3}),
    (Config, {"ordering": "zigzag"}),
    (Config, {"points_per_tooth": 0}),
]


@pytest.mark.parametrize(
    "cls, kwargs", INVALID, ids=[f"{cls.__name__}-{next(iter(kw))}" for cls, kw in INVALID]
)
def test_an_invalid_setting_cannot_be_built(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)
