"""Every configuration field is wired: the program outside config.py
reads it as an attribute somewhere, so it can change some output. A
field nobody reads is a knob that does nothing and should be deleted."""

import ast
import dataclasses
from pathlib import Path

import pytest

import toothalign
from toothalign.config import AugmentConfig, Config, LossWeights

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
