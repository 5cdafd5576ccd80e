"""Import policy of the command line: no call loads scipy.

``import toothalign``, ``import toothalign.cli``, ``--help`` and all
nine subcommands load no scipy module at all: the arch line, the
proximity queries and the GELU's erf run on numpy. Every command runs
in a fresh ``python -X importtime`` process, whose import log on stderr
names each module the run loaded, lazy imports included. Each command
runs once per module; the checks that read its log share the run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toothalign
from toothalign.case import save_case
from toothalign.synthetic import generate_synthetic_case

SRC = str(Path(toothalign.__file__).resolve().parents[1])


def _imported(args, cwd) -> set[str]:
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _scipy(modules) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("policy")
    (d / "cases").mkdir()
    save_case(generate_synthetic_case(seed=11, case_id="policy"), d / "cases" / "policy.case.json")
    return d


@pytest.fixture(scope="module")
def cli(work):
    runs = {}

    def run(args):
        key = tuple(args)
        if key not in runs:
            runs[key] = _imported(["-m", "toothalign", *args], work)
        return runs[key]

    return run


CASE = "cases/policy.case.json"

LIGHT = {
    "help": ["--help"],
    "sample": ["sample", "--in", CASE, "-n", "64", "-o", "small.case.json"],
    "serialize": ["serialize", "--in", CASE],
    "arch export": ["arch", "export", "--in", CASE],
    "eval": ["eval", "--pred-dir", "cases", "--gt-dir", "cases"],
}

DATA_PATH = {
    "gen": ["gen", "--seed", "0", "-o", "generated"],
    "augment": ["augment", "--seed", "1", "--in", CASE, "-o", "aug.case.json"],
    "loss": ["loss", "--pred", CASE, "--gt", CASE],
    "forward": ["forward", "--seed", "1", "--in", CASE],
    "iterate": ["iterate", "--seed", "0", "--in", CASE, "--gt", CASE, "-n", "1"],
}


@pytest.mark.parametrize("module", ["toothalign", "toothalign.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy(_imported(["-c", f"import {module}"], tmp_path)) == []


@pytest.mark.parametrize("name", sorted(LIGHT))
def test_light_subcommands_load_no_scipy(name, cli):
    modules = cli(LIGHT[name])
    assert "toothalign.cli" in modules
    assert _scipy(modules) == []


@pytest.mark.parametrize("name", sorted(DATA_PATH))
def test_data_path_subcommands_load_no_scipy(name, cli):
    modules = cli(DATA_PATH[name])
    assert "toothalign.cli" in modules
    assert _scipy(modules) == []


@pytest.mark.parametrize("name", sorted(DATA_PATH))
def test_no_subcommand_loads_scipy_interpolate(name, cli):
    modules = cli(DATA_PATH[name])
    assert "toothalign.cli" in modules
    assert not [m for m in modules if m.startswith("scipy.interpolate")]


@pytest.mark.parametrize("name", ["forward", "iterate"])
def test_network_subcommands_load_no_spatial_or_sparse(name, cli):
    modules = cli(DATA_PATH[name])
    assert "toothalign.swin" in modules
    assert not [m for m in modules if m.startswith(("scipy.spatial", "scipy.sparse"))]
