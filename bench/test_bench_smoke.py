"""Smoke tests of the benchmark: each workload on a two-case corpus,
the traced run against the untraced one, the independent checks on
deliberately broken outputs, and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_checks as chk
import bench_trace
import bench_workloads as bw
from toothalign import augment, synthetic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(name, traced, tmp_path):
    return bw.run_workload(name, 5, 0.0, traced, True, SRC, tmp_path)


@pytest.mark.parametrize("name", ["augment", "align"])
def test_in_process_workload_passes_its_checks(name, tmp_path):
    out = run(name, False, tmp_path)
    result = out["result"]
    assert result.problems == []
    assert result.attempted == 2 and result.failed == 0
    assert {m: u for m, (_, u) in out["metrics"].items()} == END_TO_END
    assert all(v > 0 for v, _ in out["metrics"].values())


def test_traced_run_reports_every_layer_with_unchanged_outputs(tmp_path):
    plain = run("augment", False, tmp_path)
    traced = run("augment", True, tmp_path)
    assert traced["result"].problems == [] and traced["absent"] == []
    assert traced["result"].digest == plain["result"].digest
    assert {m: u for m, (_, u) in traced["metrics"].items()} == PER_LAYER
    assert traced["metrics"]["augment.constrained_s"][0] > 0
    assert traced["metrics"]["bvh.tree_builds"][0] > 0
    assert traced["metrics"]["synthetic.generate_s"][0] > 0
    # wrappers are gone again
    assert not hasattr(augment.detect_collisions, "__wrapped__")


def test_cli_chain_traced_matches_subprocess_outputs(tmp_path):
    out = run("cli", True, tmp_path)
    result = out["result"]
    assert result.problems == [] and result.failed == 0 and result.attempted == 1
    values = {m: v for m, (v, _) in out["metrics"].items()}
    assert values["cli.forward_s"] > 0 and values["case.load_case_s"] > 0
    assert values["cli.start_s"] > 0


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(augment, "jaw_regularize")
    trace = bench_trace.LayerTrace()
    trace.install()
    trace.uninstall()
    assert trace.absent == ["augment.regularize_s"]
    assert trace.summary()["augment.regularize_s"] == 0.0


@pytest.fixture(scope="module")
def augmented():
    case = synthetic.generate_synthetic_case(synthetic.SynthParams(teeth_per_jaw=8), 4, "c")
    out, _ = augment.constrained_augment_case_report(case, 4)
    return chk.jaws_of_case(case), chk.jaws_of_case(out)


def test_checks_accept_a_correct_augmentation(augmented):
    before, after = augmented
    assert chk.check_constrained(before, after) == []


def test_checks_catch_a_colliding_jaw(augmented):
    before, after = augmented
    crowns = list(after["upper"])
    a, b = crowns[2], crowns[3]
    shift = b.points.mean(axis=0) - a.points.mean(axis=0)
    crowns[3] = chk.Crown(b.id, b.points - 0.9 * shift, b.gt_points, b.radius)
    problems = chk.check_constrained(before, {**after, "upper": crowns})
    assert any("collide" in p for p in problems)


def test_checks_catch_a_non_rigid_tooth(augmented):
    before, after = augmented
    crowns = list(after["lower"])
    c = crowns[0]
    crowns[0] = chk.Crown(c.id, c.points * 1.001, c.gt_points, c.radius)
    problems = chk.check_rigid(after, {**after, "lower": crowns}, "x")
    assert any("not rigid" in p for p in problems)


def test_checks_catch_changed_targets_and_far_teeth(augmented):
    before, after = augmented
    crowns = list(after["upper"])
    c = crowns[1]
    crowns[1] = chk.Crown(c.id, c.points, c.gt_points + 1e-12, c.radius)
    assert any("gt_points changed" in p for p in chk.check_constrained(before, {**after, "upper": crowns}))
    crowns[1] = chk.Crown(c.id, c.points + np.array([0.0, 0.0, 5.0]), c.gt_points, c.radius)
    assert any("off the target arch" in p for p in chk.check_constrained(before, {**after, "upper": crowns}))


def test_checks_catch_a_non_unit_quaternion():
    payload = {"transforms": {"3": {"rotation": [1.0, 0.0, 0.0, 0.0]}, "4": {"rotation": [0.9, 0.1, 0.0, 0.0]}}}
    problems = chk.check_unit_quaternions(payload)
    assert len(problems) == 1 and "tooth 4" in problems[0]


def test_auc_from_the_empirical_cdf():
    jaw = {"upper": [chk.Crown(1, np.zeros((4, 3)), None, 0.25)], "lower": []}
    moved = {"upper": [chk.Crown(1, np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [9, 0, 0]], float), None, 0.25)], "lower": []}
    add, area = chk.add_and_auc(moved, jaw, k=5.0)
    assert add == pytest.approx(3.0)
    assert area == pytest.approx(np.clip(5.0 - np.array([0, 1, 2, 9]), 0, 5).mean() / 5.0)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "augment", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
