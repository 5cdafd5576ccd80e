"""The BENCH files that tools/bench_compare.py records: labels, revision,
machine record, run order and summary, written once after the last run
and not at all when a run fails. The canned runs and the ``tool``
fixture are those of test_bench_compare.py."""

import json
import re

import pytest

from test_bench_compare import ORDER, STALE, _head, tool  # noqa: F401  (tool is a fixture)


def test_bench_record_writes_every_run_in_order(tool, tmp_path):
    (tmp_path / "BENCH_parent.json").write_text(STALE)
    assert tool.main(["--parent", "HEAD", "--pairs", "4", "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_change.json", "BENCH_parent.json"]
    parent, change = (json.loads((tmp_path / f"BENCH_{s}.json").read_text()) for s in ("parent", "change"))
    assert set(parent) == {"label", "git_head", "git_modified", "machine", "runs", "summary"}
    assert (parent["label"], parent["git_head"], parent["git_modified"]) == ("parent", _head(), [])
    assert change["label"] == "change" and re.fullmatch(r"[0-9a-f]{40}", change["git_head"])
    assert isinstance(change["git_modified"], list) and change["machine"] == parent["machine"]
    machine = parent["machine"]
    assert set(machine) >= {"nproc", "python", "numpy", "scipy", "blas", "blas_threads_set_by_bench_run"}
    assert machine["nproc"] >= 1 and machine["blas_threads_set_by_bench_run"] == 1
    for bench in (parent, change):
        assert [(r["run"]["workload"], r["run"]["trace"]) for r in bench["runs"]] == ORDER * 4
    assert parent["summary"]["align"] == {
        "case_s_p50": {"n": 4, "q1_median_q3": pytest.approx([0.3975, 0.405, 0.4125])},
        "setup_s": {"n": 4, "q1_median_q3": pytest.approx([0.1075, 0.115, 0.14])},
        "per_layer": {"swin.window_attention_s": {"n": 4, "median": 1.5}},
    }


def test_bench_record_writes_nothing_when_a_run_fails(tool, tmp_path, monkeypatch, capsys):
    def failing(checkout, workload, trace):
        raise RuntimeError(f"bench/run.py --workload {workload} --trace {trace} in {checkout} exited 1: boom")

    monkeypatch.setattr(tool, "run_bench", failing)
    (tmp_path / "BENCH_parent.json").write_text(STALE)
    assert tool.main(["--parent", "HEAD", "--pairs", "2", "--out-dir", str(tmp_path)]) == 1
    assert "exited 1: boom" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_parent.json"]
    assert (tmp_path / "BENCH_parent.json").read_text() == STALE
