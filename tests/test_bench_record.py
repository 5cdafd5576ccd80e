"""tools/bench_record.py assembles BENCH files: labels, revision, machine
record, run order, appending and the summary. ``run_bench`` is replaced by
canned results; bench/test_bench_smoke.py runs the workloads themselves."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORDER = [(w, t) for w in ("augment", "align", "cli") for t in (0, 1)]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    module = _load_tool()
    calls = []

    def fake_run_bench(workload, trace, smoke):
        calls.append((workload, trace, smoke))
        value = float(len(calls))
        metrics = {"swin.window_attention_s": {"unit": "s", "value": value}} if trace else {
            "case_s_p50": {"unit": "s", "value": value},
            "peak_rss_mb": {"unit": "MB", "value": 100.0},
        }
        return {
            "run": {"workload": workload, "trace": trace, "absent": []},
            "result": {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics},
        }

    monkeypatch.setattr(module, "run_bench", fake_run_bench)
    module.calls = calls
    return module


def test_bench_record_writes_every_run_in_order(tool, tmp_path):
    assert tool.main(["--label", "smoke", "--smoke", "--out-dir", str(tmp_path)]) == 0
    assert tool.calls == [(w, t, True) for w, t in ORDER]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_smoke.json"]
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke" and record["smoke"] is True
    assert re.fullmatch(r"[0-9a-f]{40}", record["git_head"])
    assert isinstance(record["git_modified"], list)
    machine = record["machine"]
    assert set(machine) >= {"nproc", "python", "numpy", "scipy", "blas", "blas_threads_set_by_bench_run"}
    assert machine["nproc"] >= 1 and machine["blas_threads_set_by_bench_run"] == 1
    assert [(r["run"]["workload"], r["run"]["trace"]) for r in record["runs"]] == ORDER
    # untraced runs were calls 1, 3 and 5, traced runs calls 2, 4 and 6
    assert record["summary"] == {
        w: {
            "case_s_p50": {"n": 1, "q1_median_q3": [v, v, v]},
            "peak_rss_mb": {"n": 1, "q1_median_q3": [100.0] * 3},
            "per_layer": {"swin.window_attention_s": {"n": 1, "median": v + 1.0}},
        }
        for w, v in (("augment", 1.0), ("align", 3.0), ("cli", 5.0))
    }


def test_bench_record_appends_to_a_file_of_the_same_revision(tool, tmp_path):
    for _ in range(3):
        assert tool.main(["--label", "x", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [(r["run"]["workload"], r["run"]["trace"]) for r in record["runs"]] == ORDER * 3
    # align ran untraced as calls 3, 9 and 15, traced as calls 4, 10 and 16
    assert record["summary"]["align"]["case_s_p50"] == {"n": 3, "q1_median_q3": [6.0, 9.0, 12.0]}
    assert record["summary"]["align"]["per_layer"] == {"swin.window_attention_s": {"n": 3, "median": 10.0}}


@pytest.mark.parametrize("key, value", [("git_head", "0" * 40), ("machine", {"nproc": 0}), ("smoke", True)])
def test_bench_record_refuses_a_file_it_cannot_extend(tool, tmp_path, capsys, key, value):
    assert tool.main(["--label", "x", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_x.json"
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))
    before = path.read_text()
    assert tool.main(["--label", "x", "--out-dir", str(tmp_path)]) == 1
    assert f"differs in {key}" in capsys.readouterr().err
    assert path.read_text() == before and len(tool.calls) == 6


def test_bench_record_writes_nothing_when_a_run_fails(tool, tmp_path, monkeypatch, capsys):
    def failing(workload, trace, smoke):
        raise RuntimeError(f"bench/run.py --workload {workload} exited 1: boom")

    monkeypatch.setattr(tool, "run_bench", failing)
    assert tool.main(["--label", "x", "--out-dir", str(tmp_path)]) == 1
    assert "exited 1: boom" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bench_record_rejects_a_path_as_label(tool, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--label", "../x", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2 and "--label" in capsys.readouterr().err
    assert not any(tmp_path.iterdir()) and tool.calls == []
