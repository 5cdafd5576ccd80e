"""tools/bench_compare.py: the parent checkout, the alternation of
bench/run.py runs, the verdicts and the outputs lines; the BENCH files it
records are checked in test_bench_record.py. ``run_bench`` is replaced by
canned runs, except in the SIGTERM test; bench/test_bench_smoke.py runs
the workloads themselves."""

import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORDER = [(w, t) for w in ("augment", "align", "cli") for t in (0, 1)]

# untraced case_s_p50 per round: the change is faster in every pair;
# setup_s of the parent spreads far past its 25 % bound
CANNED = {
    "parent": {"case_s_p50": [0.40, 0.41, 0.39, 0.42], "setup_s": [0.10, 0.20, 0.12, 0.11]},
    "change": {"case_s_p50": [0.33, 0.34, 0.32, 0.35], "setup_s": [0.10, 0.11, 0.12, 0.10]},
}


STALE = '{"runs": [{"stale": true}]}'


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _head():
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def tool(monkeypatch, tmp_path):
    module = _load_tool()
    calls = []
    tree = tmp_path / "parent_tree"

    @contextlib.contextmanager
    def fake_checkout(sha):
        tree.mkdir()
        calls.append(("checkout", sha))
        try:
            yield tree
        finally:
            tree.rmdir()

    def fake_run_bench(checkout, workload, trace):
        # the files at --out-dir are written once, after the last run
        assert (tmp_path / "BENCH_parent.json").read_text() == STALE
        label = "parent" if checkout == tree else "change"
        k = calls.count((label, workload, trace))
        calls.append((label, workload, trace))
        metrics = (
            {"swin.window_attention_s": {"value": float(k)}}
            if trace
            else {m: {"value": v[k]} for m, v in CANNED[label].items()}
        )
        run = {"workload": workload, "trace": trace, "samples": 4, "outputs_sha256": workload}
        return {"run": run, "result": {"metrics": metrics}}

    monkeypatch.setattr(module, "parent_checkout", fake_checkout)
    monkeypatch.setattr(module, "run_bench", fake_run_bench)
    module.calls, module.tree = calls, tree
    return module


def test_bench_compare_alternates_and_prints_one_verdict_per_metric(tool, tmp_path, capsys):
    (tmp_path / "BENCH_parent.json").write_text(STALE)
    assert tool.main(["--parent", "HEAD", "--pairs", "4", "--out-dir", str(tmp_path)]) == 0
    rounds = ["parent", "change", "change", "parent"] * 2
    assert tool.calls == [("checkout", _head())] + [(label, w, t) for label in rounds for w, t in ORDER]
    assert not tool.tree.exists()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9  # three workloads, two end-to-end metrics, one outputs line each
    assert lines[2] == (
        "align case_s_p50: parent 0.405 [0.3975, 0.4125] change 0.335 [0.3275, 0.3425] -17.3%, "
        "better in 4/4: better (median moved past the parent IQR)"
    )
    assert lines[3].startswith("align setup_s: ") and lines[3].endswith(
        "better in 2/4: unresolved (parent spread 87% > bound 25%)"
    )
    assert lines[6:] == [
        "augment outputs: equal (over every run)",
        "align outputs: equal (over every run)",
        "cli outputs: equal (at 4 chains)",
    ]


def test_summary_and_outputs_of_the_committed_bench_files():
    tool = _load_tool()
    parent, change = (json.loads((ROOT / f"BENCH_{s}.json").read_text()) for s in ("parent", "change"))
    assert tool.summarize(parent["runs"]) == parent["summary"]
    assert tool.summarize(change["runs"]) == change["summary"]
    assert [line.split(" (")[0] for line in tool.output_lines(parent, change)] == [
        f"{w} outputs: equal" for w in ("augment", "align", "cli")
    ]


def _runs(workload, digests):
    return [{"run": {"workload": workload, "samples": n, "outputs_sha256": d}} for n, d in digests]


def test_outputs_line_compares_cli_runs_at_equal_chain_counts():
    tool = _load_tool()
    # the chain count changes the cli digest; 3 and 6 chains ran on one side only
    parent = {"runs": _runs("cli", [(3, "c3"), (4, "c4"), (5, "c5"), (4, "c4")]) + _runs("align", [(96, "a")])}
    change = {"runs": _runs("cli", [(4, "c4"), (5, "c5"), (6, "x"), (5, "c5")]) + _runs("align", [(108, "a")])}
    assert tool.output_lines(parent, change) == [
        "cli outputs: equal (at 4, 5 chains)",
        "align outputs: equal (over every run)",
    ]
    change["runs"][3]["run"]["outputs_sha256"] = "other"
    change["runs"][4]["run"]["outputs_sha256"] = "b"
    assert tool.output_lines(parent, change) == [
        "cli outputs: differ (at 4, 5 chains)",
        "align outputs: differ (over every run)",
    ]
    only_six = {"runs": _runs("cli", [(6, "c6")])}
    assert tool.output_lines({"runs": parent["runs"][:4]}, only_six) == ["cli outputs: differ (at no chain count of both sides)"]


@pytest.mark.parametrize(
    "parent, change, word",
    [
        ([1.0, 1.1, 0.9, 1.0], [0.8, 0.8, 0.85, 0.75], "better"),
        ([1.0, 1.1, 0.9, 1.0], [1.2, 1.3, 1.2, 1.25], "worse"),
        ([1.0, 1.1, 0.9, 1.0], [0.98, 1.0, 0.97, 1.02], "unresolved"),
        ([1.0, 1.5, 0.7, 1.0], [0.5, 0.5, 0.5, 0.5], "unresolved"),
    ],
)
def test_verdict_needs_a_move_past_the_parent_iqr_and_a_spread_within_the_bound(parent, change, word):
    v = _load_tool().verdict(parent, change, "lower", 0.25)
    assert v["verdict"] == word
    assert v["pairs"] == 4


def test_verdict_counts_wins_by_direction():
    tool = _load_tool()
    assert tool.verdict([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "higher", 10.0)["wins"] == 2
    assert tool.verdict([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "lower", 10.0)["wins"] == 1


def test_verdict_needs_three_runs_on_each_side():
    tool = _load_tool()
    for parent, change in (([1.0, 1.0], [0.5] * 10), ([1.0] * 10, [0.5, 0.5])):
        v = tool.verdict(parent, change, "lower", 0.25)
        assert (v["verdict"], v["why"]) == ("unresolved", "too few runs for an interquartile range")
    assert tool.verdict([1.0] * 3, [0.5] * 3, "lower", 0.25)["verdict"] == "better"


def test_one_pair_reads_unresolved_on_every_metric(tool, tmp_path, capsys):
    # one run per side has an interquartile range of 0, past which any move would go
    (tmp_path / "BENCH_parent.json").write_text(STALE)
    assert tool.main(["--parent", "HEAD", "--pairs", "1", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == (
        "align case_s_p50: parent 0.4 [0.4, 0.4] change 0.33 [0.33, 0.33] -17.5%, "
        "better in 1/1: unresolved (too few runs for an interquartile range)"
    )
    assert len(lines) == 9
    assert all(line.endswith(": unresolved (too few runs for an interquartile range)") for line in lines[:6])
    assert lines[6:] == [f"{w} outputs: equal ({what})" for w, what in (
        ("augment", "over every run"), ("align", "over every run"), ("cli", "at 4 chains"))]


def test_bench_compare_removes_the_checkout_when_a_run_fails(tool, tmp_path, monkeypatch, capsys):
    def failing(checkout, workload, trace):
        raise RuntimeError(f"bench/run.py --workload {workload} --trace {trace} in {checkout} exited 1: boom")

    monkeypatch.setattr(tool, "run_bench", failing)
    (tmp_path / "BENCH_parent.json").write_text(STALE)
    assert tool.main(["--parent", "HEAD", "--pairs", "2", "--out-dir", str(tmp_path)]) == 1
    assert "--workload augment --trace 0 in " in capsys.readouterr().err
    assert not tool.tree.exists()


def test_parent_checkout_is_a_clone_at_the_revision_and_is_removed():
    tool = _load_tool()
    head = _head()
    with tool.parent_checkout(head) as tree:
        assert tool._git("rev-parse", "HEAD", cwd=tree) == head
        assert (tree / "src" / "toothalign" / "swin.py").is_file()
    assert not tree.exists()


def test_bench_compare_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        _load_tool().main(["--parent", "HEAD", "--pairs", "0"])
    assert exc.value.code == 2 and "--pairs" in capsys.readouterr().err


# stands in for bench/run.py: starts a child that outlives it unless its
# process group is ended, writes both pids into its checkout, then waits
FAKE_RUN = """
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
open("pids.tmp", "w").write(f"{child.pid} {os.getpid()}")
os.replace("pids.tmp", "pids")
time.sleep(120)
"""


def _running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().split(") ")[1][0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


def test_sigterm_removes_the_clone_and_ends_the_recorder(tmp_path):
    # a one-commit repository whose bench/run.py is FAKE_RUN; the real
    # parent_checkout and run_bench run against it
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    (repo / "bench").mkdir(parents=True)
    tmp.mkdir()
    (repo / "bench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(["git", "init", "--quiet", str(repo)], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "--quiet", "-m", "seed"], check=True)
    runner = (
        "import importlib.util, sys; from pathlib import Path\n"
        f"spec = importlib.util.spec_from_file_location('bench_compare', {str(ROOT / 'tools' / 'bench_compare.py')!r})\n"
        "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool)\n"
        f"tool.ROOT = Path({str(repo)!r})\n"
        f"sys.exit(tool.main(['--parent', 'HEAD', '--pairs', '1', '--out-dir', {str(tmp_path / 'out')!r}]))\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", runner], env={**os.environ, "TMPDIR": str(tmp)})
    try:
        deadline = time.monotonic() + 60
        while not list(tmp.glob("bench_parent_*/tree/pids")) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        (pids,) = tmp.glob("bench_parent_*/tree/pids")
        child, run = map(int, pids.read_text().split())
        assert _running(child) and _running(run)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp.iterdir()) == []
    deadline = time.monotonic() + 10
    while (_running(child) or _running(run)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child) and not _running(run)
    assert not (tmp_path / "out").exists()
