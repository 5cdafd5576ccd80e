"""Compare the benchmark of a parent revision with this checkout.

    python3 tools/bench_compare.py --parent HEAD~1 --pairs 10

Checks ``--parent`` out into a temporary local clone (no network), then
runs ``bench/run.py`` alternately in that clone and in this checkout,
``--pairs`` rounds per side, the parent first in even pairs and the
change first in odd ones. A round runs every workload once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), each run in its own process group. When every run
completed it writes ``BENCH_parent.json`` and ``BENCH_change.json`` (at
the repository root, or ``--out-dir``): the side's git revision, the
machine record, both JSON result lines of every run and a ``summary``
that holds, per workload and end-to-end metric, the first quartile,
median and third quartile over the untraced runs, and per per-layer
metric the median over the traced runs. The clone is removed
afterwards, also when a run fails or the tool is stopped by SIGTERM or
Ctrl-C, and a stopped tool ends the run it was waiting for together
with every process that run started.

Then it prints one verdict line per workload and end-to-end metric of
``BENCHMARK.json``: the median and quartiles of each side, the change
of the median, and in how many of the pairs the change was better (the
i-th untraced run of one side against the i-th of the other). A metric
reads ``better`` or ``worse`` only when its median moved by more than
the parent's interquartile range, and ``unresolved`` otherwise, when
either side has fewer than 3 runs (too few for an interquartile
range), or when the parent's runs spread (max - min, over the median)
past the metric's bound. Then comes one line per workload and
per-layer metric whose traced median moved past the parent's
interquartile range, in the same form; per-layer metrics have no bound,
so no spread test applies. Last comes one ``outputs`` line per workload,
``equal`` when every run of both sides gave one output digest. The ``cli``
digest covers every chain a run fitted, so its runs are compared only
at chain counts that both sides ran. The exit code is 0 when every run
completed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
# one round: every workload untraced (end-to-end metrics), then traced (per-layer)
ROUND = [(workload, trace) for workload in ("augment", "align", "cli") for trace in (0, 1)]
MIN_RUNS = 3  # fewer runs per side give no interquartile range to judge a move by


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="rounds of every workload per side")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _git(*args: str, cwd: Path | None = None) -> str:
    out = subprocess.run(["git", *args], cwd=cwd or ROOT, capture_output=True, text=True, check=True)
    return out.stdout.rstrip("\n")  # porcelain lines may start with a space


def machine_record() -> dict:
    """The machine, interpreter and libraries the runs used."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # bench/run.py sets every BLAS thread variable to 1 for itself and its children
        "blas_threads_set_by_bench_run": 1,
    }


@contextlib.contextmanager
def parent_checkout(sha: str):
    """A local clone of this repository at commit ``sha``, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="bench_parent_"))
    try:
        tree = tmp / "tree"
        _git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(tree))
        _git("checkout", "--quiet", "--detach", sha, cwd=tree)
        yield tree
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_bench(checkout: Path, workload: str, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its two result lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace)]
    # the run leads its own process group, so a stopped comparison also
    # ends the CLI chains it started
    proc = subprocess.Popen(
        cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {checkout} exited {proc.returncode}: {err.strip()[-500:]}")
    return {"run": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    """Per workload: the quartiles (q1, median, q3) of every end-to-end
    metric over the untraced runs, and under ``per_layer`` the median of
    every per-layer metric over the traced runs."""
    values: dict = {}
    for r in runs:
        pools = values.setdefault(r["run"]["workload"], ({}, {}))
        metrics = pools[r["run"]["trace"]]
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    summary = {}
    for workload, (end_to_end, per_layer) in values.items():
        entry = {
            name: {"n": len(v), "q1_median_q3": np.percentile(v, [25, 50, 75]).tolist()}
            for name, v in sorted(end_to_end.items())
        }
        if per_layer:
            entry["per_layer"] = {
                name: {"n": len(v), "median": float(np.median(v))} for name, v in sorted(per_layer.items())
            }
        summary[workload] = entry
    return summary


def run_values(bench: dict, workload: str, metric: str, trace: int = 0) -> list[float]:
    """The metric's values over the untraced (or traced) runs of a workload, in run order."""
    return [
        r["result"]["metrics"][metric]["value"]
        for r in bench["runs"]
        if r["run"]["workload"] == workload and r["run"]["trace"] == trace and metric in r["result"]["metrics"]
    ]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Quartiles of both sides, pair wins and the verdict of one metric."""
    pq = np.percentile(parent, [25, 50, 75])
    cq = np.percentile(change, [25, 50, 75])
    sign = -1.0 if better == "lower" else 1.0
    pairs = min(len(parent), len(change))
    wins = sum(sign * (change[i] - parent[i]) > 0 for i in range(pairs))
    move = cq[1] - pq[1]
    spread = (max(parent) - min(parent)) / abs(pq[1]) if pq[1] else float("inf")
    if min(len(parent), len(change)) < MIN_RUNS:
        word = "unresolved"
        why = "too few runs for an interquartile range"
    elif spread > bound:
        word = "unresolved"
        why = f"parent spread {spread:.0%} > bound {bound:.0%}"
    elif abs(move) > pq[2] - pq[0]:
        word = "better" if sign * move > 0 else "worse"
        why = "median moved past the parent IQR"
    else:
        word = "unresolved"
        why = "median moved within the parent IQR"
    return {
        "parent": pq.tolist(),
        "change": cq.tolist(),
        "move": move / pq[1] if pq[1] else float("nan"),
        "wins": wins,
        "pairs": pairs,
        "verdict": word,
        "why": why,
    }


def verdict_lines(parent: dict, change: dict, metrics: list[dict], trace: int = 0) -> list[str]:
    """One verdict line per workload and metric, over the untraced runs.
    Over the traced runs (per-layer metrics, which have no bound) only the
    metrics whose median moved past the parent's interquartile range."""
    lines = []
    workloads = dict.fromkeys(r["run"]["workload"] for r in parent["runs"])
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            p, c = run_values(parent, workload, name, trace), run_values(change, workload, name, trace)
            if not p or not c:
                continue
            v = verdict(p, c, metric["better"], metric.get("bound", float("inf")))
            if trace and v["verdict"] == "unresolved":
                continue
            (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
            lines.append(
                f"{workload} {name}{' (traced)' if trace else ''}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}] "
                f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {v['move']:+.1%}, "
                f"better in {v['wins']}/{v['pairs']}: {v['verdict']} ({v['why']})"
            )
    return lines


def output_lines(parent: dict, change: dict) -> list[str]:
    """One line per workload: ``equal`` when both sides gave one and the
    same output digest, on ``cli`` at every chain count both sides ran."""
    digests: dict = {}
    for side, bench in enumerate((parent, change)):
        for r in bench["runs"]:
            run = r["run"]
            key = run["samples"] if run["workload"] == "cli" else None
            digests.setdefault(run["workload"], {}).setdefault(key, (set(), set()))[side].add(run["outputs_sha256"])
    lines = []
    for workload, by_key in digests.items():
        both = sorted(k for k, (p, c) in by_key.items() if p and c)
        word = "equal" if both and all(len(by_key[k][0] | by_key[k][1]) == 1 for k in both) else "differ"
        if workload == "cli":
            what = f"at {', '.join(map(str, both))} chains" if both else "at no chain count of both sides"
        else:
            what = "over every run"
        lines.append(f"{workload} outputs: {word} ({what})")
    return lines


def _stop(signum, frame):
    # a default SIGTERM ends the process without running the finally
    # clauses that remove the clone and stop the run
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        return compare(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def compare(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_record()
    try:
        sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        benches = {
            # a fresh clone has no modified files
            "parent": {"git_head": sha, "git_modified": []},
            "change": {
                "git_head": _git("rev-parse", "HEAD"),
                "git_modified": _git("status", "--porcelain", "--untracked-files=no").splitlines(),
            },
        }
        for label, bench in benches.items():
            bench.update(label=label, machine=machine, runs=[])
        with parent_checkout(sha) as tree:
            sides = (("parent", tree), ("change", ROOT))
            for k in range(args.pairs):
                for label, checkout in sides[:: 1 if k % 2 == 0 else -1]:
                    for workload, trace in ROUND:
                        print(
                            f"bench_compare: pair {k + 1}/{args.pairs}, {label}, {workload} --trace {trace}",
                            file=sys.stderr,
                            flush=True,
                        )
                        benches[label]["runs"].append(run_bench(checkout, workload, trace))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for label, bench in benches.items():
            bench["summary"] = summarize(bench["runs"])
            (args.out_dir / f"BENCH_{label}.json").write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    except (OSError, subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parent, change = benches["parent"], benches["change"]
    layers = verdict_lines(parent, change, declared.get("per_layer", []), trace=1)
    for line in verdict_lines(parent, change, declared["end_to_end"]) + layers + output_lines(parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
