"""Record benchmark runs in BENCH_<label>.json.

    python3 tools/bench_record.py --label base

Runs ``bench/run.py`` of this checkout, with its own seed and run length,
once per workload with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), and writes both JSON result lines of
every run, the machine record and the git revision into one file at the
repository root (or ``--out-dir``). Run again with the same label, it
adds its runs to that file, so calls alternated between a parent and a
change checkout build up a before/after pair from interleaved runs; it
refuses a file recorded at another revision or on another machine. The
file's ``summary`` holds, per workload and end-to-end metric, the first
quartile, median and third quartile over every untraced run, and per
per-layer metric the median over every traced run. ``--smoke``
passes ``--smoke`` on to every run, for tests. The exit code is 0 when
every run completed and the file was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("augment", "align", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("--smoke", action="store_true", help="two operations per run, for tests")
    args = p.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        p.error("--label may hold only letters, digits, '-' and '_'")
    return args


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


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


def run_bench(workload: str, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = proc.stderr.strip()[-500:]
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {tail}")
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


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        head = _git("rev-parse", "HEAD")
        modified = _git("status", "--porcelain", "--untracked-files=no").splitlines()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot read the git revision: {exc}", file=sys.stderr)
        return 1
    record = {
        "label": args.label,
        "git_head": head,
        "git_modified": modified,
        "machine": machine_record(),
        "smoke": args.smoke,
        "runs": [],
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    if path.exists():
        old = json.loads(path.read_text())
        for key in ("git_head", "git_modified", "machine", "smoke"):
            if old.get(key) != record[key]:
                print(f"error: {path} differs in {key}; remove it or choose another label",
                      file=sys.stderr)
                return 1
        record["runs"] = old["runs"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"bench_record: {workload} --trace {trace}", file=sys.stderr, flush=True)
            try:
                record["runs"].append(run_bench(workload, trace, args.smoke))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    record["summary"] = summarize(record["runs"])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
