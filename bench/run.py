"""Benchmark entry point: one workload per call, one JSON result line.

    python3 bench/run.py --workload augment --seed 1 --seconds 25 --trace 0

Run from the repository root of a plain checkout; the program is
imported from ``src/`` and nothing is installed. With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the run (output digest, sample count,
absent layers). ``--smoke`` runs two operations on a two-case corpus, for
tests. The exit code is 0 when the run completed, whatever it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["augment", "align", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="two operations, for tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toothalign" / "__init__.py").is_file():
        print(f"error: no toothalign sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread here and, through the environment, in every child
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench_workloads  # imports numpy and toothalign: after the pinning

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        out = bench_workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, SRC, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    result = out["result"]
    if out["metrics"] is None:
        print("error: every operation failed; see the messages above", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "outputs_sha256": result.digest,
                "samples": len(result.op_s),
                "absent": out["absent"],
                "problems": result.problems[:20],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
