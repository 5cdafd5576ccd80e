"""The three workloads and the closed-loop runner that times them.

A workload is a set-up (timed, repeated) plus rounds of operations.
The runner calls one operation at a time, in whole rounds, until the
run has lasted ``seconds`` and holds at least the workload's minimum
number of operations. On the in-process workloads every round repeats
the same operations, and one untimed warm-up call of the first one
comes first; on ``cli`` every round is one chain with a seed of its own.

The first time an operation runs, its output goes through the
independent checks of ``bench_checks``; later rounds must reproduce
the first round's output digest exactly. A run also compares the
warm-up (never traced) with the first timed call, so a traced run
proves that tracing left outputs unchanged.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from toothalign import augment, cli, losses, metrics, swin, synthetic

import bench_checks as chk
from bench_trace import SUBCOMMANDS, LayerTrace, cli_metric, unit_of

TEETH_PER_JAW = (8, 9, 10)  # every count the default arch fits for every seed
CONTACT_SCALE = 1.2  # lower-jaw xy spread that brings crowns into occlusal contact
CLI_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


@dataclass(frozen=True)
class Spec:
    corpus: int  # generated cases (in-process workloads)
    variants: int  # operations per case and round, each with its own seed
    tail_pct: float | None  # None: the tail is the slowest operation
    min_ops: int = 1  # fewest timed operations in a run
    setup_repeats: int = 3

    @classmethod
    def with_tail(cls, corpus: int, variants: int, tail_pct: float) -> "Spec":
        """A run holds enough samples to leave TAIL_BEYOND above tail_pct."""
        return cls(corpus, variants, tail_pct, math.ceil(TAIL_BEYOND / (1.0 - tail_pct / 100.0)))


SPECS = {
    "augment": Spec.with_tail(corpus=16, variants=2, tail_pct=85.0),  # at least 67 samples
    "align": Spec.with_tail(corpus=6, variants=1, tail_pct=65.0),  # at least 29 samples
    "cli": Spec(corpus=0, variants=1, tail_pct=None, min_ops=3),  # 3 chains unless one takes < 1/3 of a run
}
SMOKE = Spec(corpus=2, variants=1, tail_pct=None, setup_repeats=1)


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], list[str]]


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    digest: str = ""

    def metrics(self, spec: Spec, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        times = np.array(self.op_s)
        if spec.tail_pct is None:
            tail = float(times.max())
        else:
            tail = float(np.percentile(times, spec.tail_pct))
        return {
            "cases_per_s": (len(times) / float(times.sum()), "cases/s"),
            "case_s_p50": (float(np.median(times)), "s"),
            "case_s_tail": (tail, "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def case_digest(case) -> str:
    return sha(*[t.points for t in case.present_teeth()])


def json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def case_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ runner


def measure(
    warm_up: Op | None,
    rounds: Callable[[int], list[Op]],
    seconds: float,
    spec: Spec,
    trace: LayerTrace | None,
    result: RunResult,
) -> None:
    """Times whole rounds of operations; ``rounds(r)`` gives round r."""
    warm_digest = warm_up.digest(warm_up.run()) if warm_up is not None else None
    first: dict[str, str] = {}
    if trace is not None:
        trace.discard_record()
        trace.install()
    start = time.perf_counter()
    try:
        r = 0
        while r == 0 or time.perf_counter() - start < seconds or result.attempted < spec.min_ops:
            for op in rounds(r):
                _run_one(op, trace, first, result)
            r += 1
    finally:
        if trace is not None:
            trace.uninstall()
    if warm_up is not None and first.get(warm_up.key, warm_digest) != warm_digest:
        result.problems.append("first timed output differs from the untraced warm-up")
    result.digest = sha(*[d.encode() for d in first.values()])


def _run_one(op: Op, trace: LayerTrace | None, first: dict, result: RunResult) -> None:
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, the loop goes on
        result.failed += 1
        log(f"{op.key}: {type(exc).__name__}: {exc}")
        if trace is not None:
            trace.discard_record()
        return
    elapsed = time.perf_counter() - t0
    if trace is not None:
        trace.close_record()
    try:
        digest = op.digest(out)
        if op.key not in first:
            first[op.key] = digest
            problems = op.check(out)
        elif digest != first[op.key]:
            problems = ["output differs from its first round"]
        else:
            problems = []
    except Exception as exc:  # a malformed output fails its check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        result.failed += 1
        result.problems.extend(f"{op.key}: {p}" for p in problems)
        return
    result.op_s.append(elapsed)


def timed_setup(build: Callable[[], object], spec: Spec, trace: LayerTrace | None, result: RunResult):
    """Runs ``build`` ``spec.setup_repeats`` times; every repeat must give
    the same digest. Returns the last build."""
    if trace is not None:
        trace.install()
    digests = set()
    try:
        for _ in range(spec.setup_repeats):
            state = None  # each repeat starts without the previous corpus
            gc.collect()
            t0 = time.perf_counter()
            state, digest = build()
            result.setup_s.append(time.perf_counter() - t0)
            digests.add(digest)
    finally:
        if trace is not None:
            trace.uninstall()
    if len(digests) != 1:
        result.problems.append("set-up is not reproducible")
    return state


# ---------------------------------------------------------- in-process


def generate(seed: int, size: int, trace: LayerTrace | None) -> list:
    cases = []
    for k in range(size):
        params = synthetic.SynthParams(teeth_per_jaw=TEETH_PER_JAW[k % len(TEETH_PER_JAW)])
        cases.append(synthetic.generate_synthetic_case(params, case_seed(seed, k), f"bench{seed}-{k:03d}"))
        if trace is not None:
            trace.close_record(setup=True)
    return cases


def augment_workload(seed: int, seconds: float, spec: Spec, trace: LayerTrace | None) -> RunResult:
    result = RunResult()

    def build():
        cases = generate(seed, spec.corpus, trace)
        return cases, sha(*[case_digest(c).encode() for c in cases])

    cases = timed_setup(build, spec, trace, result)

    def make(k, case, variant):
        aug_seed = case_seed(seed, k) * 10 + variant

        def run():
            out, report = augment.constrained_augment_case_report(case, aug_seed)
            if trace is not None:
                trace.add("augment.collision_iterations", sum(report["collision_iterations"].values()))
            return out, report, augment.ordinary_augment(case, aug_seed)

        def digest(res):
            out, report, ordinary = res
            return sha(case_digest(out).encode(), json_bytes(report), case_digest(ordinary).encode())

        def check(res):
            out, report, ordinary = res
            before = chk.jaws_of_case(case)
            problems = chk.check_constrained(before, chk.jaws_of_case(out))
            problems += chk.check_rigid(before, chk.jaws_of_case(ordinary), "ordinary", static_fixed=False)
            if not report["satisfied"]:
                problems.append("the program's own report is not satisfied")
            return problems

        return Op(f"{case.id}/{variant}", run, digest, check)

    ops = [make(k, c, v) for k, c in enumerate(cases) for v in range(spec.variants)]
    measure(ops[0], lambda r: ops, seconds, spec, trace, result)
    return result


def bring_into_contact(case) -> None:
    """Spreads the lower jaw in the occlusal plane, tooth by tooth, so its
    crowns overlap the upper crowns in projection. Each lower tooth (points
    and gt_points alike) is translated by (CONTACT_SCALE - 1) times the xy
    of its target centroid; no crown changes shape."""
    for tooth in case.lower.present_teeth():
        cx, cy, _ = tooth.gt_points.mean(axis=0)
        offset = (CONTACT_SCALE - 1.0) * np.array([cx, cy, 0.0])
        tooth.points = tooth.points + offset
        tooth.gt_points = tooth.gt_points + offset


def target_of(case):
    out = case.copy()
    for tooth in out.present_teeth():
        tooth.points = tooth.gt_points.copy()
    return out


def align_workload(seed: int, seconds: float, spec: Spec, trace: LayerTrace | None) -> RunResult:
    result = RunResult()

    def build():
        cases = generate(seed, spec.corpus, trace)
        for case in cases:
            bring_into_contact(case)
        weights = swin.init_weights(case_seed(seed, 999))
        digest = sha(*[case_digest(c).encode() for c in cases], weights["head"]["w2"])
        return (cases, weights), digest

    cases, weights = timed_setup(build, spec, trace, result)

    def make(k, case):
        target = target_of(case)

        def run():
            pred = swin.predict_case(case, weights, seed=case_seed(seed, k))
            breakdown = losses.total_loss(pred, target)
            report, curve = metrics.evaluate_cases([(pred, target)])
            return pred, breakdown.to_dict(), report, curve.to_dict()

        def digest(res):
            pred, breakdown, report, curve = res
            return sha(case_digest(pred).encode(), json_bytes([breakdown, report, curve]))

        def check(res):
            pred, breakdown, report, _ = res
            return chk.check_align(
                chk.jaws_of_case(case), chk.jaws_of_case(pred), chk.jaws_of_case(target), breakdown, report
            )

        return Op(case.id, run, digest, check)

    ops = [make(k, c) for k, c in enumerate(cases)]
    measure(ops[0], lambda r: ops, seconds, spec, trace, result)
    return result


# ------------------------------------------------------------------ cli


def chain_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The nine-subcommand chain, run inside one chain directory."""
    case = f"cases/synth{seed}-000.case.json"
    return [
        ("gen", ["gen", "--seed", str(seed), "--teeth", "10", "--cases", "1", "-o", "cases"]),
        ("sample", ["sample", "--in", case, "-n", "64", "-o", "small.case.json"]),
        ("serialize", ["serialize", "--in", case]),
        ("arch export", ["arch", "export", "--in", case]),
        ("augment", ["augment", "--seed", str(seed), "--in", case, "-o", "aug.case.json"]),
        ("loss", ["loss", "--pred", "aug.case.json", "--gt", case, "--test-mode"]),
        ("forward", ["forward", "--seed", str(seed), "--in", case]),
        ("eval", ["eval", "--pred-dir", "cases", "--gt-dir", "cases"]),
        ("iterate", ["iterate", "--seed", str(seed), "--in", "aug.case.json", "--gt", case, "-n", "1"]),
    ]


class CliRunner:
    """Spawns ``python -m toothalign`` with an absolute PYTHONPATH and
    BLAS pinned to one thread."""

    def __init__(self, src: Path):
        inherited = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + inherited if inherited else "")}

    def call(self, args: list[str], cwd: Path) -> tuple[float, bytes]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "toothalign", *args],
            cwd=cwd,
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        return elapsed, proc.stdout


def _in_process(argv: list[str], cwd: Path) -> bytes:
    """cli.main(argv) in this process, stdout captured."""
    buf = io.StringIO()
    logger = logging.getLogger("toothalign")
    here, propagate = Path.cwd(), logger.propagate
    logger.propagate = False  # its INFO lines go nowhere
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(here)
        logger.propagate = propagate
    if code != 0:
        raise RuntimeError(f"in-process {' '.join(argv[:2])} exited {code}")
    return buf.getvalue().encode()


def _chain_outputs(chain_dir: Path, stdouts: list[bytes]) -> str:
    files = sorted(p for p in chain_dir.rglob("*") if p.is_file())
    return sha(*stdouts, *[p.relative_to(chain_dir).as_posix().encode() + p.read_bytes() for p in files])


def cli_workload(
    seed: int, seconds: float, spec: Spec, trace: LayerTrace | None, src: Path, work: Path
) -> RunResult:
    result = RunResult()
    runner = CliRunner(src)
    schema_dir = src / "toothalign" / "schemas"

    def build():
        _, out = runner.call(["--help"], work)
        return None, sha(out)

    # each repeat is one interpreter start and import, which every CLI
    # call pays; an untimed first call warms the page cache
    build()
    timed_setup(build, spec, None, result)
    start_s = statistics.median(result.setup_s)

    def make(k):
        chain_seed = case_seed(seed, k)
        chain_dir = work / f"chain{k:04d}"

        def run():
            shutil.rmtree(chain_dir, ignore_errors=True)
            chain_dir.mkdir(parents=True)
            stdouts = []
            if trace is not None:
                trace.add("cli.start_s", start_s)
            for name, args in chain_commands(chain_seed):
                elapsed, out = runner.call(args, chain_dir)
                stdouts.append(out)
                if trace is not None:
                    trace.add(cli_metric(name), elapsed)
                    if name == "augment":
                        trace.add("augment.collision_iterations", sum(json.loads(out)["collision_iterations"].values()))
            outputs = _chain_outputs(chain_dir, stdouts)
            if trace is not None and outputs != _traced_chain(chain_seed, chain_dir):
                raise RuntimeError("traced in-process chain output differs from the subprocess chain")
            return stdouts, outputs

        def digest(res):
            return res[1]

        def check(res):
            problems = check_chain(chain_dir, res[0], schema_dir)
            shutil.rmtree(chain_dir, ignore_errors=True)
            return problems

        return Op(f"chain{chain_seed}", run, digest, check)

    # a round is one chain with a seed of its own; the untimed --help
    # call of the set-up is the warm-up
    measure(None, lambda r: [make(r)], seconds, spec, trace, result)
    return result


def _traced_chain(chain_seed: int, chain_dir: Path) -> str:
    """Reruns the chain in this process, under the installed wrappers, in
    the emptied chain directory; returns the digest of its outputs."""
    shutil.rmtree(chain_dir)
    chain_dir.mkdir()
    stdouts = [_in_process(args, chain_dir) for _, args in chain_commands(chain_seed)]
    return _chain_outputs(chain_dir, stdouts)


def check_chain(chain_dir: Path, stdouts: list[bytes], schema_dir: Path) -> list[str]:
    problems = []
    payloads = {}
    for name, out in zip(SUBCOMMANDS, stdouts):
        payloads[name] = json.loads(out)
        problems += chk.check_schema(name, payloads[name], schema_dir)
    case_path = chain_dir / payloads["gen"]["written"][0]
    case = chk.jaws_of_doc(chk.load_doc(case_path))
    problems += chk.check_sampled(chk.jaws_of_doc(chk.load_doc(chain_dir / "small.case.json")), case, 64)
    problems += chk.check_serialized(payloads["serialize"], case)
    problems += chk.check_constrained(case, chk.jaws_of_doc(chk.load_doc(chain_dir / "aug.case.json")))
    problems += chk.check_unit_quaternions(payloads["forward"])
    problems += chk.check_self_eval(payloads["eval"])
    return problems


# ---------------------------------------------------------------- entry


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, src: Path, work: Path) -> dict:
    spec = SMOKE if smoke else SPECS[name]
    if smoke:
        seconds = 0.0  # one round
    trace = LayerTrace() if traced else None
    if name == "cli":
        result = cli_workload(seed, seconds, spec, trace, src, work)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        run = augment_workload if name == "augment" else align_workload
        result = run(seed, seconds, spec, trace)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for p in result.problems:
        log(f"check failed: {p}")
    if trace is not None:
        values = {m: (v, unit_of(m)) for m, v in trace.summary().items()}
    elif result.op_s:
        values = result.metrics(spec, peak_kb / 1024.0)
    else:
        values = None  # no operation succeeded: nothing was measured
    return {
        "result": result,
        "absent": trace.absent if trace is not None else [],
        "metrics": values,
    }

