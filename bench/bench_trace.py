"""Per-layer timings and counts, taken from outside the program.

``LayerTrace.install`` replaces public functions of the toothalign
modules by timing wrappers. A function is patched under every name it
is looked up by: its own module attribute and each ``from .x import
name`` copy in another toothalign module, found by identity. Methods
are patched on their class. A function that no longer exists is
recorded as absent, and its metrics read 0.

Times are inclusive (a wrapped call inside another wrapped call counts
in both). Values are summed per record (one benchmark operation, or one
generated case during set-up), and the reported value of a metric is
the median over records.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# grid width entering each point-branch stage of the network
STAGE_OF_WIDTH = {512: 1, 256: 2, 128: 3, 64: 4}

SUBCOMMANDS = ["gen", "sample", "serialize", "arch export", "augment", "loss", "forward", "eval", "iterate"]


def cli_metric(name: str) -> str:
    return "cli." + name.replace(" ", "_") + "_s"


@dataclass(frozen=True)
class Probe:
    module: str  # toothalign submodule
    name: str  # attribute, or Class.method
    time_metric: str | None = None
    calls_metric: str | None = None
    count_metric: str | None = None
    count: Callable | None = None  # (args, result) -> amount added to count_metric


def _points_in_query(args, result) -> int:
    pts = args[1]  # args[0] is the ArchLine
    return 1 if getattr(pts, "ndim", 2) == 1 else len(pts)


def _flagged(args, result) -> int:
    return int(result.sum())


def _stage_metric(args) -> str | None:
    grid = args[0]
    if getattr(grid, "ndim", 0) == 3 and grid.shape[1] in STAGE_OF_WIDTH:
        return f"swin.swtp_stage{STAGE_OF_WIDTH[grid.shape[1]]}_s"
    return None


PROBES = [
    Probe("synthetic", "generate_synthetic_case", "synthetic.generate_s"),
    Probe("augment", "constrained_augment_case_report", "augment.constrained_s"),
    Probe("augment", "ordinary_augment", "augment.ordinary_s"),
    Probe("augment", "jaw_regularize", "augment.regularize_s"),
    Probe("augment", "resolve_collisions_verbose", "augment.resolve_s"),
    Probe("augment", "detect_collisions", "augment.detect_collisions_s", "augment.detect_collisions_calls"),
    Probe("augment", "adjacent_gaps", "augment.adjacent_gaps_s", "augment.adjacent_gaps_calls"),
    Probe("augment", "check_constraints", "augment.check_constraints_s"),
    Probe("bvh", "AabbTree", None, "bvh.tree_builds"),
    Probe("bvh", "interlock_masks", "bvh.interlock_s", "bvh.interlock_calls"),
    Probe("arch", "ArchLine.project", "arch.project_s", "arch.project_calls", "arch.project_points", _points_in_query),
    Probe("arch", "ArchLine.move_along", None, "arch.move_along_calls"),
    Probe("arch", "fit_arch_line", "arch.fit_s"),
    Probe("case", "build_tooth_point_image", "case.tpi_s"),
    Probe("case", "load_case", "case.load_case_s"),
    Probe("case", "save_case", "case.save_case_s"),
    Probe("case", "dumps_json", "case.json_dump_s"),
    Probe("geometry", "fps_sample", "geometry.fps_sample_s"),
    Probe("swin", "predict_case", "swin.predict_s"),
    Probe("swin", "swin_block"),
    Probe("swin", "column_merge"),
    Probe("swin", "swtbs_forward", "swin.swtbs_s"),
    Probe("swin", "window_attention", "swin.window_attention_s"),
    Probe("swin", "window_allow_masks", "swin.window_allow_masks_s", "swin.window_allow_masks_calls"),
    Probe("losses", "total_loss", "losses.total_s"),
    Probe("losses", "recon_loss", "losses.recon_s"),
    Probe("losses", "rot_trans_loss", "losses.transform_s"),
    Probe("losses", "overlap_consistency_loss", "losses.overlap_s"),
    Probe("losses", "anterior_uniformity_parts", "losses.uniformity_ant_s"),
    Probe("losses", "posterior_uniformity_loss", "losses.uniformity_post_s"),
    Probe("losses", "opposing_region", "losses.opposing_region_s", "losses.opposing_region_calls"),
    Probe("losses", "occlusal_overlap_mask", None, None, "losses.mask_flagged_points", _flagged),
    Probe("metrics", "evaluate_cases", "metrics.evaluate_s"),
    Probe("metrics", "add_error", None, "metrics.add_error_calls"),
]

# swin_block and column_merge report into the stage metrics by grid width
STAGED = {"swin_block", "column_merge"}
STAGE_METRICS = [f"swin.swtp_stage{k}_s" for k in (1, 2, 3, 4)]

# values read from outputs or subprocess wall clocks, not from wrappers
OUTSIDE_METRICS = ["augment.collision_iterations", "cli.start_s"] + [cli_metric(s) for s in SUBCOMMANDS]

# layers that run in set-up on the in-process workloads
SETUP_METRICS = {"synthetic.generate_s"}


def _probe_metrics(p: Probe) -> list[str]:
    names = [m for m in (p.time_metric, p.calls_metric, p.count_metric) if m]
    if p.name in STAGED:
        names += STAGE_METRICS
    return names


PER_LAYER = sorted(
    {m for p in PROBES for m in _probe_metrics(p)} | set(OUTSIDE_METRICS)
)


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class LayerTrace:
    """Wrappers plus per-record accumulators. Not thread-safe; the
    benchmark is one closed-loop client."""

    def __init__(self):
        self.current: dict[str, float] = defaultdict(float)
        self.records: list[dict[str, float]] = []
        self.setup_records: list[dict[str, float]] = []
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- accumulation
    def add(self, metric: str, value: float) -> None:
        self.current[metric] += value

    def close_record(self, setup: bool = False) -> None:
        (self.setup_records if setup else self.records).append(dict(self.current))
        self.current.clear()

    def discard_record(self) -> None:
        self.current.clear()

    def summary(self) -> dict[str, float]:
        out = {}
        for metric in PER_LAYER:
            pool = self.records
            if metric in SETUP_METRICS and self.setup_records:
                pool = self.setup_records
            out[metric] = statistics.median([r.get(metric, 0.0) for r in pool]) if pool else 0.0
        return out

    # -- patching
    def install(self) -> None:
        self.absent = []
        for probe in PROBES:
            owner, attr, original = self._resolve(probe)
            if original is None:
                self.absent.extend(_probe_metrics(probe))
                continue
            wrapper = self._wrap(probe, original)
            if owner is not None:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in _package_modules():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def _patch(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    @staticmethod
    def _resolve(probe: Probe):
        try:
            mod = importlib.import_module(f"toothalign.{probe.module}")
        except ImportError:
            return None, probe.name, None
        if "." in probe.name:
            cls_name, meth = probe.name.split(".")
            cls = getattr(mod, cls_name, None)
            func = cls.__dict__.get(meth) if cls is not None else None
            return (cls, meth, func) if func is not None else (None, meth, None)
        return None, probe.name, getattr(mod, probe.name, None)

    def _wrap(self, probe: Probe, original):
        trace = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            metric = probe.time_metric
            if probe.name in STAGED:
                metric = _stage_metric(args)
            if metric:
                trace.current[metric] += elapsed
            if probe.calls_metric:
                trace.current[probe.calls_metric] += 1
            if probe.count is not None:
                trace.current[probe.count_metric] += probe.count(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "toothalign" or name.startswith("toothalign."))
    ]
