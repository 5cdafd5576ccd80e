"""Command-line surface over the pipeline.

Machine-readable JSON goes to stdout, human logs to stderr. Exit codes:
0 success, 1 validation/usage error, 2 computation error. All
randomness derives from one --seed via per-stage hashing, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .arch import fit_case_arches
from .case import (
    ORDERING_MODES,
    POINT_COUNT,
    build_tooth_point_image,
    dumps_json,
    load_case,
    save_case,
    tooth_centers,
    write_text,
)
from .config import Config, load_config
from .errors import (
    ComputationError,
    InsufficientPoints,
    InvalidArgument,
    ValidationError,
)
from .geometry import fps_sample
from .metrics import K_MM, check_paired_ids, evaluate_cases, iteration_metrics
from .seeding import derive_seed

# Import rule: the heavier modules (augment, losses, synthetic, swin) are
# imported inside the subcommands that call them, so every call pays
# only for what it runs and --help stays fast; no call loads scipy, and
# tests/test_import_policy.py enforces this.

log = logging.getLogger("toothalign")

ARCH_SAMPLES = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_config(args) -> Config:
    """The --config file (or the defaults) with --seed and --ordering
    applied, so that Config checks flags and file values alike."""
    config = load_config(args.config) if args.config else Config()
    flags = {name: getattr(args, name, None) for name in ("seed", "ordering")}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _image(case, config: Config):
    """The case's tooth point image, as serialize and forward build it."""
    return build_tooth_point_image(case, config.ordering, derive_seed(config.seed, "serialize", case.id))


# ------------------------------------------------------------ subcommands

def _cmd_gen(args) -> dict:
    from .synthetic import SynthParams, generate_synthetic_case

    seed = _load_config(args).seed
    if args.cases < 1:
        raise InvalidArgument(f"--cases must be at least 1, got {args.cases}")
    params = SynthParams() if args.teeth is None else SynthParams(teeth_per_jaw=args.teeth)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot make output directory {out_dir}: {exc.strerror or exc}") from exc
    written = []
    for k in range(args.cases):
        case_id = f"synth{seed}-{k:03d}"
        case = generate_synthetic_case(params, derive_seed(seed, "gen", case_id), case_id)
        path = out_dir / f"{case_id}.case.json"
        save_case(case, path)
        written.append(str(path))
        log.info("generated %s", path)
    return {"written": written}


def _cmd_sample(args) -> dict:
    n = args.points
    case = load_case(args.infile, expected_points=None)
    for tooth in case.present_teeth():
        if tooth.points.shape[0] < n:
            raise InsufficientPoints(
                f"tooth {tooth.id} has {tooth.points.shape[0]} points, needs {n}"
            )
        idx = fps_sample(tooth.points, n)
        tooth.points = tooth.points[idx]
        if tooth.gt_points is not None:
            tooth.gt_points = tooth.gt_points[idx]
    save_case(case, args.out, expected_points=n)
    log.info("sampled %s -> %s (%d points per tooth)", args.infile, args.out, n)
    return {"written": [str(args.out)]}


def _cmd_serialize(args) -> dict:
    config = _load_config(args)
    case = load_case(args.infile)
    tpi = _image(case, config)
    payload = {
        "case_id": case.id,
        "ordering": config.ordering,
        "presence": [bool(p) for p in tpi.presence],
        "data": tpi.data.tolist(),
    }
    if args.out:
        write_text(args.out, dumps_json(payload))
        log.info("wrote %s", args.out)
    return payload


def _cmd_arch_export(args) -> dict:
    case = load_case(args.infile)
    jaws = {}
    for side, arch in fit_case_arches(case).items():
        jaws[side] = {
            "length_mm": float(arch.total_length()),
            "samples": arch.sample_polyline(ARCH_SAMPLES).tolist(),
        }
    payload = {"case_id": case.id, "samples_per_jaw": ARCH_SAMPLES, "jaws": jaws}
    if args.out:
        write_text(args.out, dumps_json(payload))
        log.info("wrote %s", args.out)
    return payload


def _cmd_augment(args) -> dict:
    from .augment import check_constraints, constrained_augment_case_report, ordinary_augment

    config = _load_config(args)
    aug = config.augment
    case = load_case(args.infile)
    if args.mode == "constrained":
        out_case, report = constrained_augment_case_report(case, config.seed, aug)
    else:
        out_case = ordinary_augment(case, config.seed, aug)
        report = check_constraints(out_case, aug)
    save_case(out_case, args.out)
    log.info("augmented %s -> %s (%s)", args.infile, args.out, args.mode)
    report["mode"] = args.mode
    report["written"] = str(args.out)
    return report


def _cmd_loss(args) -> dict:
    from .losses import total_loss

    config = _load_config(args)
    pred = load_case(args.pred)
    gt = load_case(args.gt)
    breakdown = total_loss(pred, gt, config.loss, test_mode=args.test_mode)
    log.info("total loss %.6g", breakdown.total)
    return breakdown.to_dict()


def _cmd_forward(args) -> dict:
    from .swin import init_weights, predict_transforms

    config = _load_config(args)
    case = load_case(args.infile)
    weights = init_weights(derive_seed(config.seed, "weights"))
    transforms = predict_transforms(_image(case, config), tooth_centers(case), weights)
    return {
        "case_id": case.id,
        "seed": config.seed,
        "ordering": config.ordering,
        "transforms": {
            str(tid): {
                "rotation": t.rotation.tolist(),
                "translation": t.translation.tolist(),
                "pivot": t.pivot.tolist(),
            }
            for tid, t in sorted(transforms.items())
        },
    }


def _load_dir(path: str) -> dict:
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise ValidationError(f"no .json case files under {path}")
    cases = {}
    for f in files:
        case = load_case(f)
        if case.id in cases:
            raise ValidationError(f"duplicate case id {case.id} under {path}")
        cases[case.id] = case
    return cases


def _cmd_eval(args) -> dict:
    preds = _load_dir(args.pred_dir)
    gts = _load_dir(args.gt_dir)
    check_paired_ids("case", preds, gts)
    pairs = [(preds[cid], gts[cid]) for cid in sorted(preds)]
    report, curve = evaluate_cases(pairs, k=args.k)
    report["curve"] = curve.to_dict()
    log.info("evaluated %d cases: ADD %.4f mm, AUC %.4f", len(pairs), report["add_mm"], report["auc"])
    return report


def _cmd_iterate(args) -> dict:
    from .swin import init_weights, predict_case

    config = _load_config(args)
    case = load_case(args.infile)
    gt = load_case(args.gt)
    weights = init_weights(derive_seed(config.seed, "weights"))

    def model(c):
        seed = derive_seed(config.seed, "serialize", c.id)
        return predict_case(c, weights, ordering=config.ordering, seed=seed)

    rows = iteration_metrics(model, case, gt, args.n, k=args.k)
    return {"case_id": case.id, "n": args.n, "k_mm": float(args.k), "iterations": rows}


# ----------------------------------------------------------------- parser

def _common(sub, seed: bool = True):
    # only the options the subcommand reads: any other is a usage error
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sub.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toothalign", description="Tooth alignment pipeline tools")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("gen", help="generate synthetic cases")
    _common(p)
    p.add_argument("--teeth", type=int, default=None, help="teeth per jaw")
    p.add_argument("--cases", type=int, default=1, help="number of cases")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("sample", help="farthest-point downsample a dense case")
    p.add_argument("--in", dest="infile", required=True, help="input case (any point count)")
    p.add_argument("-n", "--points", type=int, default=POINT_COUNT, help=f"points per tooth (default {POINT_COUNT})")
    p.add_argument("-o", "--out", required=True, help="output case file")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("serialize", help="build the 32-row tooth point image")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ordering", choices=ORDERING_MODES, default=None)
    p.add_argument("-o", "--out", default=None, help="also write the payload here")
    p.set_defaults(func=_cmd_serialize)

    p = subs.add_parser("arch", help="arch line tools")
    arch_subs = p.add_subparsers(dest="arch_command", required=True, parser_class=_Parser)
    pe = arch_subs.add_parser("export", help="export fitted arches as polylines")
    pe.add_argument("--in", dest="infile", required=True)
    pe.add_argument("-o", "--out", default=None, help="also write the payload here")
    pe.set_defaults(func=_cmd_arch_export)

    p = subs.add_parser("augment", help="simulate a pre-treatment state")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=["constrained", "ordinary"], default="constrained")
    p.add_argument("-o", "--out", required=True, help="output case file")
    p.set_defaults(func=_cmd_augment)

    p = subs.add_parser("loss", help="loss breakdown between two cases")
    _common(p, seed=False)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--test-mode", action="store_true", help="pin enhancement factors to 1")
    p.set_defaults(func=_cmd_loss)

    p = subs.add_parser("forward", help="one forward pass of the seeded reference network")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ordering", choices=ORDERING_MODES, default=None)
    p.set_defaults(func=_cmd_forward)

    p = subs.add_parser("eval", help="metric report over prediction/target directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--k", type=float, default=K_MM, help="CDF integration bound, mm")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("iterate", help="repeated prediction metric table")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("-n", type=int, default=4, help="iterations")
    p.add_argument("--ordering", choices=ORDERING_MODES, default=None)
    p.add_argument("--k", type=float, default=K_MM)
    p.set_defaults(func=_cmd_iterate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        text = dumps_json(args.func(args))
    except ValidationError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    except ComputationError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
