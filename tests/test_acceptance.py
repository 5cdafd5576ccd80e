"""Acceptance suite: twelve timed criteria, one printed verdict line each.

Every criterion carries its tolerance and wall-clock budget inline.
Verdict lines are written straight to the terminal (bypassing pytest's
capture) so a plain ``pytest tests/test_acceptance.py`` shows one
PASS/FAIL per criterion. The shared synthetic corpus is a session
fixture; budgets time the work under test, not fixture construction.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import toothalign
from toothalign.arch import fit_arch_line, serialize_points
from toothalign.augment import (
    AugmentConfig,
    adjacent_gaps,
    constrained_augment_case_report,
    detect_collisions,
)
from toothalign.case import Case, Jaw, Tooth
from toothalign.geometry import (
    RigidTransform,
    fps_sample,
    kabsch_recover,
    quat_from_axis_angle,
    rotation_angle_between,
)
from toothalign.losses import (
    occlusal_overlap_mask,
    total_loss,
)
from toothalign.metrics import auc
from toothalign.swin import (
    CHANNELS,
    init_weights,
    swin_block,
    swtbs_forward,
    swtp_forward,
    window_attention,
    window_partition,
    window_reverse,
)
from toothalign.synthetic import generate_synthetic_case

from conftest import gt_view
from oracles import (
    brute_collision_pairs,
    brute_fps,
    brute_min_distance,
    brute_xy_mask,
    dense_curve_distance,
    grad_check,
    recon_theta_fn,
    val_theta_fn,
    zero_biases,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _blob_tooth(tid, rng):
    center = rng.uniform(-4.0, 4.0, size=3)
    return Tooth(
        id=tid,
        present=True,
        moved=False,
        points=center + rng.normal(0.0, 1.2, size=(40, 3)),
        gt_points=None,
        proxy_radius=0.25,
    )


# --------------------------------------------------------------------------

def test_criterion_01_fps_matches_brute():
    budget = 5.0
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = None
    for trial in range(1000):
        m = int(rng.integers(10, 41))
        pts = rng.normal(size=(m, 3))
        n = int(rng.integers(1, 11))
        if trial % 2:
            s = int(rng.integers(0, m))
        else:
            s = None
        got = fps_sample(pts, n, s).tolist()
        s_brute = (
            s
            if s is not None
            else int(np.argmax(((pts - pts.mean(axis=0)) ** 2).sum(axis=1)))
        )
        want = brute_fps(pts, n, s_brute)
        if got != want:
            worst = (trial, got, want)
            break
    elapsed = time.perf_counter() - start
    ok = worst is None and elapsed < budget
    _report(
        1,
        "farthest-point sampling equals the brute oracle",
        ok,
        f"1000 clouds exact, {elapsed:.2f}s < {budget}s"
        if worst is None
        else f"mismatch at trial {worst[0]}",
    )


def test_criterion_02_kabsch_inverts_apply():
    budget = 5.0
    rng = np.random.default_rng(43)
    start = time.perf_counter()
    max_angle = 0.0
    max_mm = 0.0
    for _ in range(1000):
        src = rng.normal(0.0, 3.0, size=(30, 3))
        t = RigidTransform(
            quat_from_axis_angle(rng.normal(size=3), float(rng.uniform(-3.0, 3.0))),
            rng.uniform(-5.0, 5.0, size=3),
            rng.uniform(-10.0, 10.0, size=3),
        )
        dst = t.apply(src)
        rec = kabsch_recover(src, dst)
        max_angle = max(max_angle, rotation_angle_between(rec.rotation, t.rotation))
        max_mm = max(max_mm, float(np.abs(rec.apply(src) - dst).max()))
    elapsed = time.perf_counter() - start
    ok = max_angle < 1e-6 and max_mm < 1e-6 and elapsed < budget
    _report(
        2,
        "kabsch recovery inverts applied transforms",
        ok,
        f"1000 transforms, worst {max_angle:.2e} rad / {max_mm:.2e} mm, "
        f"{elapsed:.2f}s < {budget}s",
    )


def test_criterion_03_losses_zero_at_truth(corpus):
    budget = 10.0
    start = time.perf_counter()
    bad = []
    for case in corpus:
        g = gt_view(case)
        bd = total_loss(g, g)
        fams = {
            "recon": bd.l_recon,
            "transform": bd.l_val,
            "fit": bd.l_fit,
            "uniformity": bd.l_uni_ant,
        }
        for fam, v in fams.items():
            if v != 0.0:
                bad.append((case.id, fam, v))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < budget
    _report(
        3,
        "all four loss families exactly zero at truth",
        ok,
        f"{len(corpus)} cases, {elapsed:.2f}s < {budget}s"
        if not bad
        else f"nonzero: {bad[:3]}",
    )


def test_criterion_04_gradients_match_finite_differences():
    budget = 30.0
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    case = generate_synthetic_case(seed=71)
    sub_jaw = Jaw("upper", case.upper.teeth[:2])
    sub = Case("grad", sub_jaw, Jaw("lower", []))
    pivots = {t.id: t.centroid() for t in sub_jaw.teeth}
    recon_fn, n_recon = recon_theta_fn(sub, pivots)

    gt_t = {
        tid: RigidTransform(
            quat_from_axis_angle(rng.normal(size=3), float(rng.uniform(0.1, 0.6))),
            rng.normal(0.0, 1.0, size=3),
            np.zeros(3),
        )
        for tid in (3, 4, 5)
    }
    val_fn, n_val = val_theta_fn(gt_t)
    flat_gt = np.concatenate(
        [np.concatenate([gt_t[t].rotation, gt_t[t].translation]) for t in sorted(gt_t)]
    )

    worst = 0.0
    for _ in range(50):
        theta = rng.normal(0.0, 0.5, size=n_recon)
        theta[::7] += 1.5
        worst = max(worst, grad_check(recon_fn, theta))
    for _ in range(50):
        theta = rng.normal(0.0, 2.0, size=n_val)
        theta = np.where(np.abs(theta - flat_gt) < 1e-3, theta + 0.01, theta)
        worst = max(worst, grad_check(val_fn, theta))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < budget
    _report(
        4,
        "analytic gradients match central differences",
        ok,
        f"100 points, worst rel err {worst:.2e} <= 1e-4, {elapsed:.2f}s < {budget}s",
    )


def test_criterion_05_overlap_mask_matches_brute():
    budget = 10.0
    rng = np.random.default_rng(45)
    start = time.perf_counter()
    mismatches = 0
    trials = 300
    for _ in range(trials):
        n_a = int(rng.integers(1, 65))
        n_b = int(rng.integers(1, 65))
        a = Tooth(5, True, True, rng.uniform(-0.2, 0.2, size=(n_a, 3)), None, 0.25)
        b = Tooth(22, True, False, rng.uniform(-0.2, 0.2, size=(n_b, 3)), None, 0.25)
        got = occlusal_overlap_mask(a, [b], tau=0.07)
        want = brute_xy_mask(a.points, b.points, tau=0.07)
        mismatches += int(not np.array_equal(got, want))
    # boundary: a point exactly at tau stays outside under both
    a = Tooth(5, True, True, np.array([[0.0, 0.0, 1.0]]), None, 0.25)
    b = Tooth(22, True, False, np.array([[0.07, 0.0, -1.0]]), None, 0.25)
    boundary_ok = not occlusal_overlap_mask(a, [b], tau=0.07).any() and not brute_xy_mask(
        a.points, b.points, 0.07
    ).any()
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and boundary_ok and elapsed < budget
    _report(
        5,
        "occlusal overlap mask equals exhaustive 2D NN",
        ok,
        f"{trials} clouds + strict-tau boundary, {elapsed:.2f}s < {budget}s",
    )


def test_criterion_06_constrained_augmentation_contract(corpus):
    budget = 60.0
    config = AugmentConfig()
    start = time.perf_counter()
    violations = []
    iteration_counts = []
    for k, case in enumerate(corpus):
        out, report = constrained_augment_case_report(case, seed=5000 + k, config=config)
        for side in ("upper", "lower"):
            jaw = out.jaw(side)
            tree_pairs = {(a, b) for a, b, _ in detect_collisions(jaw)}
            brute_pairs = brute_collision_pairs(jaw.present_teeth())
            if tree_pairs != brute_pairs:
                violations.append((case.id, side, "tree/brute disagree"))
            if tree_pairs:
                violations.append((case.id, side, f"collisions {tree_pairs}"))
            for a_id, b_id, gap in adjacent_gaps(jaw):
                bg = brute_min_distance(jaw.get(a_id).points, jaw.get(b_id).points)
                if bg > config.gap_threshold + 1e-9:
                    violations.append((case.id, side, f"gap {a_id}-{b_id} {bg:.3f}"))
            arch = fit_arch_line(gt_view(out).jaw(side))
            for tooth in jaw.present_teeth():
                d = abs(arch.signed_distance(tooth.centroid()))
                if not (-1e-9 <= d <= config.arch_dist_range[1] + 1e-9):
                    violations.append((case.id, side, f"arch dist {tooth.id} {d:.3f}"))
                ang = np.rad2deg(kabsch_recover(tooth.gt_points, tooth.points).angle())
                if ang > config.rot_range + 1e-9:
                    violations.append((case.id, side, f"angle {tooth.id} {ang:.2f}"))
            iteration_counts.append(report["collision_iterations"][side])
    elapsed = time.perf_counter() - start
    counts = np.array(iteration_counts)
    frac_fast = float((counts <= 3).mean())
    ok = (
        not violations
        and counts.max() <= config.max_collision_iters
        and frac_fast >= 0.90
        and elapsed < budget
    )
    _report(
        6,
        "constrained augmentation satisfies every constraint",
        ok,
        f"{len(corpus)} cases, iters<=3 in {frac_fast:.0%} (max {counts.max()}), "
        f"{elapsed:.1f}s < {budget}s"
        if not violations
        else f"violations: {violations[:3]}",
    )


def test_criterion_07_bvh_equals_brute_pairs():
    budget = 10.0
    rng = np.random.default_rng(46)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        teeth = [_blob_tooth(k + 1, rng) for k in range(6)]
        jaw = Jaw("upper", teeth)
        got = {(a, b) for a, b, _ in detect_collisions(jaw)}
        want = brute_collision_pairs(teeth)
        mismatches += int(got != want)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < budget
    _report(
        7,
        "tree collision pairs equal brute enumeration",
        ok,
        f"100 random jaws exact, {elapsed:.2f}s < {budget}s",
    )


def test_criterion_08_arch_interpolation_and_projection(small_corpus):
    budget = 10.0
    rng = np.random.default_rng(47)
    start = time.perf_counter()
    worst_knot = 0.0
    worst_proj = 0.0
    for case in small_corpus:
        for jaw in (case.upper, case.lower):
            arch = fit_arch_line(jaw)
            centers = np.array([t.centroid() for t in jaw.present_teeth()])
            m = centers.shape[0]
            on_curve = arch.point_at(np.arange(m, dtype=float))
            worst_knot = max(worst_knot, float(np.abs(on_curve - centers).max()))
            t = rng.uniform(0.0, m - 1.0, size=50)
            queries = arch.point_at(t) + rng.normal(0.0, 2.0, size=(50, 3))
            _, _, dist = arch.project(queries)
            dense = dense_curve_distance(arch, queries)
            worst_proj = max(worst_proj, float(np.abs(dist - dense).max()))
    elapsed = time.perf_counter() - start
    ok = worst_knot < 1e-9 and worst_proj < 1e-4 and elapsed < budget
    _report(
        8,
        "arch interpolates knots and projects to the curve",
        ok,
        f"20 arches, knot err {worst_knot:.1e} < 1e-9 mm, projection err "
        f"{worst_proj:.1e} < 1e-4 mm, {elapsed:.2f}s < {budget}s",
    )


def test_criterion_09_serialization_contract(corpus):
    budget = 10.0
    rng = np.random.default_rng(48)
    start = time.perf_counter()
    identity = np.arange(512)
    bijection_ok = True
    unanimous = 0
    teeth_seen = 0
    for case in corpus:
        for jaw in (case.upper, case.lower):
            arch = fit_arch_line(jaw)
            for tooth in jaw.present_teeth():
                perm = serialize_points(tooth, arch)
                if not np.array_equal(np.sort(perm), identity):
                    bijection_ok = False
                head = arch.signed_distances(tooth.points[perm[:32]])
                signs = np.sign(head)
                unanimous += int((signs == signs[0]).all())
                teeth_seen += 1
    # permutation invariance: shuffled input, same ordered cloud
    invariant_ok = True
    for case in corpus[:5]:
        for jaw in (case.upper, case.lower):
            arch = fit_arch_line(jaw)
            for tooth in jaw.present_teeth():
                perm = serialize_points(tooth, arch)
                shuf = rng.permutation(512)
                twin = Tooth(
                    tooth.id, True, tooth.moved, tooth.points[shuf], None, 0.25
                )
                perm2 = serialize_points(twin, arch)
                if not np.array_equal(twin.points[perm2], tooth.points[perm]):
                    invariant_ok = False
    agreement = unanimous / teeth_seen
    elapsed = time.perf_counter() - start
    ok = bijection_ok and invariant_ok and agreement >= 0.95 and elapsed < budget
    _report(
        9,
        "arch serialization bijective, invariant, side-coherent",
        ok,
        f"{teeth_seen} teeth, first-32 sign agreement {agreement:.1%} >= 95%, "
        f"{elapsed:.2f}s < {budget}s",
    )


def test_criterion_10_network_suite():
    budget = 30.0
    rng = np.random.default_rng(49)
    start = time.perf_counter()
    checks = {}

    grid2d = rng.normal(size=(32, 16, 8))
    back2d = window_reverse(window_partition(grid2d), grid2d.shape)
    seq = rng.normal(size=(32, 8))
    back1d = window_reverse(window_partition(seq), seq.shape)
    checks["partition bijection"] = np.array_equal(back2d, grid2d) and np.array_equal(
        back1d, seq
    )

    attn_w = {
        "wq": rng.normal(0.0, 0.2, size=(CHANNELS, CHANNELS)),
        "wk": rng.normal(0.0, 0.2, size=(CHANNELS, CHANNELS)),
        "wv": np.zeros((CHANNELS, CHANNELS)),
        "wo": np.eye(CHANNELS),
        "bq": np.zeros(CHANNELS),
        "bk": np.zeros(CHANNELS),
        "bv": np.ones(CHANNELS),
        "bo": np.zeros(CHANNELS),
    }
    every_key = np.ones((4, 8, 8), dtype=bool)
    out = window_attention(rng.normal(size=(4, 8, CHANNELS)), attn_w, every_key)
    checks["softmax rows sum to 1"] = bool(np.abs(out - 1.0).max() < 1e-6)

    weights = init_weights(seed=0)
    big = rng.normal(size=(32, 512, CHANNELS))
    pooled, trace = swtp_forward(big, weights, np.ones(32, dtype=bool), return_trace=True)
    checks["trace 512-256-128-64-32"] = trace == [512, 256, 128, 64, 32]
    checks["constant channels"] = pooled.shape == (32, CHANNELS)

    clean = zero_biases(weights)
    x = rng.normal(0.0, 0.5, size=(32, 16, CHANNELS))
    valid = np.ones((32, 16), dtype=bool)
    for shifted, band in ((False, set(range(8, 16))), (True, set(range(4, 12)))):
        base = swin_block(x, clean["swtp"][0]["blk_a"], shifted, valid)
        bumped = x.copy()
        bumped[10, 3, 7] += 1.0
        probed = swin_block(bumped, clean["swtp"][0]["blk_a"], shifted, valid)
        rows = set(np.unique(np.nonzero((probed != base).any(axis=2))[0]).tolist())
        checks[f"row isolation shifted={shifted}"] = rows <= band and 10 in rows

    tokens = rng.normal(size=(32, CHANNELS))
    block = weights["center_block"]
    presence = np.ones(32, dtype=bool)
    got = swtbs_forward(tokens, block, presence)
    cur, acc = tokens, np.zeros_like(tokens)
    for shifted in (False, True, False, True):
        nxt = swin_block(cur, block, shifted, presence)
        acc = acc + (nxt - cur)
        cur = nxt
    checks["shared-block tower matches unrolled oracle"] = np.array_equal(
        got, cur + acc
    )

    elapsed = time.perf_counter() - start
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < budget
    _report(
        10,
        "network window mechanics verified",
        ok,
        f"{len(checks)} probes, {elapsed:.2f}s < {budget}s"
        if not failed
        else f"failed: {failed}",
    )


def test_criterion_11_auc_closed_forms():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    closed = (
        auc(np.zeros(17)) == 1.0
        and auc(np.full(9, 50.0)) == 0.0
        and auc(np.full(5, 2.5), k=5.0) == 0.5
    )
    base = rng.uniform(0.0, 4.0, size=500)
    monotone = all(
        auc(base + step) < auc(base) for step in (0.1, 0.5, 1.0)
    ) and auc(base, k=10.0) > auc(base, k=5.0)
    elapsed = time.perf_counter() - start
    ok = closed and monotone and elapsed < budget
    _report(
        11,
        "auc closed forms and monotonicity",
        ok,
        f"{elapsed:.2f}s < {budget}s",
    )


def test_criterion_12_cli_byte_reproducible(tmp_path):
    budget = 30.0
    start = time.perf_counter()

    # ``python -m toothalign`` runs the same ``cli.main`` as the installed
    # executable; an absolute PYTHONPATH lets the child find the package
    # from ``tmp_path`` without an install.
    src = str(Path(toothalign.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + inherited if inherited else ""),
    }

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "toothalign", *args],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    gen_dir = tmp_path / "cases"
    case = gen_dir / "synth0-000.case.json"
    aug = tmp_path / "aug.case.json"
    sampled = tmp_path / "small.case.json"
    commands = [
        ("gen", ["gen", "--seed", "0", "--cases", "1", "-o", str(gen_dir)], [case]),
        (
            "sample",
            ["sample", "--in", str(case), "-n", "64", "-o", str(sampled)],
            [sampled],
        ),
        ("serialize", ["serialize", "--in", str(case)], []),
        ("arch export", ["arch", "export", "--in", str(case)], []),
        (
            "augment",
            ["augment", "--seed", "1", "--in", str(case), "-o", str(aug)],
            [aug],
        ),
        ("loss", ["loss", "--pred", str(aug), "--gt", str(case), "--test-mode"], []),
        ("forward", ["forward", "--seed", "1", "--in", str(case)], []),
        (
            "eval",
            ["eval", "--pred-dir", str(gen_dir), "--gt-dir", str(gen_dir)],
            [],
        ),
        (
            "iterate",
            ["iterate", "--seed", "0", "--in", str(aug), "--gt", str(case), "-n", "1"],
            [],
        ),
    ]
    unstable = []
    for name, args, outputs in commands:
        first_stdout = run(args)
        first_files = [p.read_bytes() for p in outputs]
        second_stdout = run(args)
        second_files = [p.read_bytes() for p in outputs]
        if first_stdout != second_stdout or first_files != second_files:
            unstable.append(name)
    elapsed = time.perf_counter() - start
    ok = not unstable and elapsed < budget
    _report(
        12,
        "every CLI subcommand is byte-reproducible",
        ok,
        f"9 subcommands twice, {elapsed:.1f}s < {budget}s"
        if not unstable
        else f"unstable: {unstable}",
    )
