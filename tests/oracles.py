"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (explicit
loops, dense sampling, scipy KD-trees) and shares no code with the
package internals beyond numpy itself, with four exceptions. The
gradient checks and ``recon_loss_from_transforms`` wrap the package's
per-tooth reconstruction term, whose analytic gradient they test
against finite differences. ``pull_to_arch_one_by_one`` is the
one-tooth, one-point pull loop that augmentation batches; it calls the
package's arch projection one centroid at a time. The two perturbation
samplers are the draws that ``geometry.random_rigid`` replaced; they
build their transform with the package's quaternion and transform
types. ``kabsch_one`` is the one-cloud registration that
``geometry.kabsch_recover_many`` stacks; it builds the package's
transform type from the package's matrix-to-quaternion. The network
oracles reuse the package's window layout, masks and GELU, and keep the
plain two-pass norm and full-grid masked path that the package's norm,
attention and block must reproduce bit for bit.
"""

import copy

import numpy as np
from scipy.spatial import cKDTree

from toothalign.config import LossWeights
from toothalign.errors import CorrespondenceMismatch, DegenerateCloud
from toothalign.geometry import RigidTransform, quat_from_axis_angle, quat_from_matrix
from toothalign.losses import _recon_tooth
from toothalign.metrics import moved_teeth
from toothalign.swin import (
    HEADS,
    SHIFT,
    _gelu,
    cyclic_shift,
    window_allow_masks,
    window_partition,
    window_reverse,
)


def same_bits(got, want) -> bool:
    """Equal arrays, signed zeros told apart (np.array_equal has 0.0 == -0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


def kabsch_one(src, dst) -> RigidTransform:
    """Least-squares rigid transform of one (n, 3) cloud pair, one SVD:
    the identity for equal clouds, DegenerateCloud for fewer than three
    points or (near-)collinear clouds."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    if src.shape[0] < 3:
        raise DegenerateCloud("rigid registration needs at least 3 points")
    cs = src.mean(axis=0)
    if np.array_equal(src, dst):
        return RigidTransform.identity(cs)
    cd = dst.mean(axis=0)
    u, s, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    scale = float(np.abs(src - cs).max()) * float(np.abs(dst - cd).max())
    if s[1] <= 1e-12 * max(scale, 1e-300):
        raise DegenerateCloud("cloud is collinear or has no spatial extent")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return RigidTransform(quat_from_matrix(vt.T @ np.diag([1.0, 1.0, d]) @ u.T), cd - cs, cs)


def brute_fps(points, n, start):
    """Greedy farthest point sampling with explicit python loops.

    Ties resolved toward the lowest index, matching numpy's argmax.
    """
    pts = np.asarray(points, dtype=float)
    chosen = [int(start)]
    while len(chosen) < n:
        best_i, best_d = -1, -np.inf
        for i in range(pts.shape[0]):
            d = min(float(((pts[i] - pts[j]) ** 2).sum()) for j in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return chosen


def brute_min_distance(a, b):
    tree = cKDTree(b)
    d, _ = tree.query(a)
    return float(d.min())


def all_pairs_proximity(a, b, radius):
    """From the full matrix of squared distances between the rows of a
    and b: each cloud's flags of points strictly within radius of the
    other, the closest flagged distance (inf when none), each row of a's
    distance to its nearest row of b, and the gap between the clouds."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    hit = d2 < radius * radius
    best = float(np.sqrt(d2[hit].min())) if hit.any() else np.inf
    gap = float(np.sqrt(d2.min()))
    return hit.any(axis=1), hit.any(axis=0), best, np.sqrt(d2.min(axis=1)), gap


def brute_interlocks(a, b, radius):
    """Does any cross pair sit strictly inside ``radius``?"""
    tree = cKDTree(b)
    d, _ = tree.query(a)
    return bool((d < radius).any())


def brute_collision_pairs(teeth):
    """Set of interlocking (id, id) pairs among Tooth objects."""
    pairs = set()
    for i, a in enumerate(teeth):
        for b in teeth[i + 1 :]:
            if brute_interlocks(a.points, b.points, a.proxy_radius + b.proxy_radius):
                pairs.add((a.id, b.id))
    return pairs


def brute_xy_mask(points, region, tau):
    """Occlusal overlap mask by exhaustive 2D nearest neighbor."""
    mask = np.zeros(len(points), dtype=bool)
    if len(region) == 0:
        return mask
    for i, p in enumerate(points):
        best = min(
            (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in region
        )
        mask[i] = best < tau * tau
    return mask


def pull_to_arch_one_by_one(tooth, arch, lo, hi, steps=16, slack=1e-6):
    """Perpendicular pulls of one tooth, one projection of its centroid
    per step, until the centroid's arch distance is inside [lo, hi].
    Returns the total displacement."""
    total = 0.0
    for _ in range(steps):
        c = tooth.points.mean(axis=0)
        _, feet, dists = arch.project(c[None, :])
        dist = float(dists[0])
        if lo <= dist <= hi:
            break
        if dist < 1e-12:
            break  # on the arch; no direction to push outward
        target = hi - slack if dist > hi else lo + slack
        vec = (1.0 - target / dist) * (feet[0] - c)
        tooth.points = tooth.points + vec
        total += float(np.linalg.norm(vec))
    return total


def dense_curve_distance(arch, queries, samples=200001):
    """Distance to a dense polyline sampling of the spline."""
    t = np.linspace(0.0, arch.knots.shape[0] - 1.0, samples)
    curve = arch.point_at(t)
    tree = cKDTree(curve)
    d, _ = tree.query(np.atleast_2d(queries))
    return d


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (apply b first, then a, as rotations)."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def central_difference(fn, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


# ------------------------------------------------------- gradient checks

def grad_check(loss_fn, theta, h=1e-5) -> float:
    """Max relative disagreement between ``loss_fn``'s analytic gradient
    and central finite differences at ``theta``.

    ``loss_fn(theta) -> (value, gradient)``. The relative error is the
    largest per-component difference divided by the larger of 1 and the
    finite-difference gradient's magnitude.
    """
    theta = np.asarray(theta, dtype=float)
    analytic = np.asarray(loss_fn(theta)[1], dtype=float)
    fd = central_difference(lambda t: loss_fn(t)[0], theta, h)
    scale = max(1.0, float(np.abs(fd).max()))
    return float(np.abs(analytic - fd).max()) / scale


def recon_theta_fn(case, pivots):
    """The reconstruction loss of a case's moved teeth as a function of
    one flat parameter vector (7 per moved tooth, in ascending id
    order)."""
    teeth = sorted((t for t in case.all_teeth() if t.present and t.moved), key=lambda t: t.id)

    def fn(theta):
        value = 0.0
        grad = np.empty_like(theta)
        for i, tooth in enumerate(teeth):
            part = theta[7 * i : 7 * i + 7]
            v, g = _recon_tooth(
                tooth.points, tooth.gt_points, part[:4], part[4:], pivots[tooth.id]
            )
            value += v
            grad[7 * i : 7 * i + 7] = g
        return value, grad

    return fn, 7 * len(teeth)


def recon_loss_from_transforms(case, transforms):
    """Reconstruction loss of ``transforms`` applied to ``case.points``
    against ``case.gt_points``, with per-tooth gradients."""
    value = 0.0
    grads = {}
    for tooth in moved_teeth(case):
        if tooth.gt_points is None:
            raise CorrespondenceMismatch(f"tooth {tooth.id} has no gt_points")
        t = transforms.get(tooth.id)
        if t is None:
            raise CorrespondenceMismatch(f"no transform for moved tooth {tooth.id}")
        v, g = _recon_tooth(tooth.points, tooth.gt_points, t.rotation, t.translation, t.pivot)
        value += v
        grads[tooth.id] = g
    return value, grads


def val_theta_fn(gt_transforms, weights=None, zeta=None):
    """l_val as a function of the flat predicted parameter vector."""
    w = weights or LossWeights()
    ids = sorted(gt_transforms)

    def fn(theta):
        value = 0.0
        grad = np.empty_like(theta)
        for i, tid in enumerate(ids):
            part = theta[7 * i : 7 * i + 7]
            tg = gt_transforms[tid]
            zr, zt = (1.0, 1.0) if zeta is None else zeta[tid]
            dq = part[:4] - tg.rotation
            dt = part[4:] - tg.translation
            value += w.omega * float(np.abs(dq).sum()) * (1.0 + zr)
            value += float(np.abs(dt).sum()) * (1.0 + zt)
            grad[7 * i : 7 * i + 4] = w.omega * np.sign(dq) * (1.0 + zr)
            grad[7 * i + 4 : 7 * i + 7] = np.sign(dt) * (1.0 + zt)
        return value, grad

    return fn, 7 * len(ids)


def augment_perturbation(rng, rot_range_deg, trans_mu, trans_sigma, pivot):
    """The perturbation augmentation drew before the package had one
    sampler: axis, then angle, then translation, the axis redrawn while
    it is near zero."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    angle = rng.uniform(-np.deg2rad(rot_range_deg), np.deg2rad(rot_range_deg))
    trans = rng.normal(trans_mu, trans_sigma, size=3)
    return RigidTransform(rotation=quat_from_axis_angle(axis, angle), translation=trans, pivot=pivot)


def synthetic_perturbation(rng, rot_max_deg, trans_sigma_mm, pivot):
    """The perturbation the generator drew before the package had one
    sampler, for positive ranges: the draws of augment_perturbation at
    a zero mean, with a float angle and a 1e-9 axis bound."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-9:
        axis = rng.normal(size=3)
    rot_max = np.deg2rad(rot_max_deg)
    angle = float(rng.uniform(-rot_max, rot_max))
    trans = rng.normal(0.0, trans_sigma_mm, size=3)
    return RigidTransform(quat_from_axis_angle(axis, angle), trans, pivot)


def maxwell_mean(sigma):
    """Mean norm of an isotropic N(0, sigma^2 I_3) draw."""
    return sigma * 2.0 * np.sqrt(2.0 / np.pi)


# ------------------------------------------------------------- network

_BIAS_KEYS = {"b", "b1", "b2", "bq", "bk", "bv", "bo", "beta"}


def map_biases(weights, fill):
    """Copy of a weight set with every bias and norm offset ``b``
    replaced by ``fill(b)``."""
    out = copy.deepcopy(weights)

    def scrub(node):
        if isinstance(node, dict):
            for key, val in node.items():
                if key in _BIAS_KEYS and isinstance(val, np.ndarray):
                    node[key] = fill(val)
                else:
                    scrub(val)
        elif isinstance(node, list):
            for item in node:
                scrub(item)

    scrub(out)
    return out


def zero_biases(weights):
    """Copy of a weight set with every bias and norm offset zeroed;
    used by the zero-row propagation probes."""
    return map_biases(weights, np.zeros_like)


def two_pass_layer_norm(x, params, eps=1e-5):
    """Layer norm with the mean and np.var computed separately."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * params["gamma"] + params["beta"]


def masked_window_attention(windows, weights, allow):
    """Window attention with the mask applied twice by np.where: once
    to the scores (-inf) and once to their exponentials (0)."""
    nwin, length, c = windows.shape
    dh = c // HEADS

    def heads_first(x):
        return x.reshape(nwin, length, HEADS, dh).transpose(0, 2, 1, 3)

    q = heads_first(windows @ weights["wq"] + weights["bq"])
    k = heads_first(windows @ weights["wk"] + weights["bk"])
    v = heads_first(windows @ weights["wv"] + weights["bv"])
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(dh)
    scores = np.where(allow[:, None, :, :], scores, -np.inf)
    top = scores.max(axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    e = np.exp(scores - top)
    e = np.where(allow[:, None, :, :], e, 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    probs = e / np.where(denom == 0.0, 1.0, denom)
    out = (probs @ v).transpose(0, 2, 1, 3).reshape(nwin, length, c)
    return out @ weights["wo"] + weights["bo"]


def full_grid_swin_block(grid, weights, shifted, valid):
    """Swin block that norms and runs the MLP on every cell, then
    multiplies the attention and MLP terms of invalid cells by zero.

    Called as the package's block is on a 2D grid, with a (P, W, C)
    grid of present rows and the per-slot presence, it scatters those
    rows into a zero full grid, runs on every cell of it and returns
    the present rows."""
    if grid.ndim == 3 and np.ndim(valid) == 1:
        presence = np.asarray(valid, dtype=bool)
        full = np.zeros((presence.size,) + grid.shape[1:])
        full[presence] = grid
        cells = np.broadcast_to(presence[:, None], full.shape[:2])
        return full_grid_swin_block(full, weights, shifted, cells)[presence]
    x = grid
    h = two_pass_layer_norm(x, weights["ln1"])
    if shifted:
        h = cyclic_shift(h, SHIFT)
    allow = window_allow_masks(grid.shape, shifted, valid)
    win = window_partition(h)
    flat = win.reshape(win.shape[0], -1, win.shape[-1])
    att = masked_window_attention(flat, weights["attn"], allow)
    att = window_reverse(att.reshape(win.shape), grid.shape)
    if shifted:
        att = cyclic_shift(att, -SHIFT)
    keep = np.asarray(valid, dtype=float)[..., None]
    x = x + att * keep
    h2 = two_pass_layer_norm(x, weights["ln2"])
    mlp = _gelu(h2 @ weights["mlp"]["w1"] + weights["mlp"]["b1"])
    mlp = mlp @ weights["mlp"]["w2"] + weights["mlp"]["b2"]
    return x + mlp * keep
