"""Walk the training objective from a perturbed pose back to truth.

total_loss bundles reconstruction, transform, occlusion-fit and
uniformity terms. Interpolating each tooth rigidly toward its target
shows the reconstruction and transform terms decaying to exactly zero.
"""

import numpy as np

from toothalign.geometry import (
    RigidTransform,
    kabsch_recover,
    quat_from_axis_angle,
    quat_normalize,
)
from toothalign.losses import _recon_tooth, total_loss
from toothalign.synthetic import generate_synthetic_case


def _target_copy(case):
    """Reference pose: every cloud replaced by its aligned target."""
    out = case.copy()
    for tooth in out.all_teeth():
        if tooth.present:
            tooth.points = tooth.gt_points.copy()
    return out


def _blend(case, alpha):
    """Slide every tooth a fraction alpha of the way to its target."""
    out = case.copy()
    for tooth in out.all_teeth():
        if not (tooth.present and tooth.moved):
            continue
        if alpha == 1.0:
            # land exactly on the target, not within float noise of it
            tooth.points = tooth.gt_points.copy()
            continue
        t = kabsch_recover(tooth.points, tooth.gt_points)
        axis = t.rotation[1:]
        if np.linalg.norm(axis) < 1e-12:
            axis = np.array([0.0, 0.0, 1.0])
        part = RigidTransform(
            quat_normalize(quat_from_axis_angle(axis, alpha * t.angle())),
            alpha * t.translation,
            t.pivot,
        )
        tooth.points = part.apply(tooth.points)
    return out


def main():
    raw = generate_synthetic_case(seed=19, case_id="demo")
    target = _target_copy(raw)

    print("alpha   l_recon      l_val        total")
    for alpha in (0.0, 0.5, 0.9, 1.0):
        bd = total_loss(_blend(raw, alpha), target)
        print(f"{alpha:5.2f}   {bd.l_recon:9.4f}   {bd.l_val:9.4f}   "
              f"{bd.total:9.4f}")

    bd = total_loss(_blend(raw, 1.0), target)
    assert bd.l_recon == 0.0 and bd.l_val == 0.0

    # the analytic gradients are exact; compare one against central
    # differences, with 7 raw transform parameters per tooth
    teeth = raw.upper.teeth[:3]

    def recon(theta):
        value, grad = 0.0, np.empty_like(theta)
        for i, tooth in enumerate(teeth):
            part = theta[7 * i : 7 * i + 7]
            v, grad[7 * i : 7 * i + 7] = _recon_tooth(
                tooth.points, tooth.gt_points, part[:4], part[4:], tooth.centroid()
            )
            value += v
        return value, grad

    rng = np.random.default_rng(0)
    theta = rng.normal(0.0, 0.5, size=7 * len(teeth))
    theta[::7] += 1.5
    h = 1e-5
    fd = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        fd[i] = (recon(theta + step)[0] - recon(theta - step)[0]) / (2.0 * h)
    err = np.abs(recon(theta)[1] - fd).max() / max(1.0, np.abs(fd).max())
    print(f"\nreconstruction gradient vs finite differences: rel err {err:.2e}")


if __name__ == "__main__":
    main()
