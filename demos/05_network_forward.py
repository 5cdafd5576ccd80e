"""Run the windowed-attention predictor end to end on one case.

Weights come from a seeded random init, so the predictions are not
meaningful corrections; the point is the shape of the computation:
point clouds in, one rigid transform per present tooth out.
"""

import numpy as np

from toothalign.case import build_tooth_point_image, tooth_centers
from toothalign.swin import CHANNELS, init_weights, predict_transforms, swtp_forward
from toothalign.synthetic import generate_synthetic_case


def main():
    case = generate_synthetic_case(seed=23, case_id="demo")
    weights = init_weights(seed=0)

    # the tooth-pooling tower halves the point axis four times
    image = build_tooth_point_image(case)
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(32, 512, CHANNELS))
    pooled, trace = swtp_forward(grid, weights, presence=image.presence,
                                 return_trace=True)
    print(f"point-axis trace {trace}, pooled tokens {pooled.shape}")

    transforms = predict_transforms(image, tooth_centers(case), weights)
    print(f"\npredicted {len(transforms)} transforms")
    print("  tooth   angle-deg   shift-mm")
    for tid in sorted(transforms)[:6]:
        t = transforms[tid]
        print(f"  {tid:5d}   {np.rad2deg(t.angle()):9.2f}   "
              f"{np.linalg.norm(t.translation):8.3f}")

    qs = np.array([transforms[tid].rotation for tid in sorted(transforms)])
    print(f"\nall quaternions unit-norm: "
          f"{np.allclose(np.linalg.norm(qs, axis=1), 1.0)}")
    print(f"nonnegative scalar parts: {bool((qs[:, 0] >= 0).all())}")


if __name__ == "__main__":
    main()
