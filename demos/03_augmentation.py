"""Constrained and ordinary augmentation of a case.

Constrained mode re-perturbs the targets, then repairs the jaw until it
is collision-free with bounded gaps and arch distances; the report says
how hard the repair had to work. Ordinary mode is a plain random rigid
shake of the input clouds.
"""

import numpy as np

from toothalign.augment import (
    adjacent_gaps,
    constrained_augment_case_report,
    detect_collisions,
    ordinary_augment,
)
from toothalign.synthetic import generate_synthetic_case


def main():
    case = generate_synthetic_case(seed=9, case_id="demo")

    before = detect_collisions(case.upper)
    print(f"raw input: {len(before)} colliding pairs in the upper jaw")

    out, report = constrained_augment_case_report(case, seed=2)
    print(f"\nconstrained augment: satisfied={report['satisfied']}, "
          f"repair iterations {report['collision_iterations']}")
    for side, stats in report["jaws"].items():
        print(f"  {side}: collisions={stats['collisions']}, "
              f"max gap {stats['max_gap_mm']:.2f} mm, "
              f"max arch dist {stats['max_arch_dist_mm']:.2f} mm, "
              f"max angle {stats['max_angle_deg']:.1f} deg")

    gaps = np.array([g for _, _, g in adjacent_gaps(out.upper)])
    print(f"  upper gaps: min {gaps.min():.2f}, max {gaps.max():.2f} mm")

    shaken = ordinary_augment(case, seed=4)
    moved = sum(
        not np.array_equal(a.points, b.points)
        for a, b in zip(case.all_teeth(), shaken.all_teeth())
    )
    print(f"\nordinary augment: {moved}/{len(case.all_teeth())} clouds shaken, "
          f"targets untouched")


if __name__ == "__main__":
    main()
