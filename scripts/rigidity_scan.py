#!/usr/bin/env python3
"""Scan the one-parameter family z (z - w)^2 / 4 over the angle of w.

Prints the admissible angles (where the reconstruction condition holds at
the double zero) and compares them with the five analytic values
pi/5 + 2 pi k/5.  Exits 1 unless exactly five admissible angles are found,
each within 1e-9 of its analytic value.
"""

import argparse
import sys

import numpy as np

from hopfseg.experiments import rigidity_scan

ANGLE_TOL = 1e-9


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=0.1)
    ap.add_argument("--step", type=float, default=1e-3)
    args = ap.parse_args()

    scan = rigidity_scan(radius=args.radius, step=args.step)
    targets = [np.pi / 5 + 2 * k * np.pi / 5 for k in range(5)]
    print(f"radius={args.radius} step={args.step} tol={scan.tol:.3e}")
    print(f"residual at phi=0: {abs(scan.residuals[0]):.9e} "
          f"(closed form {(4 / 15) * args.radius**2.5:.9e})")
    print("admissible angles found / analytic targets:")
    for z, t in zip(scan.zeros, targets):
        print(f"  {z:.9f}   {t:.9f}   delta={abs(z - t):.2e}")
    print(f"grid points flagged admissible: {int(scan.admissible.sum())}")
    print(f"values integrated: {len(scan.phis) + len(scan.refined)} "
          f"({len(scan.phis)} grid, {len(scan.refined)} refinement)")
    ok = len(scan.zeros) == 5 and all(
        abs(z - t) <= ANGLE_TOL for z, t in zip(scan.zeros, targets))
    if not ok:
        print(f"FAIL: expected five admissible angles within {ANGLE_TOL:g} "
              f"of pi/5 + 2 pi k/5, found {len(scan.zeros)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
