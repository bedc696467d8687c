#!/usr/bin/env python3
"""Random reductions: reduce seeded two-zero configurations to simple zeros
and check the counting identities on each output.

Each case is random_multizero(default_rng(seed)): (z-a)^na (z-b)^nb with a
and b in [-0.5, 0.5]^2, more than 0.3 apart, na and nb in {2, 3}, its phase
tuned so both zeros are critical.  reduce_to_simple (eps_budget 8) splits it
into simple zeros, and the output goes through hopfseg index's checks at the
given resolution.  Prints one line per case; exits 1 if any reduced output
traces unclean or breaks an identity (a typed error is reported, not failed).
"""

import argparse
import sys

from hopfseg.experiments import reduction_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--count", type=int, default=18)
    ap.add_argument("--resolution", type=int, default=128)
    args = ap.parse_args()

    print(f"{'case':>4}  {'zeros (order)':<40} {'M':>2} {'N':>2} {'T':>2} "
          f"{'clean':>5} {'checks':>6} {'routed':>6}")
    failed = 0
    for k, (f, outcome, routed) in enumerate(
            reduction_sweep(args.seed, args.count, args.resolution)):
        zeros = "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i ({m})" for z, m in f.interior_roots)
        if isinstance(outcome, str):
            print(f"{k:4d}  {zeros:<40} {outcome}")
            continue
        M, N, T, clean, ok = outcome
        failed += not (clean and ok)
        print(f"{k:4d}  {zeros:<40} {M:2d} {N:2d} {T:2d} {str(clean):>5} "
              f"{'pass' if ok else 'FAIL':>6} {routed:6d}")
    print(f"{failed} reduced output(s) fail the checks")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
