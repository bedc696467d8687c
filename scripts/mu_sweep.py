#!/usr/bin/env python3
"""Competition-diffusion sweep: segregation defect and interface drift vs mu."""

import argparse

from hopfseg.diffusion import boundary_from_state, interface_distance, solve
from hopfseg.nodal import trace
from hopfseg.rational import monomial, rational
from hopfseg.states import analytic_state


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=128)
    ap.add_argument("--species", type=int, default=2, choices=(2, 5))
    ap.add_argument("--mus", type=float, nargs="+", default=[1e2, 1e3, 1e4])
    args = ap.parse_args()

    f = rational(0.25) if args.species == 2 else monomial(0.25, 3)
    st = analytic_state(f, 0.0, resolution=args.resolution)
    graph = trace(st)
    cfg = boundary_from_state(st, graph, samples=512)
    print(f"{args.species}-species data at resolution {args.resolution}")
    print(f"{'mu':>10} {'cycles':>7} {'sweeps':>7} {'residual':>10} {'defect':>12} "
          f"{'interface (cells)':>18} {'coarsest':>8} {'rim':>5}  sweeps, then residual "
          f"evaluations, per level, finest first")
    for mu in args.mus:
        fld = solve(cfg, mu=mu)
        d = interface_distance(fld, graph)
        print(f"{mu:10.0f} {fld.cycles:7d} {fld.sweeps:7d} {fld.residual:10.2e} "
              f"{fld.defect:12.4e} {d:18.2f} {fld.coarsest_visits:8d} {fld.rim_sweeps:5d}  "
              f"{list(fld.level_sweeps)} "
              f"{list(fld.level_residuals)}")


if __name__ == "__main__":
    main()
