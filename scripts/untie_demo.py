#!/usr/bin/env python3
"""Split the order-3 zero of f = z^3/4 and iterate down to simple zeros.

Writes the intermediate and final function specs plus SVG renderings of the
traced nodal graphs into the output directory.  Exits 1 if the counting
identities fail on any of the three traced graphs.
"""

import argparse
import sys
from pathlib import Path

from hopfseg.desingularize import excess_index, reduce_to_simple, split_zero
from hopfseg.nodal import trace, verify_index
from hopfseg.rational import monomial
from hopfseg.serialize import emit_function, render_svg
from hopfseg.states import analytic_state, find_base_point


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_untie")
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--branch", type=int, default=0)
    ap.add_argument("--resolution", type=int, default=256)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    f = monomial(0.25, 3)
    print(f"start: alpha = {excess_index(f)}")
    res = split_zero(f, 0.0, eps_target=1e9, branch=args.branch, eps0=args.eps)
    print(f"split: omega0 = {res.omega0:.6f}, theta = {res.theta:.6f}, "
          f"sup = {res.sup_dist:.3e}, h1 = {res.h1_dist:.3e}")
    (out / "after_one_split.json").write_text(emit_function(res.f_new))

    final = reduce_to_simple(f, eps_budget=3.0)
    (out / "final.json").write_text(emit_function(final))
    print(f"final: alpha = {excess_index(final)}, zeros = "
          f"{[(str(round(z.real, 6) + 1j * round(z.imag, 6)), m) for z, m in final.interior_roots]}")

    failed = False
    for name, fn in (("start", f), ("after_one_split", res.f_new), ("final", final)):
        base = find_base_point(fn)
        st = analytic_state(fn, base, resolution=args.resolution)
        g = trace(st)
        rep = verify_index(g)
        (out / f"{name}.svg").write_text(render_svg(graph=g))
        print(f"{name}: M={g.M} N={g.N} T={g.T} index_sum={rep.index_sum} "
              f"formulas={'ok' if rep.formula_check else 'FAIL'}")
        failed |= not rep.formula_check
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
