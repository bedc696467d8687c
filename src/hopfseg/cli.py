"""Command-line surface: check | reconstruct | trace | index | desingularize
| simulate | render.

Each run reads one JSON function spec, writes a JSON report (plus optional
SVG/CSV artifacts) into the output directory, and exits 0 iff all requested
checks pass.  All numeric defaults are echoed into the report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import desingularize as desing
from . import diffusion
from .errors import HopfSegError
from .nodal import trace as trace_graph
from .nodal import verify_index
from .serialize import csv_rows, dump_report, emit_function, parse_function, render_svg
from .states import ENERGY_MIN_RESOLUTION, admissibility, analytic_state, dirichlet_energy
from .states import export_grid_csv, find_base_point, hopf_l1, reconstruct

COMMANDS = ("check", "reconstruct", "trace", "index", "desingularize", "simulate", "render")


def build_parser():
    p = argparse.ArgumentParser(prog="hopfseg", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", "-i", required=True, help="JSON function spec file")
    p.add_argument("--out", "-o", default="out", help="output directory")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--mu", type=float, default=1e4)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--base", type=str, default=None,
                   help="base point as 're,im' (default: automatic); write a "
                        "negative one as --base=-0.4,-0.3")
    return p


def _defaults(args) -> dict:
    return {
        "resolution": args.resolution,
        "mu": args.mu,
        "eps": args.eps,
        "branch": args.branch,
        "samples": args.samples,
    }


def _pick_base(f, args):
    if args.base is not None:
        re, im = (float(x) for x in args.base.split(","))
        return complex(re, im)
    return find_base_point(f)


def run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    f = parse_function(Path(args.input).read_text())
    report: dict = {"command": args.command, "defaults": _defaults(args)}
    ok = True

    if args.command == "check":
        base = _pick_base(f, args)
        rep = admissibility(f, base)
        report["base"] = base
        report["admissible"] = rep.admissible
        report["tolerance"] = rep.tolerance
        report["residuals"] = [[z, v] for z, v in rep.residuals]
        ok = rep.admissible

    elif args.command in ("reconstruct", "trace", "index", "render", "simulate"):
        if args.command == "reconstruct" and args.resolution < ENERGY_MIN_RESOLUTION:
            # reconstruct reports the energy: fail before the grid is filled
            raise ValueError(f"energy requires resolution >= {ENERGY_MIN_RESOLUTION}")
        base = _pick_base(f, args)
        # only reconstruct fills the grid; the graph commands count the
        # species as the nodal graph's faces
        grid = args.command == "reconstruct"
        st = (reconstruct if grid else analytic_state)(f, base, resolution=args.resolution)
        report["base"] = base
        report["criticals"] = [
            {"z": z, "order": n, "multiplicity": m} for z, n, m in st.criticals
        ]
        report["residuals"] = [[z, v] for z, v in st.residuals]
        if grid:
            report["n_species"] = st.n_species
            report["grid_fill"] = {"routed": st.routed, "chords": st.chords}
            report["dirichlet_energy"] = dirichlet_energy(st)
            report["hopf_l1"] = hopf_l1(f)
            export_grid_csv(st, out / "grid.csv")
            report["artifacts"] = ["grid.csv"]
        else:
            g = trace_graph(st)
            rep = verify_index(g)
            report["n_species"] = g.N
            report["M"], report["N"], report["T"] = g.M, g.N, g.T
            report["index_sum"] = rep.index_sum
            report["euler_check"] = rep.euler_check
            report["formula_check"] = rep.formula_check
            report["clean_trace"] = g.clean
            report["diagnostics"] = {"trace": g.diagnostics}
            if args.command == "trace":
                (out / "graph.json").write_text(dump_report(g.to_dict()))
                report["artifacts"] = ["graph.json"]
            elif args.command == "index":
                ok = rep.formula_check and rep.euler_check and g.clean
            elif args.command == "render":
                (out / "state.svg").write_text(render_svg(graph=g))
                report["artifacts"] = ["state.svg"]
            elif args.command == "simulate" and not g.clean:
                # the species are the trace's faces: an unclean trace gives
                # no partition to take boundary data from
                ok = False
            elif args.command == "simulate":
                cfg = diffusion.boundary_from_state(st, g, samples=args.samples)
                fld = diffusion.solve(cfg, mu=args.mu)
                report["mu"] = args.mu
                report["sweeps"] = fld.sweeps
                report["cycles"] = fld.cycles
                report["residual"] = fld.residual
                report["diagnostics"]["solve"] = {"level_sweeps": list(fld.level_sweeps),
                                                  "level_residuals": list(fld.level_residuals),
                                                  "coarsest_visits": fld.coarsest_visits,
                                                  "rim_sweeps": fld.rim_sweeps}
                report["segregation_defect"] = fld.defect
                report["interface_distance_cells"] = diffusion.interface_distance(fld, g)
                _export_fields_csv(fld, out / "fields.csv")
                report["artifacts"] = ["fields.csv"]

    elif args.command == "desingularize":
        if desing.excess_index(f) == 0:
            raise HopfSegError("no zero of order >= 2 to split")
        z0 = desing.zero_to_split(f)
        res = desing.split_zero(f, z0, eps_target=1e9, branch=args.branch, eps0=args.eps)
        report["z0"] = res.z0
        report["omega0"] = res.omega0
        report["new_zero"] = res.new_zero
        report["epsilon"] = res.epsilon
        report["theta"] = res.theta
        report["branch"] = res.branch
        report["R"] = res.R
        report["W"] = list(res.W)
        report["sup_dist"] = res.sup_dist
        report["h1_dist"] = res.h1_dist
        report["residuals"] = [[z, v] for z, v in res.admissibility.residuals]
        report["diagnostics"] = {"split": res.diagnostics}
        (out / "f_new.json").write_text(emit_function(res.f_new))
        base = find_base_point(res.f_new)
        st = analytic_state(res.f_new, base, resolution=args.resolution)
        (out / "f_new.svg").write_text(render_svg(graph=trace_graph(st)))
        report["artifacts"] = ["f_new.json", "f_new.svg"]
        ok = res.admissibility.admissible

    (out / "report.json").write_text(dump_report(report))
    print(dump_report(report), end="")
    return 0 if ok else 1


def _export_fields_csv(fld, path):
    G = fld.resolution
    h = 2.0 / G
    c = -1.0 + (np.arange(G) + 0.5) * h
    n = fld.u.shape[0]
    header = "x,y," + ",".join(f"u{j + 1}" for j in range(n))
    rows = csv_rows(header, ",".join(["%.17g"] * n), fld.inside, c, fld.u)
    Path(path).write_text("\n".join(rows) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (HopfSegError, ValueError) as exc:    # a typed failure or an input out of range
        report = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "diagnostics"):
            # a failed split's counters: what led to the failure
            report["diagnostics"] = {"split": exc.diagnostics}
        text = dump_report(report)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "report.json").write_text(text)
        print(text, end="")
        return 1


if __name__ == "__main__":
    sys.exit(main())
