"""The benchmark workloads: their inputs, operations and output checks.

Each workload writes its input specs in `setup`, lists its operations in
`ops` (one timed call into hopfseg each), and checks the outputs of a pass in
`check`, against the closed forms and oracles of `oracles.py` or against a
property the method must have.  Nothing is compared with a stored copy of an
earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from hopfseg import cli, desingularize, experiments, nodal, serialize, states
from hopfseg.rational import monomial, rational


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Path], object]      # output directory -> result


def _cli_op(name, command, spec, *extra):
    def run(out):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([command, "-i", str(spec), "-o", str(out), *extra])
    return Op(name, run)


def _report(out):
    return json.loads((out / "report.json").read_text())


def _write_specs(specs: Path, functions: dict):
    specs.mkdir(parents=True, exist_ok=True)
    for name, f in functions.items():
        (specs / f"{name}.json").write_text(serialize.emit_function(f))


def _near(value, target, tol):
    return abs(value - target) <= tol


def _guarded(check, *args):
    """Problems found by one output check.  A check that raises (a missing
    artifact, an output of the wrong shape, an error from the program while
    checking) is a problem of the operation, reported with its message."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - reported as the op's failure
        return [f"check raised {type(exc).__name__}: {exc}"]


# -- nodal ----------------------------------------------------------------------------

NODAL_SEED = 20240817        # the acceptance suite's seed for the index-formula draws
NODAL_DRAWS = 9           # draws 1-9: the ninth is the known fault
NODAL_RESOLUTION = 128
# an even-order closed form's grid values are exact to quadrature error
GRID_VALUE_TOL = 1e-8


class Nodal:
    """`hopfseg index | reconstruct | render` in process at resolution 128."""

    # The trace of the 9th draw (double root at 0.5308-0.5246j) reports
    # clean=False at every resolution: the march from the boundary zero at
    # theta ~ 4.913 returns to its own vertex and the arc is dropped.
    known_faults = frozenset({"index:draw09"})

    def setup(self, specs: Path):
        rng = np.random.default_rng(NODAL_SEED)
        functions = {f"draw{k + 1:02d}": experiments.random_even_function(rng)
                     for k in range(NODAL_DRAWS)}
        functions["figure5"] = experiments.figure5_function()[0]
        functions["fw2"] = experiments.admissible_fw(2)[0]
        functions["one"] = rational(0.25)
        functions["z2"] = monomial(0.25, 2)
        functions["z3"] = monomial(0.25, 3)
        _write_specs(specs, functions)
        self.specs = specs

    def ops(self):
        res = ("--resolution", str(NODAL_RESOLUTION))
        spec = lambda name: self.specs / f"{name}.json"  # noqa: E731
        out = [_cli_op(f"index:draw{k + 1:02d}", "index", spec(f"draw{k + 1:02d}"), *res)
               for k in range(NODAL_DRAWS)]
        # figure 5 has no automatic base point; the = form is the one argparse takes
        out.append(_cli_op("index:figure5", "index", spec("figure5"), *res, "--base=-0.4,-0.3"))
        for name in ("fw2", "z3"):
            out.append(_cli_op(f"index:{name}", "index", spec(name), *res))
        for name in ("one", "z2", "z3"):
            out.append(_cli_op(f"reconstruct:{name}", "reconstruct", spec(name), *res))
        out.append(_cli_op("render:z2", "render", spec("z2"), *res))
        return out

    def check(self, results, outs):
        problems = {}
        expect = {"index:figure5": (7, 6, 2), "index:fw2": (5, 5, 1),
                  "index:z3": (5, 5, 1), "render:z2": (4, 4, 1)}
        for name, rc in results.items():
            out = outs[name]
            form = oracles.CLOSED_FORMS.get(name.split(":")[1])
            if name.startswith("index:"):
                problems[name] = _guarded(_check_index, rc, out, expect.get(name))
            elif name.startswith("render:"):
                problems[name] = (_guarded(_check_index, rc, out, expect.get(name))
                                  + _guarded(_check_svg, out / "state.svg", form))
            else:
                problems[name] = _guarded(_check_reconstruct, rc, out, form)
        return problems, []


def _check_index(rc, out, counts):
    rep = _report(out)
    if rc != 0 or "error" in rep:
        return [f"exit code {rc}: {rep.get('message', '')}"]
    p = []
    M, N, T = rep["M"], rep["N"], rep["T"]
    crits = rep["criticals"]
    isum = sum(c["order"] for c in crits)
    if counts is not None and (M, N, T) != counts:
        p.append(f"(M, N, T) = {(M, N, T)}, closed form {counts}")
    if rep["n_species"] != N:
        p.append("N differs from the species count")
    if rep["index_sum"] != isum:
        p.append(f"index sum {rep['index_sum']} differs from the critical orders {isum}")
    if M != N + T - 1:
        p.append(f"M = {M} != N + T - 1 = {N + T - 1}")
    if isum != N - T - 1:
        p.append(f"sum of indices {isum} != N - T - 1 = {N - T - 1}")
    if not (rep["formula_check"] and rep["euler_check"]):
        p.append("the report's own index checks are false")
    if not rep["clean_trace"]:
        p.append("trace not clean: an arc was dropped or a vertex has the wrong degree")
    else:
        # a clean trace gives every critical m arcs and every boundary zero one
        ends = sum(c["multiplicity"] for c in crits) + M
        if ends % 2 or ends // 2 - len(crits) != N - 1:
            p.append("Euler's relation fails for the traced degrees")
    return p


def _check_reconstruct(rc, out, form):
    rep = _report(out)
    if rc != 0 or "error" in rep:
        return [f"exit code {rc}: {rep.get('message', '')}"]
    p = []
    n = len(form.rays)
    if rep["n_species"] != n:
        p.append(f"{rep['n_species']} species, closed form {n}")
    if not _near(rep["dirichlet_energy"], form.energy, 0.02 * form.energy):
        p.append(f"grid energy {rep['dirichlet_energy']} not within 2% of {form.energy}")
    if not _near(rep["hopf_l1"], form.energy, 1e-3 * form.energy):
        p.append(f"hopf_l1 {rep['hopf_l1']} not within 1e-3 of {form.energy}")
    _, planes = oracles.load_cell_csv(out / "grid.csv", NODAL_RESOLUTION)
    err, bijective = oracles.grid_vs_closed_form(planes, form, NODAL_RESOLUTION)
    if err > GRID_VALUE_TOL:
        p.append(f"grid.csv u differs from the closed form by {err:.3e}")
    if not bijective:
        p.append("grid.csv species do not match the closed-form nodal domains")
    return p


_CIRCLE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="0.025" fill="(\w+)"')


def _check_svg(path, form):
    text = path.read_text()
    p = []
    if text.count("<path ") != len(form.rays):
        p.append(f"{text.count('<path ')} arcs drawn, closed form {len(form.rays)}")
    circles = [(float(x), -float(y), fill) for x, y, fill in _CIRCLE.findall(text)]
    if sum(1 for *_, fill in circles if fill == "black") != 1:
        p.append("expected one interior critical point")
    rim = sorted(math.atan2(y, x) % (2 * math.pi) for x, y, fill in circles if fill == "white")
    if len(rim) != len(form.rays) or any(
            abs(a - b) > 1e-3 for a, b in zip(rim, sorted(form.rays))):
        p.append(f"boundary zeros at {rim}, closed form {sorted(form.rays)}")
    return p


# -- diffusion ---------------------------------------------------------------------------

DIFFUSION_RESOLUTION = 96
DIFFUSION_SAMPLES = 512
SWEEP_TOL = 1e-8             # the solver's stated tolerance on a sweep's change
MAX_INTERFACE_CELLS = 2.0
SIMULATIONS = (("z3-mu1e2", "z3", 1e2), ("z3-mu1e4", "z3", 1e4), ("one-mu1e4", "one", 1e4))


class Diffusion:
    """`hopfseg simulate` in process at resolution 96, 512 boundary samples."""

    known_faults = frozenset()

    def setup(self, specs: Path):
        _write_specs(specs, {"one": rational(0.25), "z3": monomial(0.25, 3)})
        self.specs = specs

    def ops(self):
        return [
            _cli_op(f"simulate:{name}", "simulate", self.specs / f"{form}.json",
                    "--resolution", str(DIFFUSION_RESOLUTION),
                    "--samples", str(DIFFUSION_SAMPLES), "--mu", repr(mu))
            for name, form, mu in SIMULATIONS
        ]

    def check(self, results, outs):
        problems = {}
        defects = {}
        for name, form_name, mu in SIMULATIONS:
            op = f"simulate:{name}"
            if op not in results:
                continue
            problems[op] = _guarded(_check_simulation, results[op], outs[op],
                                    oracles.CLOSED_FORMS[form_name], mu, defects, name)
        cross = []
        if {"z3-mu1e2", "z3-mu1e4"} <= defects.keys():
            if not defects["z3-mu1e2"] > defects["z3-mu1e4"]:
                cross.append(f"defect does not decrease with mu: {defects}")
        return problems, cross


def _check_simulation(rc, out, form, mu, defects, name):
    """Problems of one simulation; its recomputed defect goes to defects[name]."""
    rep = _report(out)
    if rc != 0 or "error" in rep:
        return [f"exit code {rc}: {rep.get('message', '')}"]
    p = []
    n = len(form.rays)
    cols, u = oracles.load_cell_csv(out / "fields.csv", DIFFUSION_RESOLUTION)
    if rep["n_species"] != n or len(cols) != n:
        p.append(f"{rep['n_species']} species, {len(cols)} fields; closed form {n}")
    inside = ~np.isnan(u[0])
    if np.any(u[:, inside] < 0):
        p.append("negative field values")
    dist = oracles.interface_distance_cells(u, form, DIFFUSION_RESOLUTION)
    if dist > MAX_INTERFACE_CELLS:
        p.append(f"interface {dist:.2f} cells from the closed-form nodal set")
    if rep["interface_distance_cells"] > MAX_INTERFACE_CELLS:
        p.append(f"reported interface distance {rep['interface_distance_cells']:.2f} cells")
    defect = oracles.segregation_defect(u, DIFFUSION_RESOLUTION)
    if not _near(defect, rep["segregation_defect"], 1e-9 * defect):
        p.append(f"defect {rep['segregation_defect']} differs from fields.csv ({defect})")
    defects[name] = defect
    upd = oracles.sweep_residual(u, mu, DIFFUSION_RESOLUTION)
    if upd > SWEEP_TOL:
        p.append(f"fields.csv residual calls for a change of {upd:.3e} > {SWEEP_TOL}")
    return p


# -- splitting ---------------------------------------------------------------------------

SCAN_RADIUS = 0.1
SCAN_STEP = 2e-2
SCAN_ANGLE_TOL = 1e-3
BRANCH_SPACING_TOL = 1e-3
RESIDUAL_REL_TOL = 1e-8      # |Re F| at a zero, relative to |F| on the rim
TRACE_RESOLUTION = 96          # the resolution split_zero checks its own outputs at
ADMISSIBLE_ANGLES = tuple(np.pi / 5 + 2 * k * np.pi / 5 for k in range(5))


class Splitting:
    """The rigidity scan, the five splits of z^3/4 and three reductions."""

    known_faults = frozenset()

    def setup(self, specs: Path):
        functions = {
            "z3": monomial(0.25, 3),
            # the criterion-9 density inputs of excess index 1 and 2
            "alpha1": monomial(0.3, 2),
            "alpha2": monomial(0.25, 3),
            "alpha2-tuned": experiments.tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2),
        }
        _write_specs(specs, functions)
        self.inputs = {name: serialize.parse_function((specs / f"{name}.json").read_text())
                       for name in functions}
        self._verdicts = {}

    def ops(self):
        z3 = self.inputs["z3"]
        out = [Op("scan", lambda _: experiments.rigidity_scan(radius=SCAN_RADIUS, step=SCAN_STEP))]
        for k in range(5):
            out.append(Op(f"split:branch{k}", lambda _, k=k: desingularize.split_zero(
                z3, 0.0, eps_target=1e9, branch=k, eps0=0.01)))
        for name, f in self.inputs.items():
            if name.startswith("alpha"):
                out.append(Op(f"reduce:{name}", lambda _, f=f: desingularize.reduce_to_simple(
                    f, eps_budget=8.0)))
        return out

    def check(self, results, outs):
        problems = {}
        thetas = []
        for name, res in results.items():
            if name == "scan":
                problems[name] = _guarded(_check_scan, res)
            elif name.startswith("split:"):
                problems[name] = _guarded(self._check_split, res, thetas)
            else:
                problems[name] = _guarded(self._verdict, res, self.inputs[name.split(":")[1]], True)
        cross = []
        if len(thetas) == 5:
            thetas.sort()
            gaps = np.diff(thetas + [thetas[0] + 2 * np.pi])
            if np.any(np.abs(gaps - 2 * np.pi / 5) > BRANCH_SPACING_TOL):
                cross.append(f"branch angles {thetas} not spaced 2pi/5")
        return problems, cross

    def _check_split(self, res, thetas):
        thetas.append(res.theta % (2 * np.pi))
        return self._verdict(res.f_new, self.inputs["z3"], False)

    def _verdict(self, f, f_in, trace):
        """Problems of one splitting output; outputs repeat across passes, so
        each distinct output is checked once."""
        key = (serialize.emit_function(f), trace)
        if key not in self._verdicts:
            self._verdicts[key] = _check_split_output(f, f_in, trace)
        return list(self._verdicts[key])


def _check_scan(scan):
    p = []
    zeros = sorted(scan.zeros)
    if len(zeros) != 5 or any(abs(a - b) > SCAN_ANGLE_TOL for a, b in zip(zeros, ADMISSIBLE_ANGLES)):
        p.append(f"admissible angles {zeros}, closed form {ADMISSIBLE_ANGLES}")
    target = (4 / 15) * SCAN_RADIUS**2.5
    if not _near(abs(scan.residuals[0]), target, 1e-6 * target):
        p.append(f"residual(0) = {scan.residuals[0]}, closed form {target}")
    return p


def _check_split_output(f, f_in, trace):
    p = []
    orders = [m for _, m in f.interior_roots]
    if sum(orders) != f_in.total_interior_order:
        p.append(f"total order {sum(orders)} != input {f_in.total_interior_order}")
    if trace:
        if any(m != 1 for m in orders):
            p.append(f"zeros not all simple: {orders}")
    elif sorted(orders) != [1, 2]:
        p.append(f"split of z^3 gave orders {orders}, expected a double and a simple zero")
    worst, scale = oracles.re_f_at_zeros(f)
    if worst > RESIDUAL_REL_TOL * scale:
        p.append(f"mpmath |Re F| at a zero is {worst:.3e} (scale {scale:.3e})")
    if trace:
        base = states.find_base_point(f)
        if base is None:
            return p + ["no admissible base point"]
        graph = nodal.trace(states.reconstruct(f, base, resolution=TRACE_RESOLUTION))
        inner = [v for v in graph.vertices if v.kind == "interior-critical"]
        if len(inner) != len(orders) or any(
                v.multiplicity != 3 or graph.incident(v.id) != 3 for v in inner):
            p.append("nodal graph has interior vertices that are not 3-points: "
                     f"{[(v.multiplicity, graph.incident(v.id)) for v in inner]}")
    return p


def oracle_self_test():
    """The mpmath primitive must give F(1) = 2/5 for f = z^3/4."""
    value = complex(oracles.primitive_mp(monomial(0.25, 3), 0.0, 1.0))
    if abs(value - 0.4) > 1e-20:
        raise RuntimeError(f"mpmath oracle gives F(1) = {value} for z^3/4, not 2/5")


WORKLOADS = {"nodal": Nodal, "diffusion": Diffusion, "splitting": Splitting}
