"""Per-layer tracing of hopfseg from outside the program.

`Tracer.install()` replaces each public function listed in TARGETS by a
wrapper that records a span (name, start, end, parent) and per-function
counts.  Class methods are replaced on the class; free functions are
replaced in every hopfseg module that holds a reference to them (for
example `diffusion.boundary_zeros` and `cli.trace_graph`), so calls made
through an import alias are seen too.  A call that re-enters the function
it is already inside (the recursion of `adaptive_gk`, the coarse-grid warm
start of `diffusion.solve`) is folded into the outer span and only counted.

Spans are kept in memory in flat arrays and written out by `save()` when
the run ends.  A function's self time is its span's duration minus the time
covered by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _argv_out_dir(argv):
    """The output directory of a hopfseg CLI argv (the benchmark passes -o)."""
    return argv[argv.index("-o") + 1]


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Tracer:
    def __init__(self):
        self.installed = False
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[list] = []          # [span id, child seconds]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)       # extra per-layer counters
        self.active = defaultdict(int)        # open spans per name
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        frame = [sid, 0.0]
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def close(self, name, frame, t_end):
        sid, child = frame
        self._stack.pop()
        self.active[name] -= 1
        dur = t_end - self.start[sid]
        self.end[sid] = t_end
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child

    def charge_parent(self, seconds):
        if self._stack:
            self._stack[-1][1] += seconds

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if tracer.active[name]:
                # re-entry: fold into the open span of the same function
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, out)
                return out
            frame = tracer.open(name)
            t0 = tracer.start[frame[0]]
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.close(name, frame, t1)
                tracer.charge_parent(t1 - t0)
            if hook is not None:
                hook(tracer, args, kwargs, out)
                # the hook's own time is tracing cost, not the parent's work
                tracer.charge_parent(time.perf_counter() - t1)
            return out

        return traced

    def install(self):
        self.installed = True
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "hopfseg" or n.startswith("hopfseg."))]
        for modname, qualname, name, hook in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapper = self.wrap(original, name, hook)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)

    # -- output ------------------------------------------------------------

    def save(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def metrics(self, passes):
        """Every per-layer metric, averaged per timed pass."""
        c, s, k = self.calls, self.self_s, self.count
        out = {}
        for name, kinds in METRICS.items():
            for kind in kinds:
                if kind == "calls":
                    v = c[name]
                elif kind in ("s", "self_s"):
                    v = s[name]
                elif kind == "total_s":
                    v = self.total_s[name]
                elif kind == "routed_share":
                    v = k[name + ".routed"] / k[name + ".cells"] if k[name + ".cells"] else 0.0
                elif kind == "cell_updates_per_s":
                    v = k[name + ".cell_updates"] / s[name] if s[name] else 0.0
                elif kind == "reconstructs_per_split":
                    v = k[name + ".reconstructs"] / c[name] if c[name] else 0.0
                else:
                    v = k[f"{name}.{kind}"]
                if kind not in ("routed_share", "cell_updates_per_s", "reconstructs_per_split"):
                    v = v / passes
                out[f"{name}.{kind}"] = v
        return out


# -- hooks: counts taken where the work happens -----------------------------------


def _solve_hook(tr, args, kwargs, field):
    sweeps = getattr(field, "sweeps", 0)
    tr.count["diffusion.solve.sweeps"] += sweeps
    tr.count["diffusion.solve.cell_updates"] += (
        sweeps * int(np.count_nonzero(field.inside)) * field.u.shape[0]
    )


def _reconstruct_hook(tr, args, kwargs, state):
    tr.count["states.reconstruct.cells"] += int(np.count_nonzero(state.inside))
    if tr.active["desingularize.split_zero"]:
        tr.count["desingularize.split_zero.reconstructs"] += 1


def _route_hook(tr, args, kwargs, out):
    if tr.active["states.reconstruct"]:
        tr.count["states.reconstruct.routed"] += 1


def _boundary_values_hook(tr, args, kwargs, out):
    samples = args[1] if len(args) > 1 else kwargs.get("samples", 0)
    tr.count["primitive.PathEngine.boundary_values.samples"] += samples


def _trace_hook(tr, args, kwargs, graph):
    tr.count["nodal.trace.arcs"] += len(graph.arcs)
    tr.count["nodal.trace.unclean"] += 0 if graph.clean else 1


def _gk_hook(tr, args, kwargs, out):
    tr.count["quadrature.adaptive_gk.panels"] += 1


def _eval_hook(tr, args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs.get("z")
    tr.count["rational.RationalFactored.eval.points"] += np.size(z)


def _cli_hook(tr, args, kwargs, rc):
    argv = args[0] if args else kwargs.get("argv")
    tr.count["cli.main.bytes_written"] += _dir_bytes(_argv_out_dir(argv or []))


# (module, attribute path, metric prefix, hook)
TARGETS = [
    ("hopfseg.diffusion", "solve", "diffusion.solve", _solve_hook),
    ("hopfseg.diffusion", "boundary_from_state", "diffusion.boundary_from_state", None),
    ("hopfseg.diffusion", "interface_distance", "diffusion.interface_distance", None),
    ("hopfseg.states", "reconstruct", "states.reconstruct", _reconstruct_hook),
    ("hopfseg.states", "admissibility", "states.admissibility", None),
    ("hopfseg.states", "find_base_point", "states.find_base_point", None),
    ("hopfseg.states", "dirichlet_energy", "states.dirichlet_energy", None),
    ("hopfseg.states", "hopf_l1", "states.hopf_l1", None),
    ("hopfseg.states", "export_grid_csv", "states.export_grid_csv", None),
    ("hopfseg.slits", "build_slit_disk", "slits.build_slit_disk", None),
    ("hopfseg.slits", "route_between", "slits.route_between", _route_hook),
    ("hopfseg.quadrature", "SqrtSegmentIntegrator.integrate",
     "quadrature.SqrtSegmentIntegrator.integrate", None),
    ("hopfseg.quadrature", "adaptive_gk", "quadrature.adaptive_gk", _gk_hook),
    ("hopfseg.primitive", "PathEngine.__init__", "primitive.PathEngine.init", None),
    ("hopfseg.primitive", "PathEngine.F", "primitive.PathEngine.F", None),
    ("hopfseg.primitive", "PathEngine.boundary_values",
     "primitive.PathEngine.boundary_values", _boundary_values_hook),
    ("hopfseg.nodal", "boundary_zeros", "nodal.boundary_zeros", None),
    ("hopfseg.nodal", "trace", "nodal.trace", _trace_hook),
    ("hopfseg.nodal", "verify_index", "nodal.verify_index", None),
    ("hopfseg.desingularize", "split_zero", "desingularize.split_zero", None),
    ("hopfseg.desingularize", "reduce_to_simple", "desingularize.reduce_to_simple", None),
    ("hopfseg.desingularize", "assemble_system", "desingularize.assemble_system", None),
    ("hopfseg.desingularize", "K_value", "desingularize.K_value", None),
    ("hopfseg.mobius", "pushforward_hopf", "mobius.pushforward_hopf", None),
    ("hopfseg.experiments", "rigidity_scan", "experiments.rigidity_scan", None),
    ("hopfseg.experiments", "rigidity_residual", "experiments.rigidity_residual", None),
    ("hopfseg.rational", "RationalFactored.eval", "rational.RationalFactored.eval", _eval_hook),
    ("hopfseg.serialize", "parse_function", "serialize.parse_function", None),
    ("hopfseg.serialize", "dump_report", "serialize.dump_report", None),
    ("hopfseg.serialize", "render_svg", "serialize.render_svg", None),
    ("hopfseg.cli", "main", "cli.main", _cli_hook),
]

# Metric kinds reported for each traced function: calls, s (self time),
# total_s (span duration with children) and the counters of the hooks above.
METRICS = {
    "diffusion.solve": ("calls", "s", "sweeps", "cell_updates_per_s"),
    "diffusion.boundary_from_state": ("calls", "s"),
    "diffusion.interface_distance": ("calls", "s"),
    "states.reconstruct": ("calls", "s", "total_s", "cells", "routed", "routed_share"),
    "states.admissibility": ("calls", "s"),
    "states.find_base_point": ("calls", "s"),
    "states.dirichlet_energy": ("calls", "s"),
    "states.hopf_l1": ("calls", "s"),
    "states.export_grid_csv": ("calls", "s"),
    "slits.build_slit_disk": ("calls", "s"),
    "slits.route_between": ("calls", "s"),
    "quadrature.SqrtSegmentIntegrator.integrate": ("calls", "s"),
    "quadrature.adaptive_gk": ("calls", "panels", "s"),
    "primitive.PathEngine.init": ("calls", "s"),
    "primitive.PathEngine.F": ("calls", "s"),
    "primitive.PathEngine.boundary_values": ("calls", "samples", "s"),
    "nodal.boundary_zeros": ("calls", "s"),
    "nodal.trace": ("calls", "s", "total_s", "arcs", "unclean"),
    "nodal.verify_index": ("calls", "s"),
    "desingularize.split_zero": ("calls", "s", "total_s", "reconstructs_per_split"),
    "desingularize.reduce_to_simple": ("calls", "s", "total_s"),
    "desingularize.assemble_system": ("calls", "s"),
    "desingularize.K_value": ("calls", "s"),
    "mobius.pushforward_hopf": ("calls", "s"),
    "experiments.rigidity_scan": ("s", "total_s"),
    "experiments.rigidity_residual": ("calls",),
    "rational.RationalFactored.eval": ("calls", "points", "s"),
    "serialize.parse_function": ("calls", "s"),
    "serialize.dump_report": ("calls", "s"),
    "serialize.render_svg": ("calls", "s"),
    "cli.main": ("calls", "self_s", "bytes_written"),
}
