"""Nodal-set tracing into a planar graph, and the counting identities.

Arcs of {U = 0} are continued by predictor steps along the level set with a
Newton corrector (the gradient of Re F is conj(F') = 2 conj(f^{1/2}), known
in closed form along the continuation).  Crossing a cut merely flips the
local sheet, Re F -> -Re F, so the marcher never needs to know where a cut
runs; near critical points all values are taken relative to the critical
point itself, which keeps full precision at any scale of approach.  The
boundary zeros, where arcs end on the rim, come from the state's PathEngine,
which owns the boundary march and the cut ends on the rim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceStall
from .quadrature import SqrtSegmentIntegrator, continue_sqrt_chain, nearest_sqrt
from .states import SegregatedState


@dataclass(frozen=True)
class Vertex:
    id: int
    location: complex
    kind: str          # "interior-critical" | "boundary-zero"
    multiplicity: int
    index: int         # multiplicity - 2


@dataclass(frozen=True)
class Arc:
    a: int
    b: int
    points: tuple


@dataclass(frozen=True)
class NodalGraph:
    vertices: tuple
    arcs: tuple
    M: int
    N: int
    T: int
    clean: bool = True

    def incident(self, vid: int) -> int:
        return sum(1 for arc in self.arcs if arc.a == vid) + sum(
            1 for arc in self.arcs if arc.b == vid
        )

    def index_sum(self) -> int:
        return sum(v.index for v in self.vertices)

    def to_dict(self):
        return {
            "vertices": [
                {
                    "id": v.id,
                    "x": v.location.real,
                    "y": v.location.imag,
                    "kind": v.kind,
                    "index": v.index,
                }
                for v in self.vertices
            ],
            "arcs": [
                {
                    "from": a.a,
                    "to": a.b,
                    "points": [[p.real, p.imag] for p in a.points],
                }
                for a in self.arcs
            ],
            "M": self.M,
            "N": self.N,
            "T": self.T,
        }


@dataclass(frozen=True)
class IndexReport:
    M: int
    N: int
    T: int
    index_sum: int
    euler_check: bool
    formula_check: bool


# -- boundary zeros -----------------------------------------------------------


def boundary_zeros(state: SegregatedState):
    """Angles where the boundary trace of Re F changes sign.

    The state's engine finds them along its own memoised boundary march
    (PathEngine.boundary_zeros), at 64 samples per unit of total order
    beyond two, and at least 256.
    """
    n = max(256, 64 * (state.f.total_interior_order + 2))
    return state.engine.boundary_zeros(n)


# -- seeds around a critical point -------------------------------------------


def _critical_seeds(f, integ, zc: complex, order: int, r_seed: float):
    """Crossing points of {Re F = 0} on a small circle around the critical.

    All values are Re of 2*int_{zc}^{w} f^{1/2} along the radius, computed by
    the substituted integrator from the circle inward, so precision is
    relative to the local scale r^{m/2} rather than to the global one.
    """
    m = order + 2
    nn = 32 * m
    th = 2 * np.pi * np.arange(nn) / nn
    w = zc + r_seed * np.exp(1j * th)
    fv = f.eval(w)
    vs = continue_sqrt_chain(fv, np.sqrt(fv[0]))

    def local_val(point, v_start):
        val, _, _ = integ.integrate(point, zc, v_start, tol=1e-16 + 1e-12 * abs(point - zc))
        return -2.0 * val  # F(point) - F(zc) along the radius

    g = np.array([local_val(w[k], vs[k]).real for k in range(nn)])

    # closing the loop multiplies the continued sqrt by (-1)^order, so the
    # wrap-around comparison flips sign for odd-order criticals
    wrap_sign = -1.0 if order % 2 else 1.0
    seeds = []
    for k in range(nn):
        k2 = (k + 1) % nn
        g_next = g[k2] if k2 != 0 else wrap_sign * g[0]
        if g[k] == 0.0:
            seeds.append((th[k], vs[k]))
        elif g[k] * g_next < 0:
            a, b = th[k], th[k] + 2 * np.pi / nn
            fa = g[k]
            va = vs[k]
            for _ in range(50):
                mid = 0.5 * (a + b)
                wm = zc + r_seed * np.exp(1j * mid)
                vm = nearest_sqrt(f.eval(wm), va)
                fm = local_val(wm, vm).real
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa, va = mid, fm, vm
                if b - a < 1e-12:
                    break
            mid = 0.5 * (a + b)
            wm = zc + r_seed * np.exp(1j * mid)
            vm = nearest_sqrt(f.eval(wm), va)
            seeds.append((mid, vm))
    return seeds


# -- the marcher -------------------------------------------------------------


class _Marcher:
    def __init__(self, state: SegregatedState, integ, crit_locs, crit_snap):
        self.integ = integ
        self.crit_locs = crit_locs
        self.crit_snap = crit_snap
        self.G = state.resolution
        self.tight = 1e-12 * max(1.0, state.scale)
        self.loose = 1e-9 * max(1.0, state.scale)

    def _advance(self, z, v, Fz, dz):
        """Move by dz, returning updated (z, v, F) via a 6-point Gauss chord."""
        val, _, v2 = self.integ.integrate(z, z + dz, v, tol=1e-13 * max(abs(dz), 1e-12))
        return z + dz, v2, Fz + 2.0 * val

    def _correct(self, z, v, Fz, cap):
        """Newton corrector onto Re F = 0 (the gradient of Re F is conj(F')).

        Gives up on a step longer than cap; returns (z, v, F, converged).
        """
        for _ in range(12):
            Fp = 2.0 * v
            g2 = abs(Fp) ** 2
            if g2 < 1e-60:
                break
            corr = -Fz.real * np.conj(Fp) / g2
            if abs(corr) > cap:
                break
            z, v, Fz = self._advance(z, v, Fz, corr)
            if abs(Fz.real) < self.tight:
                return z, v, Fz, True
        return z, v, Fz, False

    def run(self, z0, v0, F0, direction, src_vid):
        """Trace one arc until it hits the boundary or snaps to a critical.

        Returns (the critical's index or ("boundary", angle), the points).
        """
        pts = [z0]
        z, v, Fz = z0, v0, F0
        d = direction / abs(direction)
        G = self.G
        travelled = 0.0
        for step_count in range(40 * G + 200):
            dmin, jmin = np.inf, -1
            for j, c in enumerate(self.crit_locs):
                dd = abs(z - c)
                if dd < dmin:
                    dmin, jmin = dd, j
            if jmin >= 0 and dmin <= self.crit_snap[jmin]:
                same_src = src_vid == jmin
                if not same_src or travelled > 3.0 * self.crit_snap[jmin]:
                    pts.append(self.crit_locs[jmin])
                    return jmin, tuple(pts)
            step = 2.0 / G
            if jmin >= 0:
                step = min(step, max(0.35 * dmin, 1e-11))
            zn, vn, Fn, ok = self._correct(*self._advance(z, v, Fz, step * d), 0.6 * step)
            if not ok and abs(Fn.real) > self.loose:
                # halve and retry once, without the step cap, before giving up
                zn, vn, Fn, _ = self._correct(*self._advance(z, v, Fz, 0.5 * step * d), np.inf)
                if abs(Fn.real) > self.loose:
                    raise TraceStall(f"Newton failed near {zn}")
            dnew = zn - z
            travelled += abs(dnew)
            d = dnew / abs(dnew)
            z, v, Fz = zn, vn, Fn
            pts.append(z)
            if abs(z) >= 1.0 - 1.0 / G:
                # project the continuation onto the boundary circle
                lo, hi = 0.0, 3.0 / G
                while abs(z + hi * d) < 1.0 and hi < 0.5:
                    hi *= 1.5
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if abs(z + mid * d) >= 1.0:
                        hi = mid
                    else:
                        lo = mid
                zb = z + hi * d
                zb /= abs(zb)
                pts.append(zb)
                return ("boundary", np.angle(zb) % (2 * np.pi)), tuple(pts)
        raise TraceStall("arc exceeded the step budget")


# -- public graph construction ---------------------------------------------------


def trace(state: SegregatedState) -> NodalGraph:
    """Planar graph of the nodal set: critical vertices, boundary zeros, arcs."""
    crits = [(z, n) for z, n, _ in state.criticals]
    crit_locs = [z for z, _ in crits]
    bz = boundary_zeros(state)
    G = state.resolution

    snap = []
    for i, (z, n) in enumerate(crits):
        dmin = min(
            [abs(z - w) for j, (w, _) in enumerate(crits) if j != i] + [2.0],
        )
        snap.append(min(2.0 / G, 0.3 * dmin))
    # every integration below passes its own tolerance
    integ = SqrtSegmentIntegrator(state.f)
    marcher = _Marcher(state, integ, crit_locs, snap)

    vertices = []
    for i, (z, n) in enumerate(crits):
        vertices.append(
            Vertex(id=i, location=z, kind="interior-critical", multiplicity=n + 2, index=n)
        )
    bz_base = len(crits)
    for k, ang in enumerate(bz):
        vertices.append(
            Vertex(
                id=bz_base + k,
                location=complex(np.exp(1j * ang)),
                kind="boundary-zero",
                multiplicity=2,
                index=0,
            )
        )

    def bz_vid(angle):
        if not bz:
            return None
        diffs = [abs((angle - a + np.pi) % (2 * np.pi) - np.pi) for a in bz]
        k = int(np.argmin(diffs))
        if diffs[k] > max(0.1, 20.0 / G):
            return None
        return bz_base + k

    raw_arcs = []
    clean = True

    def add_arc(src, start, end, pts):
        """Keep an arc traced from vertex src; False if it reached no other vertex."""
        if isinstance(end, tuple):     # ("boundary", angle)
            end = bz_vid(end[1])
            if end is None or end == src:
                # an arc that immediately returns is a tracing failure
                return False
        raw_arcs.append((src, end, (start,) + pts))
        return True

    for i, (zc, n) in enumerate(crits):
        r_seed = 2.0 * snap[i]
        seeds = _critical_seeds(state.f, integ, zc, n, r_seed)
        if len(seeds) != n + 2:
            clean = False
        for ang, v in seeds:
            z0 = zc + r_seed * np.exp(1j * ang)
            val, _, _ = integ.integrate(z0, zc, v, tol=1e-16 + 1e-13 * r_seed)
            F0 = -2.0 * val
            clean &= add_arc(i, zc, *marcher.run(z0, v, F0, np.exp(1j * ang), i))

    for k, ang in enumerate(bz):
        zb = complex(np.exp(1j * ang))
        z0 = (1.0 - 1.5 / G) * zb
        F0, v0 = state.engine.value_and_sqrt(z0)
        # corrector first: put the start point on the level set
        clean &= add_arc(bz_base + k, zb, *marcher.run(z0, v0, F0, -zb, bz_base + k))

    # dedupe: every interior arc has been traced from each traceable endpoint
    def arclength_mid(pts):
        p = np.asarray(pts)
        seg = np.abs(np.diff(p))
        total = seg.sum()
        if total == 0:
            return pts[0]
        acc = np.concatenate([[0.0], np.cumsum(seg)])
        k = int(np.searchsorted(acc, 0.5 * total))
        return pts[min(k, len(pts) - 1)]

    arcs = []
    used = []
    for a, b, pts in raw_arcs:
        key = (min(a, b), max(a, b))
        mid = arclength_mid(pts)
        dup = False
        for k2, m2 in used:
            if k2 == key and abs(m2 - mid) < 8.0 / G:
                dup = True
                break
        if not dup:
            arcs.append(Arc(a=a, b=b, points=pts))
            used.append((key, mid))

    graph = NodalGraph(
        vertices=tuple(vertices), arcs=tuple(arcs),
        M=len(bz) if bz else (1 if state.n_species else 0),
        N=state.n_species,
        T=_components(vertices, arcs),
        clean=clean,
    )
    for v in graph.vertices:
        want = v.multiplicity if v.kind == "interior-critical" else v.multiplicity - 1
        if graph.incident(v.id) != want:
            graph = NodalGraph(
                vertices=graph.vertices, arcs=graph.arcs,
                M=graph.M, N=graph.N, T=graph.T, clean=False,
            )
            break
    return graph


def _components(vertices, arcs) -> int:
    if not vertices:
        return 0
    parent = {v.id: v.id for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for arc in arcs:
        ra, rb = find(arc.a), find(arc.b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v.id) for v in vertices})


def counts(graph: NodalGraph):
    return graph.M, graph.N, graph.T


def verify_index(graph: NodalGraph) -> IndexReport:
    """Check M = N + T - 1, sum of indices = N - T - 1, and Euler's relation."""
    s = graph.index_sum()
    formula = graph.M == graph.N + graph.T - 1 and s == graph.N - graph.T - 1
    n_edges = len(graph.arcs) + graph.M
    n_vertices = len(graph.vertices)
    euler = n_edges - n_vertices == (graph.N + 1) - 2
    return IndexReport(
        M=graph.M, N=graph.N, T=graph.T, index_sum=s,
        euler_check=bool(euler), formula_check=bool(formula),
    )
