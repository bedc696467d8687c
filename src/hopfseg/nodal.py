"""Nodal-set tracing into a planar graph, and the counting identities.

The vertices of the graph are the criticals on {U = 0} and the boundary
zeros, where the nodal set meets the rim.  Every arc has two ends: a seed,
where the arc crosses a small circle around a critical, or a boundary zero.
`trace` walks the list of ends once and marches an arc only from an end that
no earlier arc has arrived at, so each arc is marched exactly once; each
arrival uses up the end it lands on.

Arcs are continued by predictor steps along the level set with a Newton
corrector (the gradient of Re F is conj(F') = 2 conj(f^{1/2}), known in
closed form along the continuation).  Every move, predictor or corrector,
carries F by a Taylor series of f^{1/2} from the point's f.jet, of the least
order a Cauchy bound certifies, and by an integral where no order up to
JET_CAP does (next to a zero of f, or a long move).  The step follows the
geometry: the curvature of a level curve is at most |f'/f|/2, read from the
same jet, which sizes each step so that its chord stays within 0.1/G of the
arc.  The seeds on a critical's circle come from the march the rim uses
(primitive.circle_march and circle_zeros), started from one radial value,
and carry F to the arcs they start.  Crossing a cut merely flips the local
sheet, Re F -> -Re F, so the marcher never needs to know where a cut runs;
near critical points all values are taken relative to the critical point
itself, which keeps full precision at any scale of approach.  The boundary
zeros come from the state's PathEngine, which owns the boundary march.  A
polyline runs from vertex to vertex, and every point between lies on the
level set strictly inside the disk.

The tracer reads only the state's analytic part (states.AnalyticState), and
no grid.  The species count N is the number of faces of the arcs and the rim
pieces between boundary zeros, less the outer one, from a face walk in which
each arc leaves a critical at the seed angle of the end it used (faces).
Euler's relation then checks those cyclic orders, and M = N + T - 1 and
sum i(z) = N - T - 1 check N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import TraceStall
from .primitive import chord_value, circle_march, circle_zeros
from .quadrature import SqrtSegmentIntegrator, nearest_sqrt
from .slits import ray_exit
from .states import AnalyticState, spanning_forest

# the most Taylor terms a tracer move may take before it falls back to the integral
JET_CAP = 24


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
    # the arc's seed angles at a and b, its place in the cyclic order round a
    # critical; at a boundary zero, the zero's rim angle
    angles: tuple


@dataclass(frozen=True)
class NodalGraph:
    vertices: tuple
    arcs: tuple
    M: int
    N: int
    T: int
    clean: bool = True
    # the tracer's counters (steps, moves by kind, retries, integrals), not the graph's
    diagnostics: dict = field(default_factory=dict, compare=False)

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


def boundary_zeros(state: AnalyticState):
    """Angles where the boundary trace of Re F changes sign.

    The state's engine finds them along its own memoised boundary march
    (PathEngine.boundary_zeros), at 64 samples per unit of total order
    beyond two, and at least 256.
    """
    n = max(256, 64 * (state.f.total_interior_order + 2))
    return state.engine.boundary_zeros(n)


# -- seeds around a critical point -------------------------------------------


def _critical_seeds(f, integ, zc: complex, order: int, r_seed: float):
    """(angle, f^{1/2}, F - F(zc)) where {Re F = 0} crosses a small circle
    around the critical.

    One radial integral gives F - F(zc) at angle 0, and circle_march of
    32 (order + 2) samples continues it round the circle; circle_zeros
    refines each zero to 1e-12, and chord_value gives F and f^{1/2} there.
    Every integral runs at tolerance 1e-16 + 1e-12 r, which keeps precision
    relative to the local scale r^{m/2}; all but the chords of the march go
    through integ.
    """
    tol = 1e-16 + 1e-12 * r_seed
    v0 = np.sqrt(f.eval(zc + r_seed))
    val, _, _ = integ.integrate(zc + r_seed, zc, v0, tol=tol)
    th, w, F, vs = circle_march(SqrtSegmentIntegrator(f, tol), zc, r_seed, 32 * (order + 2),
                                -2.0 * val, v0)
    seeds = []
    for t, k in circle_zeros(integ, zc, r_seed, th, w, F, vs, 1e-12, tol):
        Ft, vt = chord_value(integ, zc, r_seed, w[k], F[k], vs[k], t, tol)
        seeds.append((t, vt, Ft))
    return seeds


# -- the marcher -------------------------------------------------------------


class _Marcher:
    def __init__(self, state: AnalyticState):
        # every integration below passes its own tolerance
        self.integ = SqrtSegmentIntegrator(state.f)
        self.engine = state.engine
        self.crit_locs = [z for z, _, _ in state.criticals]
        self.G = G = state.resolution
        self.crit_snap = [
            min(2.0 / G, 0.3 * min([abs(z - w) for w in self.crit_locs if w != z] + [2.0]))
            for z in self.crit_locs
        ]
        self.tight = 1e-12 * max(1.0, state.scale)
        self.loose = 1e-9 * max(1.0, state.scale)
        self.counts = dict.fromkeys(("steps", "jet_moves", "integral_moves", "retries"), 0)

    def _advance(self, z, v, Fz, dz):
        """Move by dz, returning updated (z, v, F) by the adaptive GK15 integrator."""
        val, _, v2 = self.integ.integrate(z, z + dz, v, tol=1e-13 * max(abs(dz), 1e-12))
        return z + dz, v2, Fz + 2.0 * val

    def _correct(self, z, v, Fz, jet, cap):
        """Newton corrector onto Re F = 0 (the gradient of Re F is conj(F')).

        Each move goes through _move; the residual is tested after every move.
        Gives up on a step longer than cap; returns (z, v, F, jet, converged).
        """
        for _ in range(12):
            Fp = 2.0 * v
            g2 = abs(Fp) ** 2
            if g2 < 1e-60:
                break
            corr = -Fz.real * np.conj(Fp) / g2
            if abs(corr) > cap:
                break
            z, v, Fz, jet = self._move(z, v, Fz, corr, jet)
            if abs(Fz.real) < self.tight:
                return z, v, Fz, jet, True
        return z, v, Fz, jet, False

    def _move(self, z, v, Fz, c, jet):
        """(z, v, F, jet) moved by c, by the Taylor jet where certified (_jet_move),
        else by the integral (_advance); jet is f.jet(z, JET_CAP) at every point."""
        moved = self._jet_move(z, v, Fz, c, jet)
        self.counts["jet_moves" if moved else "integral_moves"] += 1
        z, v, Fz = moved or self._advance(z, v, Fz, c)
        jet = self.integ.f.jet(z, JET_CAP)
        return z, nearest_sqrt(jet[4], v), Fz, jet

    def _jet_move(self, z, v, Fz, c, jet):
        """(z + c, the series' f^{1/2} there, F + 2 sum_{k<K} v_k c^(k+1)/(k+1)), or None.

        f^{1/2} = sum v_k c^k with (k+1) v_{k+1} = 1/2 sum_i v_i l_{k-i}, as v' = v L/2.
        By Cauchy's estimates on the jet's disk, where |f^{1/2}| <= M = |v| g^{1/2},
        the rest is at most 2 M |c| q^K / (1 - q), q = |c| / rho < 1/2; F is carried
        from move to move, so K is the least order from 3 (fewer terms err near
        the bound on short Newton moves) to JET_CAP that puts it below tight/10.
        """
        rho, g, _, ell, _ = jet
        q = abs(c) / rho
        Mc, lim = 20.0 * abs(v) * np.sqrt(g) * abs(c), (1.0 - q) * self.tight
        K = next((k for k in range(3, JET_CAP + 1) if Mc * q ** k < lim), None)
        if q >= 0.5 or K is None:
            return None
        vs = [v]
        for k in range(K - 1):
            vs.append(0.5 * sum(map(mul, vs, ell[k::-1])) / (k + 1))
        dF = vc = 0j
        for k in range(K - 1, -1, -1):
            dF = (dF + vs[k] / (k + 1)) * c
            vc = vc * c + vs[k]
        return z + c, vc, Fz + 2.0 * dF

    def run(self, z0, v0, F0, direction, src):
        """Trace one arc until it reaches the rim or snaps to a critical.

        The step is a quarter of the distance to the nearest root, at most
        4 sqrt(s / |f'/f|) with s = 0.1/G, so that the chord sagitta
        kappa h^2 / 8 stays below s (kappa <= |f'/f| / 2), and at most half
        the distance to the rim.  Then it is clipped to [2/G, 0.1], and to
        0.35 times the distance to the nearest critical.

        src is the index of the critical the arc leaves, or None.  Returns
        (the arrival critical's index or None on the rim, the arrival angle,
        the marched points inside the disk).  The arrival angle is that of
        the last marched point around the critical, or of the exit point on
        the rim.
        """
        pts = [z0]
        z, v, Fz, jet = z0, v0, F0, self.integ.f.jet(z0, JET_CAP)
        d = direction / abs(direction)
        G = self.G
        travelled = 0.0
        for _ in range(40 * G + 200):
            dmin, jmin = np.inf, -1
            for j, c in enumerate(self.crit_locs):
                dd = abs(z - c)
                if dd < dmin:
                    dmin, jmin = dd, j
            if jmin >= 0 and dmin <= self.crit_snap[jmin]:
                if src != jmin or travelled > 3.0 * self.crit_snap[jmin]:
                    return jmin, np.angle(z - self.crit_locs[jmin]), _inside(pts)
            kappa2 = abs(jet[3][0])  # |f'/f|, at least twice the curvature
            step = min(0.25 * jet[2],
                       4.0 * np.sqrt(0.1 / (G * kappa2)) if kappa2 else np.inf,
                       0.5 * (1.0 - abs(z)))
            step = min(max(step, 2.0 / G), 0.1)
            if jmin >= 0:
                step = min(step, 0.35 * dmin)
            self.counts["steps"] += 1
            zn, vn, Fn, jn, ok = self._correct(*self._move(z, v, Fz, step * d, jet), 0.6 * step)
            if not ok and abs(Fn.real) > self.loose:
                # halve and retry once, without the step cap, before giving up
                self.counts["retries"] += 1
                zn, vn, Fn, jn, _ = self._correct(*self._move(z, v, Fz, step * d / 2, jet), np.inf)
                if abs(Fn.real) > self.loose:
                    raise TraceStall(f"Newton failed near {zn}")
            dnew = zn - z
            travelled += abs(dnew)
            d = dnew / abs(dnew)
            z, v, Fz, jet = zn, vn, Fn, jn
            pts.append(z)
            if abs(z) >= 1.0 - 1.0 / G:
                return None, np.angle(ray_exit(z, d)), _inside(pts)
        raise TraceStall("arc exceeded the step budget")

    def start_at_seed(self, i, ang, v, F):
        """March from the seed of critical i at angle ang, where f^{1/2} is v
        and F - F(zc) is F."""
        zc, r_seed = self.crit_locs[i], 2.0 * self.crit_snap[i]
        return self.run(zc + r_seed * np.exp(1j * ang), v, F, np.exp(1j * ang), i)

    def start_on_rim(self, zb):
        """March from the boundary zero zb into the disk along the level set.

        The start is put on the level set by the corrector first, and the
        march heads along its tangent i*conj(f^{1/2}), oriented inward.
        """
        z0 = (1.0 - 1.5 / self.G) * zb
        F0, v0 = self.engine.value_and_sqrt(z0)
        z0, v0, F0, _, _ = self._correct(z0, v0, F0, self.integ.f.jet(z0, JET_CAP), np.inf)
        tangent = 1j * np.conj(v0)
        if (np.conj(zb) * tangent).real > 0:
            tangent = -tangent
        return self.run(z0, v0, F0, tangent, None)


def _inside(pts):
    return tuple(p for p in pts if abs(p) < 1.0)


# -- public graph construction ---------------------------------------------------


def trace(state: AnalyticState) -> NodalGraph:
    """Planar graph of the nodal set: critical vertices, boundary zeros, arcs.

    Every arc has two ends: a seed on a critical's snap circle or a boundary
    zero.  The ends are walked once, and an arc is marched only from an end
    that no earlier arc has arrived at; its arrival uses up the unused end
    nearest the arrival angle.  An arrival that finds no unused end, or a
    critical with the wrong number of seeds, makes the trace unclean.  N is
    the number of faces less the outer one (faces).
    """
    crits = [(z, n) for z, n, _ in state.criticals]
    rim_integrals = state.engine.integrals
    bz = boundary_zeros(state)
    G = state.resolution
    marcher = _Marcher(state)

    vertices = [
        Vertex(id=i, location=z, kind="interior-critical", multiplicity=n + 2, index=n)
        for i, (z, n) in enumerate(crits)
    ] + [
        Vertex(id=len(crits) + k, location=complex(np.exp(1j * ang)),
               kind="boundary-zero", multiplicity=2, index=0)
        for k, ang in enumerate(bz)
    ]

    # arc ends as (vertex id, angle, (f^{1/2}, F) at a seed or None at a boundary zero)
    ends = []
    clean = True
    for i, (zc, n) in enumerate(crits):
        seeds = _critical_seeds(state.f, marcher.integ, zc, n, 2.0 * marcher.crit_snap[i])
        clean &= len(seeds) == n + 2
        ends += [(i, ang, (v, F)) for ang, v, F in seeds]
    ends += [(vert.id, ang, None) for vert, ang in zip(vertices[len(crits):], bz)]
    used = [False] * len(ends)

    def claim(at, angle):
        """Use up the unused end nearest angle at a critical (or on the rim if
        None), and return it, or None if none is near."""
        tol = max(0.1, 20.0 / G) if at is None else np.pi / (crits[at][1] + 2)
        gap, k = min(
            ((abs((angle - a + np.pi) % (2 * np.pi) - np.pi), k) for k, (vid, a, seed) in enumerate(ends)
             if not used[k] and (vid == at if at is not None else seed is None)),
            default=(np.inf, None),
        )
        if gap > tol:
            return None
        used[k] = True
        return ends[k]

    arcs = []
    for k, (vid, ang, seed) in enumerate(ends):
        if used[k]:
            continue
        used[k] = True
        if seed is None:
            at, arrival, pts = marcher.start_on_rim(vertices[vid].location)
        else:
            at, arrival, pts = marcher.start_at_seed(vid, ang, *seed)
        end = claim(at, arrival)
        if end is None:
            clean = False
            continue
        b, b_ang, _ = end
        ends_at = (vertices[vid].location,) + pts + (vertices[b].location,)
        arcs.append(Arc(a=vid, b=b, points=ends_at, angles=(ang, b_ang)))

    # the faces less the outer one; a rim without zeros, which the walk does
    # not visit, adds two faces of its own, the disk and the outer one
    N = len(faces(vertices, arcs)) - 1 + (0 if bz else 2)
    return NodalGraph(
        vertices=tuple(vertices), arcs=tuple(arcs),
        M=len(bz) or 1,
        N=N,
        T=_components(len(vertices), arcs),
        clean=clean,
        diagnostics={**marcher.counts, "integrals": marcher.integ.integrals
                     + state.engine.integrals - rim_integrals},
    )


def faces(vertices, arcs) -> list:
    """The faces of the arcs and the rim, each as the cycle of darts round it.

    The graph is the arcs plus the rim pieces between consecutive boundary
    zeros, walked as a rotation system (the face traversal of a doubly
    connected edge list; de Berg et al., Computational Geometry, 3rd ed.,
    2.2).  Round a critical, the darts leaving it are in the counterclockwise
    order of their seed angles (Arc.angles); round a boundary zero, the rim
    piece running counterclockwise, then its arc into the disk, then the
    rim piece running clockwise.  A face's cycle keeps it on the left.  A
    dart is (k, forward): k < len(arcs) is arcs[k], from a to b if forward,
    and k = len(arcs) + j is the rim piece from the j-th boundary zero
    counterclockwise to the next, run counterclockwise if forward.

    With a planar cyclic order at every vertex and a connected graph, Euler's
    relation holds for the faces found; a wrong order leaves fewer.  A rim
    without zeros is not walked.
    """
    rim = [v.id for v in vertices if v.kind == "boundary-zero"]
    critical = {v.id for v in vertices if v.kind == "interior-critical"}
    out = {}                       # vertex -> [(key, dart)], the darts leaving it
    for k, arc in enumerate(arcs):
        for vid, ang, forward in ((arc.a, arc.angles[0], True), (arc.b, arc.angles[1], False)):
            key = ang % (2 * np.pi) if vid in critical else 2.0
            out.setdefault(vid, []).append((key, (k, forward)))
    for j, vid in enumerate(rim):
        out.setdefault(vid, []).append((1.0, (len(arcs) + j, True)))
        out.setdefault(rim[(j + 1) % len(rim)], []).append((3.0, (len(arcs) + j, False)))
    turn = {}                      # dart -> the dart before it round its origin
    for darts in out.values():
        darts.sort()
        for (_, d), (_, before) in zip(darts, darts[-1:] + darts[:-1]):
            turn[d] = before
    seen, cycles = set(), []
    for start in turn:
        if start in seen:
            continue
        cycle, d = [], start
        while d not in seen:
            seen.add(d)
            cycle.append(d)
            d = turn[(d[0], not d[1])]
        cycles.append(cycle)
    return cycles


def _components(n_vertices: int, arcs) -> int:
    if not n_vertices:
        return 0
    ends = np.array([(a.a, a.b) for a in arcs], dtype=np.int64).reshape(-1, 2)
    comp, _ = spanning_forest(n_vertices, ends[:, 0], ends[:, 1])
    return int(comp.max()) + 1


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
