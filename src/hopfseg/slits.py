"""Slit disk construction and path routing around the cuts.

Each odd-order zero carries one straight cut running from the zero to the
unit circle, by default in the direction away from the base point (the choice
of cuts is immaterial for |Re F|, so we exploit the freedom for determinism).
Routing between points of the slit disk is shortest-path over a small
visibility graph whose only obstacles are the cuts; a blocked cut is rounded
via three detour nodes placed just off its anchor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CutSearchFailed, Unreachable
from .rational import RationalFactored

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
CUT_CLEARANCE = 1e-6
PATH_INFLATION = 1e-8
MAX_WAYPOINT_STEP = 0.5


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def segment_segment_distance(p1, p2, q1, q2) -> float:
    if segments_cross(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def segments_cross(p1, p2, q1, q2, eps=1e-14) -> bool:
    """True if the closed segments intersect at all."""
    d1 = _cross(q2 - q1, p1 - q1)
    d2 = _cross(q2 - q1, p2 - q1)
    d3 = _cross(p2 - p1, q1 - p1)
    d4 = _cross(p2 - p1, q2 - p1)
    scale = max(abs(p2 - p1), abs(q2 - q1), 1e-30)
    e = eps * scale * scale
    if ((d1 > e and d2 < -e) or (d1 < -e and d2 > e)) and (
        (d3 > e and d4 < -e) or (d3 < -e and d4 > e)
    ):
        return True

    def on_seg(p, a, b):
        return point_segment_distance(p, a, b) <= eps * scale

    return on_seg(p1, q1, q2) or on_seg(p2, q1, q2) or on_seg(q1, p1, p2) or on_seg(q2, p1, p2)


def _edge_blocked_by_cut(p, q, anchor, end, eps=1e-12) -> bool:
    """Does the straight edge p->q illegally meet the cut [anchor, end]?

    Endpoint touches are allowed (a path may start or finish on the cut,
    e.g. at the anchor or at the boundary end); anything meeting the cut at a
    point interior to the edge is blocked, including passing exactly through
    the anchor.
    """
    r = q - p
    s = end - anchor
    Lr = abs(r)
    Ls = abs(s)
    if Lr < eps:
        return False
    denom = _cross(r, s)
    if abs(denom) <= 1e-14 * Lr * Ls:
        # parallel: blocked only on collinear overlap of positive length
        if point_segment_distance(p, anchor, end) > eps and point_segment_distance(q, anchor, end) > eps:
            return False
        # endpoints sit on the cut line; overlap check via projections
        d = s / Ls
        tp = ((p - anchor) / d).real
        tq = ((q - anchor) / d).real
        lo, hi = min(tp, tq), max(tp, tq)
        overlap = min(hi, Ls) - max(lo, 0.0)
        return overlap > eps
    t = _cross(anchor - p, s) / denom
    u = _cross(anchor - p, r) / denom
    t_eps = eps / Lr
    u_eps = eps / Ls
    if -u_eps <= u <= 1.0 + u_eps and t_eps < t < 1.0 - t_eps:
        return True
    return False


@dataclass(frozen=True)
class Cut:
    anchor: complex
    direction: complex  # unit vector
    end: complex        # point on |z| = 1

    @property
    def length(self) -> float:
        return abs(self.end - self.anchor)


@dataclass(frozen=True)
class SlitDisk:
    cuts: tuple
    base: complex

    def distance_to_cuts(self, z) -> float:
        if not self.cuts:
            return np.inf
        return min(point_segment_distance(complex(z), c.anchor, c.end) for c in self.cuts)

    def on_cut_interior(self, z, tol=1e-12) -> bool:
        z = complex(z)
        if abs(z) >= 1.0 - 1e-12:
            return False
        for c in self.cuts:
            if abs(z - c.anchor) <= tol:
                return False
            if point_segment_distance(z, c.anchor, c.end) <= tol:
                return True
        return False


def _ray_circle_exit(anchor: complex, direction: complex) -> complex:
    """The point where anchor + t*direction (t>0) meets |z| = 1."""
    b = (anchor.conjugate() * direction).real
    disc = b * b + 1.0 - abs(anchor) ** 2
    t = -b + np.sqrt(disc)
    return anchor + t * direction


def _cut_ok(cand: Cut, placed, f: RationalFactored, base: complex) -> bool:
    """Cuts must not cross; clearances shrink proportionally for clustered
    anchors (splitting outputs put zeros arbitrarily close together)."""
    for other in placed:
        req = min(CUT_CLEARANCE, 0.2 * abs(cand.anchor - other.anchor))
        if segments_cross(cand.anchor, cand.end, other.anchor, other.end):
            return False
        if segment_segment_distance(cand.anchor, cand.end, other.anchor, other.end) < req:
            return False
    for r, _ in f.interior_roots:
        if abs(r - cand.anchor) < 1e-12:
            continue
        req = min(CUT_CLEARANCE, 0.2 * abs(r - cand.anchor))
        if point_segment_distance(r, cand.anchor, cand.end) < req:
            return False
    # the base may be the anchor itself but must not sit inside the cut
    if abs(base - cand.anchor) > 1e-12:
        req = min(1e-9, 0.2 * abs(base - cand.anchor))
        if point_segment_distance(base, cand.anchor, cand.end) < req:
            return False
    return True


def build_slit_disk(f: RationalFactored, base, preferred_dirs=None) -> SlitDisk:
    """One straight cut per odd-order zero, from the zero to the boundary.

    The default direction points away from the base (or +1 when the anchor is
    the base itself); on conflicts the direction rotates by the golden angle
    until all cuts clear each other, the other roots, and the base.
    """
    base = complex(base)
    if abs(base) > 1.0 + 1e-12:
        raise ValueError("base must lie in the closed disk")

    anchors = [z for z, m in f.interior_roots if m % 2 == 1]
    # deterministic order: farthest from base first (more constrained anchors early)
    anchors.sort(key=lambda z: (-abs(z - base), z.real, z.imag))
    cuts: list[Cut] = []
    for idx, a in enumerate(anchors):
        if preferred_dirs is not None and a in preferred_dirs:
            d0 = preferred_dirs[a]
            d0 = d0 / abs(d0)
        elif abs(a - base) > 1e-12:
            d0 = (a - base) / abs(a - base)
        else:
            d0 = 1.0 + 0.0j
        placedcut = None
        for k in range(256):
            d = d0 * np.exp(1j * GOLDEN_ANGLE * k)
            cand = Cut(anchor=a, direction=d, end=_ray_circle_exit(a, d))
            if _cut_ok(cand, cuts, f, base):
                placedcut = cand
                break
        if placedcut is None:
            raise CutSearchFailed(f"no cut direction found for anchor {a}")
        cuts.append(placedcut)
    return SlitDisk(cuts=tuple(cuts), base=base)


def _detour_radius(cut: Cut, slit: SlitDisk, f: RationalFactored) -> float:
    r = 1e-4
    for other in slit.cuts:
        if other is cut:
            continue
        d = segment_segment_distance(cut.anchor, cut.anchor, other.anchor, other.end)
        r = min(r, 0.2 * d)
    for root, _ in f.interior_roots:
        if abs(root - cut.anchor) > 1e-12:
            r = min(r, 0.2 * abs(root - cut.anchor))
    return max(r, 1e-7)


def _visible(p, q, cuts) -> bool:
    return not any(_edge_blocked_by_cut(p, q, c.anchor, c.end) for c in cuts)


def route_between(slit: SlitDisk, f: RationalFactored, src, dst) -> tuple:
    """Waypoints of a shortest cut-avoiding polyline from src to dst."""
    src = complex(src)
    dst = complex(dst)
    for z in (src, dst):
        if abs(z) > 1.0 + 1e-9:
            raise Unreachable(f"{z} outside the closed disk")
    if slit.on_cut_interior(dst):
        raise Unreachable(f"target {dst} lies strictly inside a cut")
    if slit.on_cut_interior(src):
        raise Unreachable(f"source {src} lies strictly inside a cut")
    if abs(src - dst) < 1e-15:
        return (src,)
    if _visible(src, dst, slit.cuts):
        return (src, dst)

    nodes = [src, dst]
    for c in slit.cuts:
        r = _detour_radius(c, slit, f)
        u = c.direction
        for det in (c.anchor + 1j * r * u, c.anchor - 1j * r * u, c.anchor - r * u):
            if abs(det) < 1.0:
                nodes.append(det)
    n = len(nodes)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _visible(nodes[i], nodes[j], slit.cuts):
                w = abs(nodes[i] - nodes[j])
                adj[i].append((j, w))
                adj[j].append((i, w))
    dist = [np.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    pq = [(0.0, 0)]
    while pq:
        d, i = heapq.heappop(pq)
        if d > dist[i] + 1e-18:
            continue
        if i == 1:
            break
        for j, w in adj[i]:
            nd = d + w
            if nd < dist[j] - 1e-18:
                dist[j] = nd
                prev[j] = i
                heapq.heappush(pq, (nd, j))
    if not np.isfinite(dist[1]):
        raise Unreachable(f"no route from {src} to {dst} in the slit disk")
    path = []
    i = 1
    while i != -1:
        path.append(nodes[i])
        i = prev[i]
    path.reverse()
    return tuple(path)


def _bump_root_grazes(waypoints, f: RationalFactored, slit: SlitDisk) -> tuple:
    """Insert offsets so no segment interior passes through a root."""
    out = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = [a, b]
        changed = True
        guard = 0
        while changed and guard < 16:
            changed = False
            guard += 1
            new_seg = [seg[0]]
            for p, q in zip(seg[:-1], seg[1:]):
                for root, _ in f.interior_roots:
                    if abs(root - p) < 1e-13 or abs(root - q) < 1e-13:
                        continue
                    if point_segment_distance(root, p, q) < 1e-7 and abs(q - p) > 1e-9:
                        u = (q - p) / abs(q - p)
                        for sign in (1.0, -1.0):
                            w = root + sign * 1e-5 * 1j * u
                            if abs(w) < 1.0 and _visible(p, w, slit.cuts) and _visible(w, q, slit.cuts):
                                new_seg.append(w)
                                changed = True
                                break
                        break
                new_seg.append(q)
            seg = new_seg
        out.extend(seg[1:])
    return tuple(out)


def _split_long(waypoints, max_step=MAX_WAYPOINT_STEP) -> tuple:
    out = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        k = max(1, int(np.ceil(abs(b - a) / max_step)))
        for i in range(1, k + 1):
            out.append(a + (b - a) * (i / k))
    return tuple(out)


def route_path(slit: SlitDisk, f: RationalFactored, src, dst) -> tuple:
    """Integration waypoints from src to dst: the shortest cut-avoiding
    polyline, bumped off roots it grazes and split into short segments."""
    wps = route_between(slit, f, src, dst)
    wps = _bump_root_grazes(wps, f, slit)
    return _split_long(wps)
