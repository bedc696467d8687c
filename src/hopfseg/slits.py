"""Slit disk construction and path routing around the cuts.

Each odd-order zero carries one straight cut running from the zero to the
unit circle, by default in the direction away from the base point (the choice
of cuts is immaterial for |Re F|, so we exploit the freedom for determinism).
Routing between points of the slit disk is shortest-path over a small
visibility graph whose only obstacles are the cuts; a blocked cut is rounded
via three detour nodes placed just off its anchor.

A point on a cut belongs to one side of it, by one rule that the grid fill
and the router share through crosses: a point within
ON_CUT_TOL * |cut| of a cut's line lies on its counterclockwise side, the
side of i (end - anchor), and a step crosses the cut when its ends lie on
different sides and it meets the line past the anchor.  A chord of
the closed disk meets the cut's ray only on the cut itself, so the far end
needs no test.  Where the state exists |Re F| is continuous across the cuts,
so the rule only fixes which branch of F a point on a cut reports: the
counterclockwise one, reached by routes that arrive from that side.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CutSearchFailed, Unreachable
from .rational import AT_ROOT_TOL, ROOT_MERGE_TOL, RationalFactored

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
CUT_CLEARANCE = 1e-6
ON_CUT_TOL = 1e-12
SEGMENT_TOUCH_TOL = 1e-14    # closed segments this close, relative to the longer, meet
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


def crosses(p, q, anchor, end):
    """Does the step p -> q cross the cut [anchor, end], by the module's rule?

    Vectorised over p and q, and symmetric in them.  A step through the
    anchor itself crosses nothing.
    """
    s = end - anchor
    band = ON_CUT_TOL * (s.real * s.real + s.imag * s.imag)
    wp = (p - anchor) * s.conjugate()
    wq = (q - anchor) * s.conjugate()
    # distances from the line times |cut|, 0 inside the band
    dp = wp.imag * (abs(wp.imag) > band)
    dq = wq.imag * (abs(wq.imag) > band)
    # the step meets the line at p + t (q - p) with t = dp / (dp - dq) in
    # [0, 1], which lies past the anchor when its projection
    # (dp wq.real - dq wp.real) / (dp - dq) onto the cut is positive
    return ((dp >= 0) != (dq >= 0)) & ((dp * wq.real - dq * wp.real) * (dp - dq) > 0)


def segment_segment_distance(p1, p2, q1, q2) -> float:
    if segments_cross(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def segments_cross(p1, p2, q1, q2) -> bool:
    """True if the closed segments intersect at all."""
    d1 = _cross(q2 - q1, p1 - q1)
    d2 = _cross(q2 - q1, p2 - q1)
    d3 = _cross(p2 - p1, q1 - p1)
    d4 = _cross(p2 - p1, q2 - p1)
    scale = max(abs(p2 - p1), abs(q2 - q1), 1e-30)
    e = SEGMENT_TOUCH_TOL * scale * scale
    if ((d1 > e and d2 < -e) or (d1 < -e and d2 > e)) and (
        (d3 > e and d4 < -e) or (d3 < -e and d4 > e)
    ):
        return True

    def on_seg(p, a, b):
        return point_segment_distance(p, a, b) <= SEGMENT_TOUCH_TOL * scale

    return on_seg(p1, q1, q2) or on_seg(p2, q1, q2) or on_seg(q1, p1, p2) or on_seg(q2, p1, p2)


@dataclass(frozen=True)
class Cut:
    anchor: complex
    direction: complex  # unit vector
    end: complex        # point on |z| = 1


@dataclass(frozen=True)
class SlitDisk:
    cuts: tuple
    base: complex

    def distance_to_cuts(self, z) -> float:
        if not self.cuts:
            return np.inf
        return min(point_segment_distance(complex(z), c.anchor, c.end) for c in self.cuts)

    def on_cut_interior(self, z) -> bool:
        z = complex(z)
        if abs(z) >= 1.0 - 1e-12:
            return False
        for c in self.cuts:
            if abs(z - c.anchor) < AT_ROOT_TOL:
                return False
            if point_segment_distance(z, c.anchor, c.end) <= 1e-12:
                return True
        return False


def ray_exit(anchor: complex, direction: complex) -> complex:
    """The point where anchor + t*direction (t>0, |direction| = 1) meets |z| = 1,
    for an anchor in the closed disk (the discriminant is clamped at 0)."""
    b = (anchor.conjugate() * direction).real
    t = -b + np.sqrt(max(b * b + 1.0 - abs(anchor) ** 2, 0.0))
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
        if r == cand.anchor:
            continue
        req = min(CUT_CLEARANCE, 0.2 * abs(r - cand.anchor))
        if point_segment_distance(r, cand.anchor, cand.end) < req:
            return False
    # the base may be the anchor itself but must not sit inside the cut
    if abs(base - cand.anchor) >= AT_ROOT_TOL:
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
    if not abs(base) <= 1.0 + 1e-12:
        raise ValueError("base must lie in the closed disk")

    anchors = [z for z, m in f.interior_roots if m % 2 == 1]
    # deterministic order: farthest from base first (more constrained anchors early)
    anchors.sort(key=lambda z: (-abs(z - base), z.real, z.imag))
    cuts: list[Cut] = []
    for idx, a in enumerate(anchors):
        if preferred_dirs is not None and a in preferred_dirs:
            d0 = preferred_dirs[a]
            d0 = d0 / abs(d0)
        elif abs(a - base) >= AT_ROOT_TOL:
            d0 = (a - base) / abs(a - base)
        else:
            d0 = 1.0 + 0.0j
        placedcut = None
        for k in range(256):
            d = d0 * np.exp(1j * GOLDEN_ANGLE * k)
            cand = Cut(anchor=a, direction=d, end=ray_exit(a, d))
            if _cut_ok(cand, cuts, f, base):
                placedcut = cand
                break
        if placedcut is None:
            raise CutSearchFailed(f"no cut direction found for anchor {a}")
        cuts.append(placedcut)
    return SlitDisk(cuts=tuple(cuts), base=base)


def _detour_radius(cut: Cut, slit: SlitDisk, f: RationalFactored) -> float:
    """Radius of the detour nodes round cut's anchor: 1e-4, or a fifth of the
    anchor's distance to the nearest other cut where that is less, so that
    the nodes clear it however close it lies.  A root without a cut blocks
    no path, so it shrinks the radius to no less than 1e-7."""
    r = 1e-4
    for root, _ in f.interior_roots:
        if root != cut.anchor:
            r = min(r, max(0.2 * abs(root - cut.anchor), 1e-7))
    for other in slit.cuts:
        if other is cut:
            continue
        d = segment_segment_distance(cut.anchor, cut.anchor, other.anchor, other.end)
        r = min(r, 0.2 * d)
    return r


def _visible(p, q, cuts) -> bool:
    """May a path run straight from p to q?  It crosses no cut, and no anchor,
    a branch point, lies inside it (a step through an anchor crosses nothing)."""
    r = q - p
    L2 = abs(r) ** 2
    for c in cuts:
        if crosses(p, q, c.anchor, c.end):
            return False
        w = (c.anchor - p) * r.conjugate()
        if abs(w.imag) <= ON_CUT_TOL * L2 and 0.0 < w.real < L2:
            return False
    return True


def route_between(slit: SlitDisk, f: RationalFactored, src, dst) -> tuple:
    """Waypoints of a shortest cut-avoiding polyline from src to dst.

    An end on a cut lies on its counterclockwise side, so the polyline
    leaves or reaches it from that side."""
    src = complex(src)
    dst = complex(dst)
    for z in (src, dst):
        if abs(z) > 1.0 + 1e-9:
            raise Unreachable(f"{z} outside the closed disk")
    if abs(src - dst) < 1e-15:
        return (src,)
    if _visible(src, dst, slit.cuts):
        return (src, dst)

    nodes = [src, dst]
    tight = None  # the cut with the least detour radius below the merge scale
    for c in slit.cuts:
        r = _detour_radius(c, slit, f)
        if r < ROOT_MERGE_TOL:
            if tight is None or r < tight[1]:
                tight = (c, r)
            continue
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
        if tight is not None:
            c, r = tight
            raise Unreachable(f"no route from {src} to {dst}: the cut at {c.anchor} lies "
                              f"{5 * r:.3g} from another cut, and a detour radius {r:.3g} "
                              f"is below the merge scale {ROOT_MERGE_TOL:g}")
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
                    if abs(root - p) < AT_ROOT_TOL or abs(root - q) < AT_ROOT_TOL:
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


def _split_long(waypoints) -> tuple:
    out = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        k = max(1, int(np.ceil(abs(b - a) / MAX_WAYPOINT_STEP)))
        for i in range(1, k + 1):
            out.append(a + (b - a) * (i / k))
    return tuple(out)


def route_path(slit: SlitDisk, f: RationalFactored, src, dst) -> tuple:
    """Integration waypoints from src to dst: the shortest cut-avoiding
    polyline, bumped off roots it grazes and split into short segments."""
    wps = route_between(slit, f, src, dst)
    wps = _bump_root_grazes(wps, f, slit)
    return _split_long(wps)
