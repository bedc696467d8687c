"""Slit disk construction and path routing around the cuts.

Each odd-order zero carries one straight cut running from the zero to the
unit circle, by default in the direction away from the base point (the choice
of cuts is immaterial for |Re F|, so we exploit the freedom for determinism).
Routing between points of the slit disk is shortest-path over a small
visibility graph whose only obstacles are the cuts; a blocked cut is rounded
via three detour nodes placed just off its anchor.  build_slit_disk places
the nodes once and stores the shortest path between every pair of them, so a
blocked route only picks the pair of nodes that its ends see and that makes
it shortest.  The route is the integration path as it stands: a leg may pass
a root however close, and the quadrature kernel refines its panels near
roots (quadrature._winding_safe) and halves long legs as its tolerance asks.

A point on a cut belongs to one side of it, by one rule that the grid fill
and the router share through crosses: a point within
ON_CUT_TOL * |cut| of a cut's line lies on its counterclockwise side, the
side of i (end - anchor), and a step crosses the cut when its ends lie on
different sides and it meets the line past the anchor.  A chord of
the closed disk meets the cut's ray only on the cut itself, so the far end
needs no test.  Where the state exists |Re F| is continuous across the cuts,
so the rule only fixes which branch of F a point on a cut reports: the
counterclockwise one, reached by routes that arrive from that side.  A point
within AT_ROOT_TOL of an anchor is at the anchor: it lies inside no cut, and a
step that ends there is not blocked by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutSearchFailed, Unreachable
from .rational import AT_ROOT_TOL, ROOT_MERGE_TOL, RationalFactored

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
CUT_CLEARANCE = 1e-6
ON_CUT_TOL = 1e-12
SEGMENT_TOUCH_TOL = 1e-14    # closed segments this close, relative to the longer, meet
LEG_COST = 1e-14             # a route leg costs its length and this: of routes equal to rounding, the fewest legs win


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


def _inside(z, a, b):
    """Does z lie strictly inside the segment [a, b]?  Vectorised: it lies in
    crosses' band round the line, between the ends and at neither of them."""
    s = b - a
    L2 = s.real * s.real + s.imag * s.imag
    w = (z - a) * s.conjugate()
    return ((abs(w.imag) <= ON_CUT_TOL * L2) & (0.0 < w.real) & (w.real < L2)
            & (abs(z - a) >= AT_ROOT_TOL) & (abs(z - b) >= AT_ROOT_TOL))


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
    """The cuts and the base, and the router's detour graph round the cuts:
    each cut's detour radius, the detour nodes, and the length, with LEG_COST
    per leg, of the shortest path between any two nodes and its next hop."""
    cuts: tuple
    base: complex
    radii: tuple = field(compare=False)
    nodes: np.ndarray = field(compare=False)
    dist: np.ndarray = field(compare=False)
    hop: np.ndarray = field(compare=False)

    def distance_to_cuts(self, z) -> float:
        if not self.cuts:
            return np.inf
        return min(point_segment_distance(complex(z), c.anchor, c.end) for c in self.cuts)

    def on_cut_interior(self, z) -> bool:
        """Does z lie strictly inside a cut, by _inside?"""
        return any(_inside(complex(z), c.anchor, c.end) for c in self.cuts)


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
    return SlitDisk(tuple(cuts), base, *_detour_graph(cuts, f))


def _detour_radius(cut: Cut, cuts, f: RationalFactored) -> float:
    """Radius of the detour nodes round cut's anchor: 1e-4, or a fifth of the
    anchor's distance to the nearest other cut where that is less, so that
    the nodes clear it however close it lies.  A root without a cut blocks
    no path, so it shrinks the radius to no less than 1e-7."""
    r = 1e-4
    for root, _ in f.interior_roots:
        if root != cut.anchor:
            r = min(r, max(0.2 * abs(root - cut.anchor), 1e-7))
    for other in cuts:
        if other is cut:
            continue
        d = segment_segment_distance(cut.anchor, cut.anchor, other.anchor, other.end)
        r = min(r, 0.2 * d)
    return r


def _detour_graph(cuts, f: RationalFactored):
    """(radii, nodes, dist, hop) of SlitDisk: three nodes round each anchor
    whose radius is at least the merge scale, those inside the disk, and
    Floyd-Warshall over the visible pairs."""
    radii = tuple(_detour_radius(c, cuts, f) for c in cuts)
    nodes = np.array([det for c, r in zip(cuts, radii) if r >= ROOT_MERGE_TOL
                      for det in (c.anchor + 1j * r * c.direction, c.anchor - 1j * r * c.direction,
                                  c.anchor - r * c.direction) if abs(det) < 1.0], dtype=complex)
    seen = np.triu(_visible(nodes[:, None], nodes, cuts))  # one test per pair: symmetric edges
    gap = abs(nodes[:, None] - nodes)
    dist = np.where(seen | seen.T, gap + LEG_COST * (gap > 0), np.inf)
    hop = np.broadcast_to(np.arange(len(nodes)), dist.shape)
    for k in range(len(nodes)):
        via = dist[:, k, None] + dist[k]
        hop = np.where(via < dist, hop[:, k, None], hop)
        dist = np.minimum(dist, via)
    return radii, nodes, dist, hop


def _visible(p, q, cuts):
    """May a path run straight from p to q?  Vectorised over p and q: it
    crosses no cut, and no anchor, a branch point, lies inside it by _inside
    (a step through an anchor crosses nothing; one that ends there passes)."""
    a = np.array([c.anchor for c in cuts], dtype=complex)
    e = np.array([c.end for c in cuts], dtype=complex)
    p, q = np.asarray(p)[..., None], np.asarray(q)[..., None]
    return ~(crosses(p, q, a, e) | _inside(a, p, q)).any(axis=-1)


def route_between(slit: SlitDisk, src, dst) -> tuple:
    """Waypoints of a shortest cut-avoiding polyline from src to dst.

    A blocked route runs from src to a detour node i that it sees, along the
    slit disk's shortest path to a node j that dst sees, and on to dst: the
    pair with the least |src - i| + dist[i, j] + |j - dst|, with LEG_COST per
    leg.  An end on a cut lies on its counterclockwise side, so the polyline
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
    ends = np.array([[src], [dst]])
    leg = np.where(_visible(ends, slit.nodes, slit.cuts), abs(slit.nodes - ends) + LEG_COST, np.inf)
    total = leg[0][:, None] + slit.dist + leg[1]
    if not np.isfinite(total).any():
        tight = [(r, c) for r, c in zip(slit.radii, slit.cuts) if r < ROOT_MERGE_TOL]
        if tight:
            r, c = min(tight, key=lambda t: t[0])
            raise Unreachable(f"no route from {src} to {dst}: the cut at {c.anchor} lies "
                              f"{5 * r:.3g} from another cut, and a detour radius {r:.3g} "
                              f"is below the merge scale {ROOT_MERGE_TOL:g}")
        raise Unreachable(f"no route from {src} to {dst} in the slit disk")
    i, j = np.unravel_index(np.argmin(total), total.shape)
    path = [src, slit.nodes[i]]
    while i != j:
        i = slit.hop[i, j]
        path.append(slit.nodes[i])
    return (*path, dst)
