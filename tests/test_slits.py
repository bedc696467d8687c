from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from hopfseg.errors import Unreachable
from hopfseg.primitive import PathEngine, pick_reference
from hopfseg.rational import monomial, rational
from hopfseg.slits import (
    Cut,
    _visible,
    build_slit_disk,
    crosses,
    point_segment_distance,
    ray_exit,
    route_between,
    segment_segment_distance,
)


def test_single_odd_zero_default_direction():
    f = monomial(0.25, 3)
    slit = build_slit_disk(f, 0.0)
    assert len(slit.cuts) == 1
    c = slit.cuts[0]
    assert c.anchor == 0
    assert c.direction == pytest.approx(1.0)      # anchor equals base
    assert abs(c.end) == pytest.approx(1.0, abs=1e-14)


def test_even_zero_gets_no_cut():
    w = 0.1 * np.exp(1j * np.pi / 5)
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    slit = build_slit_disk(f, 0.0)
    assert len(slit.cuts) == 1 and slit.cuts[0].anchor == 0


def test_cut_rotates_off_other_roots():
    # w sits on the default +1 direction, so the cut must rotate away
    f = rational(0.25, roots=[(0, 1), (0.1, 2)])
    slit = build_slit_disk(f, 0.0)
    c = slit.cuts[0]
    assert point_segment_distance(0.1, c.anchor, c.end) > 1e-6


def test_opposite_odd_zeros_cuts_clear():
    f = rational(1.0, roots=[(0.5, 1), (-0.5, 1)])
    slit = build_slit_disk(f, 0.0)
    assert len(slit.cuts) == 2
    c1, c2 = slit.cuts
    assert segment_segment_distance(c1.anchor, c1.end, c2.anchor, c2.end) >= 1e-6


def test_route_no_cuts_single_segment():
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    assert route_between(slit, 0.0, 0.5) == (0.0, 0.5)


def test_route_degenerate_target_is_base():
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    assert route_between(slit, 0.0, 0.0) == (0.0,)


def test_route_detours_around_cut():
    # force a cut direction that separates the source from the target
    f = rational(1.0, roots=[(0.0, 1)])
    slit = build_slit_disk(f, 0.3, preferred_dirs={0j: -1.0 + 0.0j})
    # route from a point above the cut [-1, 0] to one below it
    wps = route_between(slit, -0.5 + 0.4j, -0.5 - 0.4j)
    assert len(wps) > 2
    cut = slit.cuts[0]
    for a, b in zip(wps[:-1], wps[1:]):
        mid = 0.5 * (a + b)
        # interior clearance from the cut (endpoints may touch the anchor)
        assert point_segment_distance(mid, cut.anchor, cut.end) >= 1e-8


def _wedge(spacing):
    """Two cuts from anchors spacing apart: one along +1 from 0.1, one from
    the other anchor on along the line between them, at 0.43 rad.  The wedge
    between the cuts opens to the rest of the disk only through the gap
    between the anchors."""
    t = np.exp(0.43j)
    f = rational(0.25, roots=[(0.1, 1), (0.1 + spacing * t, 1)])
    return f, build_slit_disk(f, -0.5, preferred_dirs={0.1: 1.0 + 0j, 0.1 + spacing * t: t})


def test_route_leaves_a_wedge_through_a_gap_of_8p5e_8():
    # the anchors of sweep case 11:24, 8.5e-8 apart: a detour radius floored
    # at 1e-7 put every node past the neighbouring cut
    f, slit = _wedge(8.5e-8)
    src = 0.1 + 0.5 * np.exp(0.2j)
    wps = route_between(slit, src, -0.5)
    assert wps[0] == src and wps[-1] == -0.5
    assert all(_visible(a, b, slit.cuts) for a, b in zip(wps[:-1], wps[1:]))
    assert all(abs(w - 0.1) < 1e-7 for w in wps[1:-1])


def test_route_through_a_gap_below_the_merge_scale_names_it():
    f, slit = _wedge(4e-12)
    with pytest.raises(Unreachable, match=r"lies 1\.67e-12 from another cut"):
        route_between(slit, 0.1 + 0.5 * np.exp(0.2j), -0.5)


def test_a_gap_below_the_merge_scale_blocks_only_routes_through_it():
    # the wedge's pair 4e-12 apart has no detour nodes, but a route round a
    # third cut, far from the pair, still finds its own
    t = np.exp(0.43j)
    f = rational(0.25, roots=[(0.1, 1), (0.1 + 4e-12 * t, 1), (-0.3, 1)])
    slit = build_slit_disk(f, 0.5j, preferred_dirs={0.1: 1.0 + 0j, 0.1 + 4e-12 * t: t, -0.3: -1.0 + 0j})
    wps = route_between(slit, -0.6 + 0.1j, -0.6 - 0.1j)
    assert len(wps) == 3 and abs(wps[1] + 0.3) == pytest.approx(1e-4)


def test_a_root_without_a_cut_keeps_the_detour_radius_above_1e_7():
    # the double zero 2e-12 from the cut's anchor blocks no path: the route
    # goes round the anchor at 1e-7, not at a fifth of 2e-12
    f = rational(0.25, roots=[(0, 2), (2e-12, 1)])
    slit = build_slit_disk(f, -0.5)
    assert slit.cuts[0].direction == 1.0
    wps = route_between(slit, 0.3722 + 0.1107j, 0.5 - 0.1j)
    assert len(wps) == 3 and wps[1] == pytest.approx(2e-12 - 1e-7, abs=1e-20)


def _side(z, cut):
    """Signed distance of z from the cut's line, positive counterclockwise."""
    return ((z - cut.anchor) * np.conj(cut.direction)).imag


def test_route_to_target_on_cut_arrives_counterclockwise():
    f = rational(1.0, roots=[(0.0, 1)])
    slit = build_slit_disk(f, 0.0)
    cut = slit.cuts[0]
    target = cut.anchor + 0.5 * (cut.end - cut.anchor)
    # -0.5 lies on the cut's line behind the anchor: the straight edge to the
    # target runs through the anchor, which the router refuses
    wps = route_between(slit, -0.5, target)
    assert wps[-1] == target and _side(wps[-2], cut) > 0
    for a, b in zip(wps[:-1], wps[1:]):
        assert _visible(a, b, slit.cuts)
        assert point_segment_distance(cut.anchor, a, b) > 0 or cut.anchor in (a, b)
    eng = PathEngine(f, slit)
    ccw = eng.F(target + 1e-10j * cut.direction)
    assert abs(eng.F(target) - ccw) <= 1e-8
    assert abs(eng.F(target - 1e-10j * cut.direction) - ccw) > 0.1


def test_crosses_row_of_cell_centres_on_cut():
    # z^3/4 from base 0 at G = 97: the middle row of cell centres lies on the cut [0, 1]
    G = 97
    c = -1.0 + (np.arange(G) + 0.5) * (2.0 / G)
    Z = c[None, :] + 1j * c[:, None]
    cut = build_slit_disk(monomial(0.25, 3), 0.0).cuts[0]
    mid = G // 2
    assert abs(c[mid]) < 1e-15
    past = c > 0
    for row in (Z[mid], Z[mid] + 1e-16j, Z[mid] - 1e-16j):
        assert not crosses(row[:-1], row[1:], cut.anchor, cut.end).any()
        assert not crosses(row, Z[mid + 1], cut.anchor, cut.end).any()
        assert np.array_equal(crosses(row, Z[mid - 1], cut.anchor, cut.end), past)
        assert np.array_equal(crosses(Z[mid - 1], row, cut.anchor, cut.end), past)


def test_crosses_rim_sample_by_cut_end_is_counterclockwise():
    f = rational(1.0, roots=[(0.3 + 0.1j, 1)])
    cut = build_slit_disk(f, -0.2).cuts[0]
    gap = 2 * np.pi / 64
    before, after = cut.end * np.exp(-1j * gap), cut.end * np.exp(1j * gap)
    tangent = 1j * cut.end
    for off in (0.0, -1e-16, 1e-16):
        sample = cut.end + off * tangent
        assert crosses(before, sample, cut.anchor, cut.end)
        assert not crosses(sample, after, cut.anchor, cut.end)
    # a sample clearly clockwise of the end leaves the end to the next gap
    sample = cut.end * np.exp(-1e-9j)
    assert not crosses(before, sample, cut.anchor, cut.end)
    assert crosses(sample, after, cut.anchor, cut.end)


def test_crosses_step_through_anchor():
    cut = Cut(anchor=0.1 + 0.2j, direction=1j, end=ray_exit(0.1 + 0.2j, 1j))
    a, n = cut.anchor, 1j * cut.direction
    # across the anchor, from the anchor, into the anchor: no step past it
    assert not crosses(a - 0.1 * n, a + 0.1 * n, a, cut.end)
    assert not crosses(a, a - 0.1 * n, a, cut.end)
    assert not crosses(a - 0.1 * n, a, a, cut.end)
    # just past the anchor, the same step crosses
    step = 1e-3 * cut.direction
    assert crosses(a + step - 0.1 * n, a + step + 0.1 * n, a, cut.end)
    # the router refuses both edges through the anchor, across it and along the cut
    assert not _visible(a - 0.1 * n, a + 0.1 * n, (cut,))
    assert not _visible(a - 0.1 * cut.direction, a + 0.1 * cut.direction, (cut,))
    assert _visible(a, a - 0.1 * n, (cut,))


def test_a_step_that_ends_at_its_cuts_anchor_is_visible():
    # the anchor's projection on the step equals the step's squared length up
    # to rounding: the anchor is at the end, not inside the step
    rng = np.random.default_rng(29)
    blocked = 0
    for _ in range(1000):
        a = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        d = np.exp(2j * np.pi * rng.random())
        cut = Cut(anchor=a, direction=d, end=ray_exit(a, d))
        p = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        blocked += not _visible(p, a, (cut,))
    detours = 0
    for _ in range(300):
        z0 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        f = rational(0.25, roots=[(z0, 1)])
        slit = build_slit_disk(f, 0.0)
        detours += len(route_between(slit, pick_reference(f, slit), z0)) > 2
    assert (blocked, detours) == (0, 0)


def _blocked_pairs(seed, count):
    """Seeded slit disks of 3-6 simple zeros, each with a route that the
    first zero's cut blocks: its preferred direction points at the route's
    middle."""
    rng = np.random.default_rng(seed)

    def disk(r):
        return r * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())

    while count:
        roots, n = [disk(0.7)], rng.integers(3, 7)
        while len(roots) < n:
            z = disk(0.7)
            if min(abs(z - r) for r in roots) > 0.05:
                roots.append(z)
        f = rational(0.25, roots=[(z, 1) for z in roots])
        src, dst = disk(0.95), disk(0.95)
        dirs = {z: np.exp(2j * np.pi * rng.random()) for z in roots}
        dirs[roots[0]] = 0.5 * (src + dst) - roots[0]
        slit = build_slit_disk(f, 0.0, preferred_dirs=dirs)
        if slit.on_cut_interior(src) or slit.on_cut_interior(dst) or _visible(src, dst, slit.cuts):
            continue
        count -= 1
        yield slit, src, dst


def test_route_length_matches_a_shortest_path_oracle():
    routed = 0
    for slit, src, dst in _blocked_pairs(31, 40):
        nodes = np.array([src, dst, *slit.nodes])
        w = np.array([[abs(p - q) if _visible(p, q, slit.cuts) else 0.0 for q in nodes] for p in nodes])
        want = shortest_path(w, directed=False, indices=0)[1]
        # between any two nodes, the next-hop walk has the oracle's length
        between = shortest_path(w[2:, 2:], directed=False)
        assert np.array_equal(np.isfinite(slit.dist), np.isfinite(between))
        for i, j in zip(*np.nonzero(np.isfinite(between))):
            walk = [i]
            while walk[-1] != j:
                walk.append(slit.hop[walk[-1], j])
            legs = slit.nodes[walk]
            assert np.sum(np.abs(np.diff(legs))) == pytest.approx(between[i, j], rel=1e-12, abs=1e-15)
            assert _visible(legs[:-1], legs[1:], slit.cuts).all()
        if not np.isfinite(want):
            with pytest.raises(Unreachable):
                route_between(slit, src, dst)
            continue
        wps = route_between(slit, src, dst)
        assert wps[0] == src and wps[-1] == dst and len(wps) > 2
        assert np.sum(np.abs(np.diff(wps))) == pytest.approx(want, rel=1e-12, abs=0)
        assert all(_visible(a, b, slit.cuts) for a, b in zip(wps[:-1], wps[1:]))
        routed += 1
    assert routed >= 30


def test_a_point_in_the_band_of_a_short_cut_is_on_it():
    # the cut [0.9, 1] has length 0.1 and a band of 1e-12 * 0.1 round its
    # line: 5e-13 off the line a point lies on one side, 5e-15 off on the cut
    f = rational(0.25, roots=[(0.9, 1)])
    eng = PathEngine(f, build_slit_disk(f, 0.0))
    up, down = (eng.primitive(0.95 + s * 5e-13j).value for s in (1, -1))
    assert (up, down) == (eng.F(0.95 + 5e-13j), eng.F(0.95 - 5e-13j))
    assert up.real == pytest.approx(-down.real, rel=1e-12) and up.real > 7e-3
    for z in (0.95, 0.95 + 5e-15j, 0.95 - 5e-15j):
        assert eng.slit.on_cut_interior(z)
        with pytest.raises(Unreachable, match="strictly inside a cut"):
            eng.primitive(z)
    # the anchor and the end lie on the cut but not strictly inside it
    assert not any(eng.slit.on_cut_interior(z) for z in (0.9, 1.0, 0.9 + 5e-14, 1.0 - 5e-14))


def _exact_crosses(p, q, a, e):
    """The crossing rule in exact rational arithmetic, without the band."""
    px, py, qx, qy, ax, ay, ex, ey = (Fraction(float(v)) for v in
                                      (p.real, p.imag, q.real, q.imag, a.real, a.imag, e.real, e.imag))
    sx, sy = ex - ax, ey - ay
    dp = sx * (py - ay) - sy * (px - ax)
    dq = sx * (qy - ay) - sy * (qx - ax)
    if (dp > 0) == (dq > 0):
        return False
    t = dp / (dp - dq)
    return sx * (px + t * (qx - px) - ax) + sy * (py + t * (qy - py) - ay) > 0


def test_crosses_matches_exact_side_test_off_the_band():
    rng = np.random.default_rng(7)
    agree = crossed = 0
    for _ in range(40):
        a = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        d = np.exp(2j * np.pi * rng.random())
        cut = Cut(anchor=a, direction=d, end=ray_exit(a, d))
        p, q = (np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200)) for _ in range(2))
        keep = (np.abs(_side(p, cut)) > 1e-9) & (np.abs(_side(q, cut)) > 1e-9)
        p, q = p[keep], q[keep]
        got = crosses(p, q, cut.anchor, cut.end)
        want = np.array([_exact_crosses(u, v, cut.anchor, cut.end) for u, v in zip(p, q)])
        assert np.array_equal(got, want)
        assert np.array_equal(crosses(q, p, cut.anchor, cut.end), got)
        agree += len(p)
        crossed += int(got.sum())
    assert agree > 7000 and crossed > 500


def test_cut_to_boundary_end():
    f = rational(1.0, roots=[(0.3 + 0.4j, 1)])
    slit = build_slit_disk(f, 0.0)
    c = slit.cuts[0]
    assert abs(c.end) == pytest.approx(1.0, abs=1e-12)
    d = (c.end - c.anchor) / abs(c.end - c.anchor)
    assert d == pytest.approx(c.direction, abs=1e-12)
