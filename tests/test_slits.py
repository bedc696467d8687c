import numpy as np
import pytest

from hopfseg.errors import Unreachable
from hopfseg.rational import monomial, rational
from hopfseg.slits import (
    build_slit_disk,
    point_segment_distance,
    route_between,
    route_path,
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
    assert route_path(slit, f, 0.0, 0.5) == (0.0, 0.5)


def test_route_degenerate_target_is_base():
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    assert route_path(slit, f, 0.0, 0.0) == (0.0,)


def test_route_detours_around_cut():
    # force a cut direction that separates the source from the target
    f = rational(1.0, roots=[(0.0, 1)])
    slit = build_slit_disk(f, 0.3, preferred_dirs={0j: -1.0 + 0.0j})
    # route from a point above the cut [-1, 0] to one below it
    wps = route_between(slit, f, -0.5 + 0.4j, -0.5 - 0.4j)
    assert len(wps) > 2
    cut = slit.cuts[0]
    for a, b in zip(wps[:-1], wps[1:]):
        mid = 0.5 * (a + b)
        # interior clearance from the cut (endpoints may touch the anchor)
        assert point_segment_distance(mid, cut.anchor, cut.end) >= 1e-8


def test_target_inside_cut_unreachable():
    f = rational(1.0, roots=[(0.0, 1)])
    slit = build_slit_disk(f, 0.0)
    cut = slit.cuts[0]
    inside_cut = cut.anchor + 0.5 * (cut.end - cut.anchor)
    with pytest.raises(Unreachable):
        route_between(slit, f, -0.5, inside_cut)


def test_waypoint_spacing_bound():
    f = rational(0.25)
    slit = build_slit_disk(f, -0.9)
    steps = np.abs(np.diff(np.array(route_path(slit, f, -0.9, 0.9))))
    assert np.all(steps <= 0.5 + 1e-12)


def test_cut_to_boundary_end():
    f = rational(1.0, roots=[(0.3 + 0.4j, 1)])
    slit = build_slit_disk(f, 0.0)
    c = slit.cuts[0]
    assert abs(c.end) == pytest.approx(1.0, abs=1e-12)
    d = (c.end - c.anchor) / abs(c.end - c.anchor)
    assert d == pytest.approx(c.direction, abs=1e-12)
