from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.families import gen_grounded, gen_random
from strandkit.geometry import (Point, SegmentIntersection, cross,
                                intersect_segments, polyline_self_intersects,
                                pt)
from convex_sets import (centroid, clip_convex, convex_polygon_contains,
                         polygon_is_convex_ccw)


def test_proper_crossing():
    res = intersect_segments(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert res.kind == SegmentIntersection.PROPER
    assert res.point == pt(1, 1)
    res = intersect_segments(pt(0, 0), pt(2, 0), pt(1, -1), pt(1, 3))
    assert (res.kind, res.point) == (SegmentIntersection.PROPER, pt(1, 0))


def test_touch_at_endpoint():
    res = intersect_segments(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))
    assert res.kind == SegmentIntersection.TOUCH
    assert res.point == pt(1, 1)


def test_endpoint_on_interior_is_touch():
    res = intersect_segments(pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 3))
    assert res.kind == SegmentIntersection.TOUCH
    assert res.point == pt(2, 0)


def test_collinear_overlap():
    res = intersect_segments(pt(0, 0), pt(3, 0), pt(1, 0), pt(5, 0))
    assert res.kind == SegmentIntersection.OVERLAP


def test_collinear_disjoint():
    res = intersect_segments(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0))
    assert res.kind == SegmentIntersection.DISJOINT


def test_parallel_disjoint():
    res = intersect_segments(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    assert res.kind == SegmentIntersection.DISJOINT


def test_exact_rational_crossing_point():
    res = intersect_segments(pt(0, 0), pt(1, 1), pt(0, Fraction(1, 3)), pt(1, 0))
    assert res.kind == SegmentIntersection.PROPER
    assert res.point == Point(Fraction(1, 4), Fraction(1, 4))


def test_polyline_self_intersection():
    assert polyline_self_intersects([pt(0, 0), pt(2, 0), pt(1, 1), pt(1, -1)])
    assert not polyline_self_intersects([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


def all_pairs_self_intersects(points) -> bool:
    """Reference: the exact segment test on every pair of segments."""
    n = len(points)
    if len(set(points)) != n:
        return True
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            res = intersect_segments(points[i], points[i + 1],
                                     points[j], points[j + 1])
            if res.kind == SegmentIntersection.DISJOINT:
                continue
            if j == i + 1 and res.kind == SegmentIntersection.TOUCH \
                    and res.point == points[j]:
                continue
            return True
    return False


# polylines whose segment boxes meet only on their boundary, or nowhere
POLYLINE_FIXTURES = {
    "hinge": ([(0, 0), (2, 0), (2, 2)], False),
    "acute-hinge": ([(0, 0), (4, 0), (1, 1)], False),
    "straight-hinge": ([(0, 0), (1, 0), (2, 0)], False),
    "backtrack": ([(0, 0), (2, 0), (1, 0)], True),
    "backtrack-past-start": ([(1, 0), (2, 0), (0, 0)], True),
    "t-touch": ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 0)], True),
    "box-corner-miss": ([(0, 0), (2, 1), (5, 1), (3, 0), (2, -1)], False),
    "far-apart": ([(0, 0), (1, 0), (5, 5), (6, 5)], False),
}


@pytest.mark.parametrize("name", sorted(POLYLINE_FIXTURES))
def test_self_intersection_fixtures(name):
    points, want = POLYLINE_FIXTURES[name]
    points = [pt(*q) for q in points]
    assert polyline_self_intersects(points) == want
    assert all_pairs_self_intersects(points) == want


@pytest.mark.parametrize("seed", range(4))
def test_filtered_self_intersection_matches_all_pairs_reference(seed):
    """Every curve of two seeded scenes, and every concatenation of two of
    their curves (which often does self-intersect)."""
    seen = set()
    for scene in (gen_grounded(20, seed), gen_random(8, 2, seed)):
        curves = [list(c.points) for c in scene.curves.values()]
        polylines = curves + [a + b for a, b in combinations(curves, 2)]
        for points in polylines:
            got = polyline_self_intersects(points)
            assert got == all_pairs_self_intersects(points)
            seen.add(got)
    assert seen == {False, True}


DEGENERATE = settings(derandomize=True, database=None, deadline=None,
                      max_examples=300)

# polylines on a 4 x 4 integer grid, where repeated points, straight hinges,
# back-tracking, tangencies and collinear overlaps are common
grid_polylines = st.lists(st.builds(pt, st.integers(0, 3), st.integers(0, 3)),
                          min_size=2, max_size=6)


@DEGENERATE
@given(grid_polylines)
def test_self_intersection_matches_all_pairs_reference_on_grid(points):
    assert polyline_self_intersects(points) == all_pairs_self_intersects(points)


def test_convexity_predicate():
    square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
    assert polygon_is_convex_ccw(square)
    assert not polygon_is_convex_ccw(list(reversed(square)))
    dart = [pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4)]
    assert not polygon_is_convex_ccw(dart)


def test_clip_convex_overlap():
    a = [pt(0, 0), pt(3, 0), pt(3, 3), pt(0, 3)]
    b = [pt(1, 1), pt(5, 1), pt(5, 5), pt(1, 5)]
    inter = clip_convex(a, b)
    assert sorted(inter) == sorted([pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3)])


def test_clip_convex_disjoint():
    a = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    b = [pt(5, 5), pt(6, 5), pt(6, 6), pt(5, 6)]
    assert clip_convex(a, b) == []


def test_centroid_and_containment():
    tri = [pt(0, 0), pt(3, 0), pt(0, 3)]
    c = centroid(tri)
    assert c == Point(Fraction(1), Fraction(1))
    assert convex_polygon_contains(tri, c, strict=True)
    assert not convex_polygon_contains(tri, pt(3, 3), strict=True)
    assert not convex_polygon_contains(tri, pt(0, 0), strict=True)


def test_cross_sign():
    assert cross(pt(0, 0), pt(1, 0), pt(0, 1)) > 0
    assert cross(pt(0, 0), pt(0, 1), pt(1, 0)) < 0
    assert cross(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
