"""Geometry that strandkit once ran, kept as references for what replaced it.

intersect_segments, the exact Fraction segment classifier that
strandkit.geometry once ran on every degenerate contact, decides how two
closed segments meet on their Fraction points: disjoint, a proper crossing
with its point, a touch at one point, or a collinear overlap.  The tests
compare geometry._contact and the arrangement with it, and convex_sets.py
reads cross and intersect_segments.

polyline_self_intersects is the per-polyline test that scene validation
once ran, on one scale for the whole polyline.  The arrangement now decides
a curve's own segment pairs in its sweep over every curve; the tests hold
it to this function and to an all-pairs reference.
"""

from fractions import Fraction
from typing import Optional

from strandkit.geometry import (Point, _common_denominator, _contact, _grid_boxes,
                                _meeting_boxes, _orientations, _scaled)


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area of the parallelogram (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _in_box(p: Point, a: Point, b: Point) -> bool:
    """Is p in the closed bounding box of ab?  For p on the line ab, that is
    p on the closed segment ab."""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


class SegmentIntersection:
    """Classification of how two closed segments meet, with the meeting
    point of a PROPER crossing or a TOUCH."""

    DISJOINT = "disjoint"
    PROPER = "proper"          # transversal crossing in both interiors
    TOUCH = "touch"            # meet at a single point, not interior-interior
    OVERLAP = "overlap"        # collinear with a shared sub-segment

    def __init__(self, kind: str, point: Optional[Point] = None):
        self.kind = kind
        self.point = point


def intersect_segments(a1: Point, a2: Point, b1: Point, b2: Point) -> SegmentIntersection:
    """Exactly classify the intersection of segments a1a2 and b1b2."""
    d1 = cross(b1, b2, a1)
    d2 = cross(b1, b2, a2)
    d3 = cross(a1, a2, b1)
    d4 = cross(a1, a2, b2)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        # proper crossing: solve for the intersection point exactly
        t = d1 / (d1 - d2)
        p = Point(a1.x + (a2.x - a1.x) * t, a1.y + (a2.y - a1.y) * t)
        return SegmentIntersection(SegmentIntersection.PROPER, p)

    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: overlap, touch at one point, or disjoint
        lo_a, hi_a = sorted([a1, a2])
        lo_b, hi_b = sorted([b1, b2])
        lo = max(lo_a, lo_b)
        hi = min(hi_a, hi_b)
        if lo > hi:
            return SegmentIntersection(SegmentIntersection.DISJOINT)
        if lo == hi:
            return SegmentIntersection(SegmentIntersection.TOUCH, lo)
        return SegmentIntersection(SegmentIntersection.OVERLAP)

    # d == 0 puts that endpoint on the other segment's line
    for d, p, q, r in ((d1, a1, b1, b2), (d2, a2, b1, b2),
                       (d3, b1, a1, a2), (d4, b2, a1, a2)):
        if d == 0 and _in_box(p, q, r):
            return SegmentIntersection(SegmentIntersection.TOUCH, p)
    return SegmentIntersection(SegmentIntersection.DISJOINT)


def squared_distance(a: Point, b: Point) -> Fraction:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def polyline_self_intersects(points: list[Point]) -> bool:
    """Does the polyline cross, touch, or overlap itself anywhere?

    Consecutive segments sharing exactly their common vertex are fine;
    anything else (repeated points, back-tracking, crossings) is not.
    """
    # scaling is injective, so repeated points repeat as integer pairs,
    # which hash without Fraction's modular inverse
    P = _scaled(points, _common_denominator(points))
    if len(set(P)) != len(P):
        return True
    # with distinct points, segments pq and qr meet beyond the hinge q only
    # when they are collinear and r lies on p's side of q
    for (px, py), (qx, qy), (rx, ry) in zip(P, P[1:], P[2:]):
        if (qx - px) * (ry - py) == (qy - py) * (rx - px) and \
                (px - qx) * (rx - qx) + (py - qy) * (ry - qy) > 0:
            return True
    for k, l in _meeting_boxes(_grid_boxes(points)):
        if l - k < 2:
            continue
        d = _orientations(P[k], P[k + 1], P[l], P[l + 1])
        if d is not None and (all(d) or _contact(d, P[k], P[k + 1], P[l], P[l + 1]) is not None):
            return True
    return False

