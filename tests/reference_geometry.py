"""The exact Fraction segment classifier that strandkit.geometry once ran on
every degenerate contact, kept as the reference for its integer kernel.

intersect_segments decides how two closed segments meet on their Fraction
points: disjoint, a proper crossing with its point, a touch at one point,
or a collinear overlap.  The tests compare geometry._contact, the
arrangement and polyline_self_intersects with it, and convex_sets.py reads
cross and intersect_segments.
"""

from fractions import Fraction
from typing import Optional

from strandkit.geometry import Point


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
