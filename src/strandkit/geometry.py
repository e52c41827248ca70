"""Exact rational plane geometry.

All predicates are decided with fractions.Fraction arithmetic; there is no
floating point anywhere in a decision path, so equality and orientation are
exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


@dataclass(frozen=True, order=True)
class Point:
    x: Fraction
    y: Fraction

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def to_json(self) -> list:
        return [[self.x.numerator, self.x.denominator],
                [self.y.numerator, self.y.denominator]]

    @staticmethod
    def from_json(obj) -> "Point":
        (xn, xd), (yn, yd) = obj
        return Point(Fraction(xn, xd), Fraction(yn, yd))


def pt(x, y) -> Point:
    """Shorthand constructor accepting ints, strings, or Fractions."""
    return Point(Fraction(x), Fraction(y))


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area of the parallelogram (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _in_box(p: Point, a: Point, b: Point) -> bool:
    """Is p in the closed bounding box of ab?  For p on the line ab, that is
    p on the closed segment ab."""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


class SegmentIntersection:
    """Classification of how two closed segments meet.

    A PROPER crossing also carries its parameter t on a1a2 and s on b1b2
    (point = a1 + t (a2 - a1) = b1 + s (b2 - b1)) and the sign of
    (a2 - a1) x (b2 - b1): +1 when b crosses a from right to left.
    """

    DISJOINT = "disjoint"
    PROPER = "proper"          # transversal crossing in both interiors
    TOUCH = "touch"            # meet at a single point, not interior-interior
    OVERLAP = "overlap"        # collinear with a shared sub-segment

    def __init__(self, kind: str, point: Optional[Point] = None,
                 t: Optional[Fraction] = None, s: Optional[Fraction] = None,
                 sign: Optional[int] = None):
        self.kind = kind
        self.point = point
        self.t = t
        self.s = s
        self.sign = sign


def intersect_segments(a1: Point, a2: Point, b1: Point, b2: Point) -> SegmentIntersection:
    """Exactly classify the intersection of segments a1a2 and b1b2."""
    d1 = cross(b1, b2, a1)
    d2 = cross(b1, b2, a2)
    d3 = cross(a1, a2, b1)
    d4 = cross(a1, a2, b2)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        # proper crossing: solve for the intersection point exactly; d3 and
        # d4 have opposite signs and (a2 - a1) x (b2 - b1) = d4 - d3
        t = d1 / (d1 - d2)
        p = Point(a1.x + (a2.x - a1.x) * t, a1.y + (a2.y - a1.y) * t)
        return SegmentIntersection(SegmentIntersection.PROPER, p, t,
                                   d3 / (d3 - d4), 1 if d4 > 0 else -1)

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


def _segment_boxes(points) -> list[tuple]:
    """Closed bounding box (xlo, ylo, xhi, yhi) of each segment of a polyline."""
    return [(min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y))
            for p, q in zip(points, points[1:])]


def _boxes_disjoint(p: tuple, q: tuple) -> bool:
    """Do two closed boxes miss each other?  Boxes that touch still meet.

    Closed segments whose boxes are disjoint cannot meet, so the exact
    segment test is skipped for them; touching boxes keep every tangency,
    overlap and endpoint contact in front of intersect_segments.
    """
    return p[2] < q[0] or q[2] < p[0] or p[3] < q[1] or q[3] < p[1]


def polyline_self_intersects(points: list[Point]) -> bool:
    """Does the polyline cross, touch, or overlap itself anywhere?

    Consecutive segments sharing exactly their common vertex are fine;
    anything else (repeated points, back-tracking, crossings) is not.
    """
    n = len(points)
    if len(set(points)) != n:
        return True
    # with distinct points, segments pq and qr meet beyond the hinge q only
    # when they are collinear and r lies on p's side of q
    for p, q, r in zip(points, points[1:], points[2:]):
        if cross(p, q, r) == 0 and \
                (p.x - q.x) * (r.x - q.x) + (p.y - q.y) * (r.y - q.y) > 0:
            return True
    boxes = _segment_boxes(points)
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if _boxes_disjoint(boxes[i], boxes[j]):
                continue
            res = intersect_segments(points[i], points[i + 1], points[j], points[j + 1])
            if res.kind != SegmentIntersection.DISJOINT:
                return True
    return False


def squared_distance(a: Point, b: Point) -> Fraction:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def convex_polygon_contains(poly: list[Point], p: Point, strict: bool = True) -> bool:
    """Point-in-convex-polygon test; polygon given counter-clockwise."""
    for i in range(len(poly)):
        c = cross(poly[i], poly[(i + 1) % len(poly)], p)
        if strict and c <= 0:
            return False
        if not strict and c < 0:
            return False
    return True


def polygon_is_convex_ccw(poly: list[Point]) -> bool:
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], poly[(i + 2) % n]) <= 0:
            return False
    return True


def centroid(points: Iterable[Point]) -> Point:
    pts = list(points)
    n = Fraction(len(pts))
    return Point(sum((p.x for p in pts), Fraction(0)) / n,
                 sum((p.y for p in pts), Fraction(0)) / n)


def clip_convex(subject: list[Point], clipper: list[Point]) -> list[Point]:
    """Sutherland-Hodgman intersection of two CCW convex polygons."""
    output = subject
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        a, b = clipper[i], clipper[(i + 1) % n]
        new_output: list[Point] = []
        m = len(output)
        for j in range(m):
            p, q = output[j], output[(j + 1) % m]
            p_in = cross(a, b, p) > 0
            q_in = cross(a, b, q) > 0
            if p_in:
                new_output.append(p)
            if p_in != q_in:
                # intersection of pq with line ab
                dp = cross(a, b, p)
                dq = cross(a, b, q)
                t = dp / (dp - dq)
                new_output.append(Point(p.x + (q.x - p.x) * t,
                                        p.y + (q.y - p.y) * t))
        # drop duplicates introduced by touching edges
        dedup: list[Point] = []
        for v in new_output:
            if not dedup or dedup[-1] != v:
                dedup.append(v)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        output = dedup
    return output
