"""Exact rational plane geometry.

The hot predicates run on Python ints.  A segment, or a whole polyline, is
scaled by D, the lcm of its coordinate denominators, so its points become
integer pairs; two segments with different D meet on the lcm of the two.
Every orientation, box and distance comparison is then an integer one with
the sign of its rational original.  The arrangement orders crossings along
a curve by integer arc keys and reuses a segment's own coordinate where the
segment is constant in it; fractions.Fraction builds the other crossing
coordinates and classifies the rare degenerate contact through
intersect_segments.  There is no floating point anywhere in a decision path,
so equality and orientation are exact and deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import SceneError


class Point(NamedTuple):
    """A point with exact rational coordinates; ordered by (x, y)."""
    x: Fraction
    y: Fraction

    def to_json(self) -> list:
        return [[self.x.numerator, self.x.denominator],
                [self.y.numerator, self.y.denominator]]

    @staticmethod
    def from_json(obj) -> "Point":
        (xn, xd), (yn, yd) = obj
        for value in (xn, xd, yn, yd):
            _json_int(value, "point coordinate")
        return Point(Fraction(xn, xd), Fraction(yn, yd))


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; a bool, float or string is invalid."""
    if type(value) is not int:
        raise SceneError(f"{what} must be an integer, got {value!r}")
    return value


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


def _common_denominator(points: Iterable[Point]) -> int:
    """The lcm of every coordinate denominator of points."""
    return math.lcm(*{q.denominator for p in points for q in (p.x, p.y)})


def _scaled(points: Iterable[Point], D: int) -> list[tuple[int, int]]:
    """Each point times D as an integer pair; D is a common denominator."""
    return [(p.x.numerator * (D // p.x.denominator),
             p.y.numerator * (D // p.y.denominator)) for p in points]


def _orientations(a1, a2, b1, b2, ma: int = 1, mb: int = 1
                  ) -> Optional[tuple[int, int, int, int]]:
    """intersect_segments' d1..d4 for segments of integer points, or None
    when one segment lies strictly on one side of the other's line, so the
    closed segments are disjoint.

    a1a2 and b1b2 may be on different scales: a point of a times ma and a
    point of b times mb are on one.  Each direction stays on its own scale,
    so d1, d2 come out times one positive factor and d3, d4 times another:
    their signs and the ratios d1 / (d1 - d2) and d3 / (d3 - d4) are exact.
    With all four nonzero the segments cross properly; a zero leaves a
    contact for intersect_segments.
    """
    (ax1, ay1), (ax2, ay2) = a1, a2
    (bx1, by1), (bx2, by2) = b1, b2
    px, py, qx, qy = ax1 * ma, ay1 * ma, bx1 * mb, by1 * mb
    bx, by = bx2 - bx1, by2 - by1
    d1 = bx * (py - qy) - by * (px - qx)
    d2 = bx * (ay2 * ma - qy) - by * (ax2 * ma - qx)
    if d1 > 0 < d2 or d1 < 0 > d2:
        return None
    ax, ay = ax2 - ax1, ay2 - ay1
    d3 = ax * (qy - py) - ay * (qx - px)
    d4 = ax * (by2 * mb - py) - ay * (bx2 * mb - px)
    if d3 > 0 < d4 or d3 < 0 > d4:
        return None
    return d1, d2, d3, d4


# The sweep compares segment boxes on the grid of step 2^-_GRID_BITS, rounded
# outwards: boxes that meet still meet on the grid, so no contact is lost,
# and the keys stay small integers whatever the denominators.  Boxes less
# than a step apart become candidates that the exact tests then reject.
_GRID_BITS = 32


def _grid_boxes(points: list[Point]) -> list[tuple[int, int, int, int]]:
    """(xlo, xhi, ylo, yhi) of the closed box of each segment of a polyline,
    in grid steps, rounded outwards."""
    keys = []
    for p in points:
        (xn, xd), (yn, yd) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
        keys.append(((xn << _GRID_BITS) // xd, -((-xn << _GRID_BITS) // xd),
                     (yn << _GRID_BITS) // yd, -((-yn << _GRID_BITS) // yd)))
    return [(min(p[0], q[0]), max(p[1], q[1]), min(p[2], q[2]), max(p[3], q[3]))
            for p, q in zip(keys, keys[1:])]


def _meeting_boxes(boxes: list[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
    """Index pairs (k, l), k < l, of the closed integer boxes
    (xlo, xhi, ylo, yhi) that meet, from one sort-and-scan over their
    x-intervals.

    Boxes that only touch still meet, so every tangency, overlap and
    endpoint contact stays a candidate; segments whose boxes are disjoint
    cannot meet.
    """
    order = sorted((*box, k) for k, box in enumerate(boxes))
    pairs = []
    for m, (_, xhi, ylo, yhi, k) in enumerate(order):
        for n in range(m + 1, len(order)):
            xlo2, _, ylo2, yhi2, l = order[n]
            if xlo2 > xhi:
                break
            if ylo2 <= yhi and ylo <= yhi2:
                pairs.append((k, l) if k < l else (l, k))
    return pairs


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
        if d is None:
            continue
        if all(d):
            return True
        res = intersect_segments(points[k], points[k + 1], points[l], points[l + 1])
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
