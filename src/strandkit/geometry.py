"""Exact rational plane geometry, decided on Python ints.

A segment, or a whole polyline, is scaled by D, the lcm of its coordinate
denominators, so its points become integer pairs; two segments with
different D meet on the lcm of the two.  Every orientation, box and
distance comparison is then an integer one with the sign of its rational
original.  _orientations decides each pair of segments: disjoint, a proper
crossing, or a contact with a zero orientation, which _contact classifies
as disjoint, a collinear overlap or a touch at one endpoint.  The
arrangement orders crossings along a curve by integer arc keys and builds
the crossing coordinates as Fractions.  There is no floating point anywhere
in a decision path, so equality and orientation are exact and deterministic.
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


def _common_denominator(points: Iterable[Point]) -> int:
    """The lcm of every coordinate denominator of points."""
    return math.lcm(*{q.denominator for p in points for q in (p.x, p.y)})


def _scaled(points: Iterable[Point], D: int) -> list[tuple[int, int]]:
    """Each point times D as an integer pair; D is a common denominator."""
    return [(p.x.numerator * (D // p.x.denominator),
             p.y.numerator * (D // p.y.denominator)) for p in points]


def _orientations(a1, a2, b1, b2, ma: int = 1, mb: int = 1
                  ) -> Optional[tuple[int, int, int, int]]:
    """The orientations d1, d2 of a1, a2 against b1b2 and d3, d4 of b1, b2
    against a1a2, for segments of integer points, or None when one segment
    lies strictly on one side of the other's line, so the closed segments
    are disjoint.

    a1a2 and b1b2 may be on different scales: a point of a times ma and a
    point of b times mb are on one.  Each direction stays on its own scale,
    so d1, d2 come out times one positive factor and d3, d4 times another:
    their signs and the ratios d1 / (d1 - d2) and d3 / (d3 - d4) are exact.
    With all four nonzero the segments cross properly; a zero leaves a
    contact for _contact.
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


OVERLAP = 4     # _contact's result for segments that share a collinear piece


def _contact(d, a1, a2, b1, b2, ma: int = 1, mb: int = 1) -> Optional[int]:
    """How segments a1a2 and b1b2 of integer points meet, given their
    orientations d from _orientations, one of them zero: None when they are
    disjoint, OVERLAP, or the index into (a1, a2, b1, b2) of the endpoint at
    which they touch.

    a's points times ma and b's times mb are on one scale, which keeps their
    (x, y) order.  Collinear segments touch at the larger of their lower
    ends; others at the first endpoint with a zero orientation (so on the
    other segment's line) that lies in the other segment's closed box.
    """
    p = [(x * ma, y * ma) for x, y in (a1, a2)] + [(x * mb, y * mb) for x, y in (b1, b2)]
    if not any(d):
        lo = max(min(p[0], p[1]), min(p[2], p[3]))
        hi = min(max(p[0], p[1]), max(p[2], p[3]))
        if lo > hi:
            return None
        return p.index(lo) if lo == hi else OVERLAP
    for k, (x, y) in enumerate(p):
        (qx, qy), (rx, ry) = p[2:] if k < 2 else p[:2]
        if d[k] == 0 and min(qx, rx) <= x <= max(qx, rx) and min(qy, ry) <= y <= max(qy, ry):
            return k
    return None


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

