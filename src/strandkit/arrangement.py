"""Crossing arrangements and the intersection graph of a scene."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .errors import DegeneracyError
from .geometry import (Point, SegmentIntersection, _common_denominator, _grid_boxes,
                       _meeting_boxes, _orientations, _scaled, intersect_segments)
from .graph import Graph
from .scene import CrossingEvent, StringScene


def compute_arrangement(scene: StringScene) -> list[CrossingEvent]:
    """All pairwise transversal crossings of a scene, with deterministic ids.

    Geometric scenes get exact crossing locations; any degeneracy (tangency,
    collinear overlap, triple point, crossing at a polyline bend, endpoint on
    another curve) is an error, never perturbed away.  Abstract scenes just
    materialise their declared crossing sequences.
    """
    if scene.is_geometric:
        return _geometric_arrangement(scene)
    return _abstract_arrangement(scene)


def _geometric_arrangement(scene: StringScene) -> list[CrossingEvent]:
    ids = scene.curve_ids()
    curves = [scene.curves[c].points for c in ids]
    # each segment is on its own integer scale D, and a pair of segments
    # meets on the lcm of their two: a scene-wide lcm would grow with every
    # curve's denominators, and so would the cost of every product with it
    segments: list = []         # (integer endpoints, D)
    owner: list = []            # (curve index, segment index)
    boxes: list = []
    for c, points in enumerate(curves):
        for i, pq in enumerate(zip(points, points[1:])):
            D = _common_denominator(pq)
            segments.append((_scaled(pq, D), D))
            owner.append((c, i))
        boxes += _grid_boxes(points)

    hits = []          # (a, b, i, j, position on a, on b, location, sign), a < b
    contacts = []      # (a, b, i, j) with a zero orientation
    for k, l in _meeting_boxes(boxes):
        (a, i), (b, j) = owner[k], owner[l]
        if a == b:
            continue
        if a > b:
            a, i, b, j, k, l = b, j, a, i, l, k
        (a1, a2), Da = segments[k]
        (b1, b2), Db = segments[l]
        D = math.lcm(Da, Db)
        d = _orientations(a1, a2, b1, b2, D // Da, D // Db)
        if d is None:
            continue
        d1, d2, d3, d4 = d
        if not (d1 and d2 and d3 and d4):
            contacts.append((a, b, i, j))
            continue
        # proper crossing at a1 + t (a2 - a1), t = d1 / (d1 - d2); d3 and d4
        # have opposite signs and (a2 - a1) x (b2 - b1) has the sign of d4
        t = Fraction(d1, d1 - d2)
        tn, den = t.numerator, t.denominator * Da
        (x1, y1), (x2, y2) = a1, a2
        p = Point(Fraction(x1 * t.denominator + tn * (x2 - x1), den),
                  Fraction(y1 * t.denominator + tn * (y2 - y1), den))
        hits.append((a, b, i, j, _arc_position(i, t),
                     _arc_position(j, Fraction(d3, d3 - d4)), p, 1 if d4 > 0 else -1))

    # intersect_segments classifies each contact on the original points; in
    # all-pairs order (a, b, i, j) the first degeneracy raised is the one an
    # unfiltered loop over curve pairs and segment pairs meets first
    for a, b, i, j in sorted(contacts):
        pa, pb = curves[a], curves[b]
        res = intersect_segments(pa[i], pa[i + 1], pb[j], pb[j + 1])
        if res.kind == SegmentIntersection.OVERLAP:
            raise DegeneracyError(
                f"curves {ids[a]!r} and {ids[b]!r} share a collinear piece")
        if res.kind == SegmentIntersection.TOUCH:
            raise DegeneracyError(
                f"curves {ids[a]!r} and {ids[b]!r} touch non-transversally at {res.point} "
                "(tangency, bend crossing, or endpoint on another curve)")

    # reject triple points: two events from different pairs at one location
    hits.sort(key=lambda h: h[:4])
    seen: dict[Point, tuple[str, str]] = {}
    raw: dict[tuple[str, str], list[tuple]] = {}
    for a, b, _, _, pos_a, pos_b, p, sign in hits:
        pair = (ids[a], ids[b])
        first = seen.setdefault(p, pair)
        if first != pair:
            raise DegeneracyError(
                f"three curves meet at {p}: pairs {first} and {pair}")
        raw.setdefault(pair, []).append((pos_a, pos_b, p, sign))

    # a pair's crossings are numbered along a; arc positions (segment,
    # parameter) along each curve give the per-curve indices
    crossings: dict[str, tuple] = {}
    along: dict[str, list[tuple]] = {c: [] for c in ids}
    for (a, b), pair_hits in raw.items():
        for k, (pos_a, pos_b, p, sign) in enumerate(sorted(pair_hits)):
            eid = f"x:{a}:{b}:{k}"
            crossings[eid] = (a, b, p, sign)
            along[a].append((pos_a, eid))
            along[b].append((pos_b, eid))
    index = {(c, eid): k for c in ids
             for k, (_, eid) in enumerate(sorted(along[c]))}
    return [CrossingEvent(id=eid, curve_a=a, curve_b=b,
                          index_in_a=index[(a, eid)], index_in_b=index[(b, eid)],
                          chirality=sign, location=p)
            for eid, (a, b, p, sign) in sorted(crossings.items())]


def _arc_position(segment: int, t: Fraction) -> tuple:
    """Sort key of the point at parameter t on a segment, ordered like
    (segment, t): floor(t 2^64) comes before t, so two Fractions are only
    compared when they agree to 64 bits."""
    return segment, (t.numerator << 64) // t.denominator, t


def _abstract_arrangement(scene: StringScene) -> list[CrossingEvent]:
    owners: dict[str, list[tuple[str, int]]] = {}
    for cid in scene.curve_ids():
        for idx, x in enumerate(scene.curves[cid].crossings):
            owners.setdefault(x, []).append((cid, idx))
    events = []
    for x in sorted(owners):
        (a, ia), (b, ib) = sorted(owners[x])
        events.append(CrossingEvent(
            id=x, curve_a=a, curve_b=b, index_in_a=ia, index_in_b=ib,
            chirality=scene.chirality[x], location=None))
    return events


def events_by_curve(curve_ids, events: list[CrossingEvent]) -> dict[str, list[CrossingEvent]]:
    """The events involving each of curve_ids, in arc order along that
    curve, from one pass over events."""
    along: dict[str, list] = {c: [] for c in curve_ids}
    for e in events:
        for c, k in ((e.curve_a, e.index_in_a), (e.curve_b, e.index_in_b)):
            if c in along:
                along[c].append((k, e))
    return {c: [e for _, e in sorted(hits, key=itemgetter(0))]
            for c, hits in along.items()}


def intersection_graph(scene: StringScene, events: list[CrossingEvent]) -> Graph:
    """Simple graph on curve ids: adjacent iff the curves share a crossing."""
    return Graph(scene.curve_ids(), {(e.curve_a, e.curve_b) for e in events})


def events_to_json(events: list[CrossingEvent]) -> list[dict]:
    out = []
    for e in sorted(events, key=lambda e: e.id):
        entry = {
            "id": e.id, "curve_a": e.curve_a, "curve_b": e.curve_b,
            "index_in_a": e.index_in_a, "index_in_b": e.index_in_b,
            "chirality": e.chirality,
        }
        if e.location is not None:
            entry["location"] = e.location.to_json()
        out.append(entry)
    return out
