"""Crossing arrangements and the intersection graph of a scene."""

from __future__ import annotations

from .errors import DegeneracyError
from .geometry import (Point, SegmentIntersection, _boxes_disjoint, _segment_boxes,
                       intersect_segments)
from .graph import Graph
from .scene import Curve, CrossingEvent, StringScene


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
    boxes = {c: _segment_boxes(scene.curves[c].points) for c in ids}
    hulls = {c: _hull(boxes[c]) for c in ids}
    raw: dict[tuple[str, str], list[tuple]] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if _boxes_disjoint(hulls[a], hulls[b]):
                continue
            hits = _curve_pair_crossings(scene.curves[a], scene.curves[b],
                                         boxes[a], boxes[b])
            if hits:
                raw[(a, b)] = hits

    # reject triple points: two events from different pairs at one location
    seen: dict[Point, tuple[str, str]] = {}
    for pair in sorted(raw):
        for _, _, p, _ in raw[pair]:
            if p in seen and seen[p] != pair:
                raise DegeneracyError(
                    f"three curves meet at {p}: pairs {seen[p]} and {pair}")
            seen[p] = pair

    # a pair's crossings are numbered along a; arc positions (segment,
    # parameter) along each curve give the per-curve indices
    crossings: dict[str, tuple] = {}
    along: dict[str, list[tuple]] = {c: [] for c in ids}
    for (a, b), hits in raw.items():
        for k, (pos_a, pos_b, p, sign) in enumerate(sorted(hits)):
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


def _hull(boxes: list[tuple]) -> tuple:
    """Closed bounding box of a list of boxes."""
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def _curve_pair_crossings(a: Curve, b: Curve, boxes_a: list[tuple],
                          boxes_b: list[tuple]) -> list[tuple]:
    """((i, t), (j, s), point, sign) of each crossing of segment i of a with
    segment j of b, in segment-pair order; any other contact is an error."""
    hits = []
    pa, pb = a.points, b.points
    for i in range(len(pa) - 1):
        for j in range(len(pb) - 1):
            if _boxes_disjoint(boxes_a[i], boxes_b[j]):
                continue
            res = intersect_segments(pa[i], pa[i + 1], pb[j], pb[j + 1])
            if res.kind == SegmentIntersection.DISJOINT:
                continue
            if res.kind == SegmentIntersection.OVERLAP:
                raise DegeneracyError(
                    f"curves {a.id!r} and {b.id!r} share a collinear piece")
            if res.kind == SegmentIntersection.TOUCH:
                raise DegeneracyError(
                    f"curves {a.id!r} and {b.id!r} touch non-transversally at {res.point} "
                    "(tangency, bend crossing, or endpoint on another curve)")
            hits.append(((i, res.t), (j, res.s), res.point, res.sign))
    return hits


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


def events_on_curve(events: list[CrossingEvent], curve_id: str) -> list[CrossingEvent]:
    """Events involving curve_id, in arc order along the curve."""
    mine = [e for e in events if curve_id in (e.curve_a, e.curve_b)]
    mine.sort(key=lambda e: e.index_on(curve_id))
    return mine


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
