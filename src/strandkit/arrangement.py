"""Crossing arrangements and the intersection graph of a scene.

Each candidate segment pair of a geometric scene is decided on integers, by
geometry._orientations and, for a contact, geometry._contact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, eq, itemgetter

from .errors import DegeneracyError, SceneError
from .geometry import (OVERLAP, Point, _common_denominator, _contact, _grid_boxes,
                       _meeting_boxes, _orientations, _scaled)
from .graph import Graph
from .scene import CrossingEvent, StringScene


def compute_arrangement(scene: StringScene) -> list[CrossingEvent]:
    """All pairwise transversal crossings of a scene, with deterministic ids.

    Geometric scenes get exact crossing locations; a curve that meets
    itself off its hinges, and any degeneracy (tangency, collinear overlap,
    triple point, crossing at a polyline bend, endpoint on another curve)
    is an error, never perturbed away.  Abstract scenes just materialise
    their declared crossing sequences.
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
    segments: list = []         # (integer endpoints, D, first point)
    owner: list = []            # (curve index, segment index)
    boxes: list = []
    looped = set()              # curves that meet themselves
    for c, points in enumerate(curves):
        for i, pq in enumerate(zip(points, points[1:])):
            D = _common_denominator(pq)
            ends = _scaled(pq, D)
            if ends[0] == ends[1]:
                looped.add(c)
            segments.append((ends, D, pq[0]))
            owner.append((c, i))
        boxes += _grid_boxes(points)

    # (a, b, i, j, arc key on a, t on a, arc key on b, t on b, x, y, sign)
    # with a < b.  A parameter t is an integer pair n / den with n, den > 0,
    # and the arc key of the point at t on segment i is
    # (i << 64) + floor(t 2^64), so keys order a curve's points like (i, t)
    # wherever they differ
    hits = []
    contacts = []      # (a, b, i, j, _contact's result) of each segment contact
    for k, l in _meeting_boxes(boxes):
        (a, i), (b, j) = owner[k], owner[l]
        (a1, a2), Da, pa = segments[k]
        (b1, b2), Db, pb = segments[l]
        D = math.lcm(Da, Db)
        ma, mb = D // Da, D // Db
        d = _orientations(a1, a2, b1, b2, ma, mb)
        if d is None:
            continue
        if a == b:
            # consecutive segments share their hinge, so they meet beyond it
            # only in a collinear overlap; other segments of a curve never meet
            if j > i + 1 and (all(d) or _contact(d, a1, a2, b1, b2, ma, mb) is not None) \
                    or not any(d) and _contact(d, a1, a2, b1, b2, ma, mb) == OVERLAP:
                looped.add(a)
            continue
        d1, d2, d3, d4 = d
        if not (d1 and d2 and d3 and d4):
            c = _contact(d, a1, a2, b1, b2, ma, mb)
            if c is not None:
                contacts.append((a, b, i, j, c))
            continue
        # proper crossing at a1 + t (a2 - a1) = b1 + s (b2 - b1): d1 and d2
        # have opposite signs, so t = |d1| / (|d1| + |d2|), and s likewise;
        # (a2 - a1) x (b2 - b1) has the sign of d4
        tn, sn = abs(d1), abs(d3)
        td, sd = tn + abs(d2), sn + abs(d4)
        # a coordinate in which either segment is constant is that segment's
        # own Fraction, whatever the size of its denominator
        (x1, y1), (x2, y2) = a1, a2
        if x1 == x2:
            x = pa.x
        elif b1[0] == b2[0]:
            x = pb.x
        else:
            x = Fraction(x1 * td + tn * (x2 - x1), td * Da)
        if y1 == y2:
            y = pa.y
        elif b1[1] == b2[1]:
            y = pb.y
        else:
            y = Fraction(y1 * td + tn * (y2 - y1), td * Da)
        hits.append((a, b, i, j, (i << 64) + (tn << 64) // td, tn, td,
                     (j << 64) + (sn << 64) // sd, sn, sd, x, y, 1 if d4 > 0 else -1))

    if looped:
        cid = min((ids[c] for c in looped), key=list(scene.curves).index)
        raise SceneError(f"curve {cid!r}: self-intersecting")

    # in all-pairs order (a, b, i, j) the first degeneracy raised is the one
    # an unfiltered loop over curve pairs and segment pairs meets first
    if contacts:
        a, b, i, j, c = min(contacts)
        if c == OVERLAP:
            raise DegeneracyError(
                f"curves {ids[a]!r} and {ids[b]!r} share a collinear piece")
        point = (*curves[a][i:i + 2], *curves[b][j:j + 2])[c]
        raise DegeneracyError(
            f"curves {ids[a]!r} and {ids[b]!r} touch non-transversally at {point} "
            "(tangency, bend crossing, or endpoint on another curve)")

    # per hit [k, index along a, index along b], filled in by one walk along
    # each curve; a pair's crossings are numbered k = 0, 1, ... along a
    slots = [[0, 0, 0] for _ in hits]
    along: list = [[] for _ in ids]
    for h, (a, b, _, _, ka, tn, td, kb, sn, sd, *_) in enumerate(hits):
        along[a].append((ka, h, 1, tn, td))
        along[b].append((kb, h, 2, sn, sd))
    for arc in along:
        arc.sort()
        keys = list(map(itemgetter(0), arc))
        if any(map(eq, keys, keys[1:])):
            # crossings on one segment that agree in t to 64 bits are ordered
            # exactly.  Two at the same t are one point of this curve, where
            # two other curves cross it (one pair crosses at most once per
            # point, as both curves are simple): a triple point, and every
            # triple point shows up so on each of its curves
            exact = sorted((e[0], Fraction(e[3], e[4]), e) for e in arc)
            if any(p[:2] == q[:2] for p, q in zip(exact, exact[1:])):
                _raise_triple_point(ids, hits)
            arc = [e for _, _, e in exact]
        count: dict = {}
        for position, (_, h, side, _, _) in enumerate(arc):
            slot = slots[h]
            slot[side] = position
            if side == 1:
                b = hits[h][1]
                slot[0] = count.get(b, 0)
                count[b] = slot[0] + 1
    events = [CrossingEvent(f"x:{ids[a]}:{ids[b]}:{k}", ids[a], ids[b],
                            index_in_a, index_in_b, sign, Point(x, y))
              for (a, b, *_, x, y, sign), (k, index_in_a, index_in_b) in zip(hits, slots)]
    events.sort(key=attrgetter("id"))
    # a curve id may contain ':', so two curve pairs may format one id
    for e, f in zip(events, events[1:]):
        if e.id == f.id:
            raise SceneError(f"curve pairs ({e.curve_a!r}, {e.curve_b!r}) and "
                             f"({f.curve_a!r}, {f.curve_b!r}) both give crossing id {e.id!r}")
    return events


def _raise_triple_point(ids: list[str], hits: list[tuple]) -> None:
    """Raise for the first hit, in (a, b, i, j) order, at the location of
    an earlier hit of another curve pair."""
    seen: dict = {}
    for a, b, *_, x, y, _ in sorted(hits, key=itemgetter(0, 1, 2, 3)):
        pair = (ids[a], ids[b])
        first = seen.setdefault(
            (x.numerator, x.denominator, y.numerator, y.denominator), pair)
        if first != pair:
            raise DegeneracyError(
                f"three curves meet at {Point(x, y)}: pairs {first} and {pair}")


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
