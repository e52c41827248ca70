import json
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandkit.arrangement import (compute_arrangement, events_by_curve,
                                   intersection_graph)
from strandkit.errors import DegeneracyError, SceneError
from strandkit.families import gen_grounded, gen_random
from strandkit.geometry import (Point, _common_denominator, _grid_boxes,
                                _meeting_boxes, _orientations, _scaled, pt)
from strandkit.scene import CrossingEvent, Curve, StringScene
from reference_geometry import SegmentIntersection, intersect_segments, squared_distance
from reference_json import events_to_json, point_to_json
from test_geometry import DEGENERATE, all_pairs_self_intersects
from corpus import DEGENERATE_SCENES, polyline, segment


def test_plus_sign_single_crossing(plus_sign):
    events = compute_arrangement(plus_sign)
    assert len(events) == 1
    e = events[0]
    assert e.id == "x:h:v:0"
    assert (e.curve_a, e.curve_b) == ("h", "v")
    assert e.location == pt(0, 0)
    assert e.index_in_a == 0 and e.index_in_b == 0
    g = intersection_graph(plus_sign, events)
    assert g.edge_list() == [("h", "v")]


def test_event_ids_ordered_along_smaller_curve():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(10, 0)))
    s.curves["b"] = Curve("b", (pt(2, -1), pt(2, 1), pt(4, 1), pt(4, -1)))
    s.validate()
    events = compute_arrangement(s)
    assert [e.id for e in events] == ["x:a:b:0", "x:a:b:1"]
    assert [e.location.x for e in events] == [Fraction(2), Fraction(4)]
    assert [e.index_in_a for e in events] == [0, 1]


def test_tangency_rejected():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(4, 0)))
    s.curves["b"] = Curve("b", (pt(2, 0), pt(2, 3)))
    s.validate()
    with pytest.raises(DegeneracyError):
        compute_arrangement(s)


def test_collinear_overlap_rejected():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(4, 0)))
    s.curves["b"] = Curve("b", (pt(2, 0), pt(6, 0)))
    s.validate()
    with pytest.raises(DegeneracyError):
        compute_arrangement(s)


def test_triple_point_rejected():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-2, 0), pt(2, 0)))
    s.curves["b"] = Curve("b", (pt(0, -2), pt(0, 2)))
    s.curves["c"] = Curve("c", (pt(-2, -2), pt(2, 2)))
    s.validate()
    with pytest.raises(DegeneracyError):
        compute_arrangement(s)


# scenes of one fault between curves each: the degenerate contacts and
# triple point of the manifest, and two curve pairs that format one crossing id
BETWEEN_CURVES = {
    **{name: data for name, data in DEGENERATE_SCENES.items() if name not in
       ("self-touching-polyline", "unprintable-crossing", "beyond-float-range",
        "drawn-beyond-float-range")},
    "crossing-id-twice": {"curves": [
        segment("a", (-1, 0), (1, 0)), segment("b:c", (0, -1), (0, 1)),
        segment("a:b", (9, 0), (11, 0)), segment("c", (10, -1), (10, 1))]},
}


@pytest.mark.parametrize("name", sorted(BETWEEN_CURVES))
def test_self_intersection_is_reported_before_faults_between_curves(name):
    """A curve that touches itself, far from the others, is the error
    whatever the other curves do, before any contact, triple point or id
    collision between curves."""
    looped = polyline("z", (100, 0), (104, 0), (104, 2), (102, 2), (102, 0))
    data = BETWEEN_CURVES[name]
    s = StringScene.from_json({**data, "curves": [looped, *data["curves"]]})
    s.validate()
    with pytest.raises(SceneError, match=r"^curve 'z': self-intersecting$"):
        compute_arrangement(s)


def test_self_touching_curve_beside_a_touch_between_curves():
    """b's end touches a and c touches itself: the self-intersection is
    reported, though a and b come first in every order."""
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(4, 0)))
    s.curves["b"] = Curve("b", (pt(2, 0), pt(2, 3)))
    s.curves["c"] = Curve("c", (pt(10, 0), pt(14, 0), pt(14, 2), pt(12, 2), pt(12, 0)))
    s.validate()
    with pytest.raises(SceneError, match=r"^curve 'c': self-intersecting$"):
        compute_arrangement(s)
    del s.curves["c"]
    with pytest.raises(DegeneracyError, match="touch non-transversally"):
        compute_arrangement(s)


def test_first_self_intersecting_curve_in_scene_order_is_reported():
    """Of two self-intersecting curves, the one the scene lists first, as
    validation once reported it, not the first by id."""
    s = StringScene()
    s.curves["b"] = Curve("b", (pt(0, 0), pt(2, 0), pt(1, 0)))
    s.curves["a"] = Curve("a", (pt(10, 0), pt(11, 0), pt(11, 0), pt(12, 0)))
    s.validate()
    with pytest.raises(SceneError, match=r"^curve 'b': self-intersecting$"):
        compute_arrangement(s)
    del s.curves["b"]
    with pytest.raises(SceneError, match=r"^curve 'a': self-intersecting$"):
        compute_arrangement(s)


def test_chirality_flips_with_direction():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-1, 0), pt(1, 0)))
    s.curves["b"] = Curve("b", (pt(0, -1), pt(0, 1)))
    s.validate()
    up = compute_arrangement(s)[0].chirality
    s.curves["b"] = Curve("b", (pt(0, 1), pt(0, -1)))
    down = compute_arrangement(s)[0].chirality
    assert {up, down} == {1, -1}


def test_abstract_arrangement(abstract_multicross):
    events = compute_arrangement(abstract_multicross)
    assert len(events) == 9
    mine = events_by_curve(abstract_multicross.curve_ids(), events)["m"]
    assert [e.other("m") for e in mine] == \
        ["c4", "c5", "c1", "c4", "c2", "c4", "c5", "c1", "c2"]
    g = intersection_graph(abstract_multicross, events)
    assert len(g.adj["m"]) == 4


def test_events_on_curve_arc_order(bigon_scene):
    events = compute_arrangement(bigon_scene)
    mine = events_by_curve(bigon_scene.curve_ids(), events)["u"]
    assert [e.other("u") for e in mine] == ["w1", "v", "v", "v", "v", "w2"]


def test_events_json_roundtrip_fields(plus_sign):
    events = compute_arrangement(plus_sign)
    data = events_to_json(events)
    assert data[0]["id"] == "x:h:v:0"
    assert data[0]["location"] == [[0, 1], [0, 1]]


def brute_force_pair_count(scene, a, b):
    """Oracle: count proper segment-pair crossings directly."""
    count = 0
    pa, pb = scene.curves[a].points, scene.curves[b].points
    for i in range(len(pa) - 1):
        for j in range(len(pb) - 1):
            res = intersect_segments(pa[i], pa[i + 1], pb[j], pb[j + 1])
            if res.kind == SegmentIntersection.PROPER:
                count += 1
    return count


def test_arrangement_matches_brute_force_oracle():
    for seed in range(5):
        scene = gen_random(8, 2, seed)
        events = compute_arrangement(scene)
        per = {}
        for e in events:
            per[(e.curve_a, e.curve_b)] = per.get((e.curve_a, e.curve_b), 0) + 1
        for a, b in combinations(scene.curve_ids(), 2):
            assert per.get((a, b), 0) == brute_force_pair_count(scene, a, b)


def test_deterministic_event_list(bigon_scene):
    one = events_to_json(compute_arrangement(bigon_scene))
    two = events_to_json(compute_arrangement(bigon_scene))
    assert one == two


def direction_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> Fraction:
    """(a2 - a1) x (b2 - b1)."""
    return (a2.x - a1.x) * (b2.y - b1.y) - (a2.y - a1.y) * (b2.x - b1.x)


def box(p, q):
    return min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y)


def all_pairs_events_json(scene):
    """Reference: every segment pair of every curve pair goes to
    intersect_segments, except pairs whose closed Fraction bounding boxes
    are disjoint, which cannot meet.  Ids number a pair's crossings along
    the smaller curve; per-curve indices are arc order (segment, distance
    from its start).  The first touch or overlap in (curve pair, segment
    pair) order raises its DegeneracyError; then two pairs crossing at one
    point raise."""
    ids = scene.curve_ids()
    hits = {}
    boxes = {c: [box(p, q) for p, q in zip(scene.curves[c].points,
                                           scene.curves[c].points[1:])]
             for c in ids}
    for a, b in combinations(ids, 2):
        pa, pb = scene.curves[a].points, scene.curves[b].points
        for i, ba in enumerate(boxes[a]):
            for j, bb in enumerate(boxes[b]):
                if ba[2] < bb[0] or bb[2] < ba[0] or ba[3] < bb[1] or bb[3] < ba[1]:
                    continue
                res = intersect_segments(pa[i], pa[i + 1], pb[j], pb[j + 1])
                if res.kind == SegmentIntersection.DISJOINT:
                    continue
                if res.kind == SegmentIntersection.OVERLAP:
                    raise DegeneracyError(
                        f"curves {a!r} and {b!r} share a collinear piece")
                if res.kind == SegmentIntersection.TOUCH:
                    raise DegeneracyError(
                        f"curves {a!r} and {b!r} touch non-transversally at "
                        f"{res.point} (tangency, bend crossing, or endpoint "
                        "on another curve)")
                p = res.point
                sign = direction_cross(pa[i], pa[i + 1], pb[j], pb[j + 1])
                hits.setdefault((a, b), []).append(
                    ((i, squared_distance(pa[i], p)),
                     (j, squared_distance(pb[j], p)), p, 1 if sign > 0 else -1))
    seen = {}
    for pair in sorted(hits):
        for _, _, p, _ in hits[pair]:
            if p in seen and seen[p] != pair:
                raise DegeneracyError(
                    f"three curves meet at {p}: pairs {seen[p]} and {pair}")
            seen[p] = pair
    events = {}
    along = {c: [] for c in ids}
    for (a, b), pair_hits in hits.items():
        for k, (pos_a, pos_b, p, sign) in enumerate(sorted(pair_hits)):
            eid = f"x:{a}:{b}:{k}"
            events[eid] = {"id": eid, "curve_a": a, "curve_b": b,
                           "index_in_a": None, "index_in_b": None,
                           "chirality": sign, "location": point_to_json(p)}
            along[a].append((pos_a, eid, "index_in_a"))
            along[b].append((pos_b, eid, "index_in_b"))
    for c in ids:
        for index, (_, eid, key) in enumerate(sorted(along[c])):
            events[eid][key] = index
    return [events[eid] for eid in sorted(events)]


def outcome(arrangement, scene):
    """JSON of an arrangement's events, or its DegeneracyError text."""
    try:
        return json.dumps(arrangement(scene))
    except DegeneracyError as exc:
        return str(exc)


def kernel_events_json(scene):
    return events_to_json(compute_arrangement(scene))


REFERENCE_SCENES = {
    **{str(seed): lambda seed=seed: (gen_random(8, 2, seed), gen_grounded(20, seed))
       for seed in range(4)},
    "random-24-3-0": lambda: (gen_random(24, 3, 0),),
    "grounded-48-0": lambda: (gen_grounded(48, 0),),
}


@pytest.mark.parametrize("case", list(REFERENCE_SCENES))
def test_filtered_arrangement_matches_all_pairs_reference(case):
    for scene in REFERENCE_SCENES[case]():
        got = json.dumps(events_to_json(compute_arrangement(scene)))
        assert got == json.dumps(all_pairs_events_json(scene))


# scenes with degeneracies in several curve pairs: the sweep meets the ones
# at small x first, so the first error must not depend on the sweep order
SEVERAL_DEGENERACIES = {
    # (a, b) touches at (18, 0) on segment pair (0, 0) and at (9, -10) on
    # (2, 2); (c, d) overlaps at small x
    "touches-and-overlap": ({
        "a": [(20, 0), (16, 0), (16, -10), (8, -10)],
        "b": [(18, 0), (18, 5), (9, 5), (9, -10)],
        "c": [(0, 20), (4, 20)],
        "d": [(2, 20), (6, 20)],
    }, f"curves 'a' and 'b' touch non-transversally at {pt(18, 0)} "
       "(tangency, bend crossing, or endpoint on another curve)"),
    # a triple point of (e, f, g) at small x and an overlap of (p, q)
    "triple-point-and-overlap": ({
        "e": [(-2, 0), (2, 0)],
        "f": [(0, -2), (0, 2)],
        "g": [(-2, -2), (2, 2)],
        "p": [(10, 1), (14, 1)],
        "q": [(12, 1), (16, 1)],
    }, "curves 'p' and 'q' share a collinear piece"),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_DEGENERACIES))
def test_first_degeneracy_matches_all_pairs_reference(name):
    curves, error = SEVERAL_DEGENERACIES[name]
    s = StringScene()
    for cid, points in curves.items():
        s.curves[cid] = Curve(cid, tuple(pt(*q) for q in points))
    s.validate()
    assert outcome(kernel_events_json, s) == \
        outcome(all_pairs_events_json, s) == error


def longest_simple_prefix(points):
    """The longest prefix of distinct points that is a valid curve."""
    k = 2
    while k < len(points) and not all_pairs_self_intersects(points[:k + 1]):
        k += 1
    return points[:k]


# valid curves on a 4 x 4 integer grid; two of them often touch or overlap
grid_curves = st.lists(st.builds(pt, st.integers(0, 3), st.integers(0, 3)),
                       min_size=2, max_size=6, unique=True).map(longest_simple_prefix)


@DEGENERATE
@given(grid_curves, grid_curves)
def test_arrangement_matches_all_pairs_reference_on_grid(a, b):
    """The reference's degeneracy error, text included, or its events."""
    s = StringScene()
    s.curves["a"] = Curve("a", tuple(a))
    s.curves["b"] = Curve("b", tuple(b))
    s.validate()
    assert outcome(kernel_events_json, s) == outcome(all_pairs_events_json, s)


# pairs of polylines whose bounding boxes meet only on their boundary
BOX_TOUCH_FIXTURES = {
    "t-touch": ([(0, 0), (4, 0)], [(2, 0), (3, 3)], (2, 0)),
    "endpoint-on-curve": ([(0, 0), (2, 2), (4, 0)], [(2, 2), (3, 5)], (2, 2)),
    "collinear-shared-endpoint": ([(0, 0), (2, 2)], [(2, 2), (4, 4)], (2, 2)),
    "bend-tangent": ([(0, 0), (4, 0)], [(1, 3), (2, 0), (3, 3)], (2, 0)),
}


@pytest.mark.parametrize("name", sorted(BOX_TOUCH_FIXTURES))
def test_touching_boxes_still_tested(name):
    a, b, at = BOX_TOUCH_FIXTURES[name]
    s = StringScene()
    s.curves["a"] = Curve("a", tuple(pt(*q) for q in a))
    s.curves["b"] = Curve("b", tuple(pt(*q) for q in b))
    s.validate()
    with pytest.raises(DegeneracyError) as info:
        compute_arrangement(s)
    assert str(info.value) == (
        f"curves 'a' and 'b' touch non-transversally at {pt(*at)} "
        "(tangency, bend crossing, or endpoint on another curve)")


def reference_hit_loop(scene):
    """The earlier arrangement: Fraction parameters and locations for every
    crossing, Point-keyed triple-point check, (segment, floor, Fraction) arc
    positions and an index dict over (curve, event id)."""
    ids = scene.curve_ids()
    curves = [scene.curves[c].points for c in ids]
    segments = []
    owner = []
    boxes = []
    for c, points in enumerate(curves):
        for i, pq in enumerate(zip(points, points[1:])):
            D = _common_denominator(pq)
            segments.append((_scaled(pq, D), D))
            owner.append((c, i))
        boxes += _grid_boxes(points)

    def arc_position(segment, t):
        return segment, (t.numerator << 64) // t.denominator, t

    hits = []
    contacts = []
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
        t = Fraction(d1, d1 - d2)
        tn, den = t.numerator, t.denominator * Da
        (x1, y1), (x2, y2) = a1, a2
        p = Point(Fraction(x1 * t.denominator + tn * (x2 - x1), den),
                  Fraction(y1 * t.denominator + tn * (y2 - y1), den))
        hits.append((a, b, i, j, arc_position(i, t),
                     arc_position(j, Fraction(d3, d3 - d4)), p, 1 if d4 > 0 else -1))

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

    hits.sort(key=lambda h: h[:4])
    seen = {}
    raw = {}
    for a, b, _, _, pos_a, pos_b, p, sign in hits:
        pair = (ids[a], ids[b])
        first = seen.setdefault(p, pair)
        if first != pair:
            raise DegeneracyError(
                f"three curves meet at {p}: pairs {first} and {pair}")
        raw.setdefault(pair, []).append((pos_a, pos_b, p, sign))

    crossings = {}
    along = {c: [] for c in ids}
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


def events_or_error(arrangement, scene):
    """An arrangement's CrossingEvents, locations included, or its
    DegeneracyError text."""
    try:
        return arrangement(scene)
    except DegeneracyError as exc:
        return str(exc)


HIT_LOOP_SCENES = {
    **{f"grounded-{n}-{s}": lambda n=n, s=s: gen_grounded(n, s)
       for n in (6, 20, 24) for s in range(4)},
    "grounded-48-0": lambda: gen_grounded(48, 0),
    **{f"random-10-2-{s}": lambda s=s: gen_random(10, 2, s) for s in range(3)},
}


@pytest.mark.parametrize("case", list(HIT_LOOP_SCENES))
def test_hit_loop_matches_reference(case):
    scene = HIT_LOOP_SCENES[case]()
    events = compute_arrangement(scene)
    assert events and events == reference_hit_loop(scene)


@DEGENERATE
@given(grid_curves, grid_curves, grid_curves)
def test_hit_loop_matches_reference_on_grid(a, b, c):
    """Three grid polylines: tangencies, overlaps, triple points and plain
    crossings, with reused and computed coordinates mixed."""
    s = StringScene()
    for cid, points in zip("abc", (a, b, c)):
        s.curves[cid] = Curve(cid, tuple(points))
    s.validate()
    assert events_or_error(compute_arrangement, s) == \
        events_or_error(reference_hit_loop, s)


def scene_of(curves):
    s = StringScene()
    for cid, points in curves.items():
        s.curves[cid] = Curve(cid, tuple(Point(Fraction(x), Fraction(y))
                                          for x, y in points))
    s.validate()
    return s


def test_crossings_agreeing_to_64_bits_are_ordered_exactly():
    """Crossings at x = 1/2 + 2^-70 and 1/2 + 2^-69 on a unit segment agree
    in t to 64 bits whichever way the segment runs, so their order comes
    from the exact comparison: for two curves and for one curve crossing
    twice.  Run right to left, the segment meets them against the sweep's
    x order."""
    lo, hi = Fraction(1, 2) + Fraction(1, 2 ** 70), Fraction(1, 2) + Fraction(1, 2 ** 69)
    for t, u in ((lo, hi), (1 - lo, 1 - hi)):
        assert (t.numerator << 64) // t.denominator == \
            (u.numerator << 64) // u.denominator
    for h in ([(0, 0), (1, 0)], [(1, 0), (0, 0)]):
        for first, second in ((lo, hi), (hi, lo)):
            scenes = [
                scene_of({"h": h, "u": [(first, -1), (first, 1)],
                          "v": [(second, 1), (second, -1)]}),
                scene_of({"h": h, "z": [(first, 1), (first, -1),
                                        (second, -1), (second, 1)]}),
            ]
            for s in scenes:
                events = compute_arrangement(s)
                assert events == reference_hit_loop(s)
                along_h = sorted(events, key=lambda e: e.index_in_a)
                xs = [e.location.x for e in along_h]
                assert xs == sorted(xs, reverse=h[0][0] == 1)
                if len(s.curves) == 2:   # one pair: ids count along h
                    assert [e.id for e in along_h] == ["x:h:z:0", "x:h:z:1"]


def test_triple_point_on_axis_parallel_segments_with_large_denominators():
    """Two of the three crossings at one point reuse the horizontal's y and
    the vertical's x; the third computes x: all three must key alike."""
    px = Fraction(1, 2 ** 89 - 1)
    py = Fraction(3, 2 ** 127 - 1)
    s = scene_of({"a": [(px - 1, py), (px + 1, py)],
                  "b": [(px, py - 1), (px, py + 1)],
                  "c": [(px - 1, py - 1), (px + 1, py + 1)]})
    error = f"three curves meet at {Point(px, py)}: pairs ('a', 'b') and ('a', 'c')"
    assert outcome(kernel_events_json, s) == outcome(all_pairs_events_json, s) == error
    assert events_or_error(reference_hit_loop, s) == error

