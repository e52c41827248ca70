import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandkit.arrangement import (compute_arrangement, events_on_curve,
                                   events_to_json, intersection_graph)
from strandkit.errors import DegeneracyError
from strandkit.families import gen_grounded, gen_random
from strandkit.geometry import (Point, SegmentIntersection, intersect_segments,
                                pt, squared_distance)
from strandkit.scene import Curve, StringScene
from test_geometry import DEGENERATE, all_pairs_self_intersects


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
    mine = events_on_curve(events, "m")
    assert [e.other("m") for e in mine] == \
        ["c4", "c5", "c1", "c4", "c2", "c4", "c5", "c1", "c2"]
    g = intersection_graph(abstract_multicross, events)
    assert g.degree("m") == 4


def test_events_on_curve_arc_order(bigon_scene):
    events = compute_arrangement(bigon_scene)
    mine = events_on_curve(events, "u")
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


def direction_cross(da: Point, db: Point) -> Fraction:
    return da.x * db.y - da.y * db.x


def all_pairs_events_json(scene):
    """Unfiltered reference: every segment pair of every curve pair goes to
    intersect_segments.  Ids number a pair's crossings along the smaller
    curve; per-curve indices are arc order (segment, distance from its
    start)."""
    ids = scene.curve_ids()
    hits = {}
    for a, b in combinations(ids, 2):
        pa, pb = scene.curves[a].points, scene.curves[b].points
        for i in range(len(pa) - 1):
            for j in range(len(pb) - 1):
                res = intersect_segments(pa[i], pa[i + 1], pb[j], pb[j + 1])
                assert res.kind in (SegmentIntersection.DISJOINT,
                                    SegmentIntersection.PROPER)
                if res.kind == SegmentIntersection.DISJOINT:
                    continue
                p = res.point
                sign = direction_cross(pa[i + 1] - pa[i], pb[j + 1] - pb[j])
                hits.setdefault((a, b), []).append(
                    ((i, squared_distance(pa[i], p)),
                     (j, squared_distance(pb[j], p)), p, 1 if sign > 0 else -1))
    events = {}
    along = {c: [] for c in ids}
    for (a, b), pair_hits in hits.items():
        for k, (pos_a, pos_b, p, sign) in enumerate(sorted(pair_hits)):
            eid = f"x:{a}:{b}:{k}"
            events[eid] = {"id": eid, "curve_a": a, "curve_b": b,
                           "index_in_a": None, "index_in_b": None,
                           "chirality": sign, "location": p.to_json()}
            along[a].append((pos_a, eid, "index_in_a"))
            along[b].append((pos_b, eid, "index_in_b"))
    for c in ids:
        for index, (_, eid, key) in enumerate(sorted(along[c])):
            events[eid][key] = index
    return [events[eid] for eid in sorted(events)]


@pytest.mark.parametrize("seed", range(4))
def test_filtered_arrangement_matches_all_pairs_reference(seed):
    for scene in (gen_random(8, 2, seed), gen_grounded(20, seed)):
        got = json.dumps(events_to_json(compute_arrangement(scene)))
        assert got == json.dumps(all_pairs_events_json(scene))


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
    """A degeneracy error exactly when some segment pair touches or
    overlaps, else the reference's events."""
    s = StringScene()
    s.curves["a"] = Curve("a", tuple(a))
    s.curves["b"] = Curve("b", tuple(b))
    s.validate()
    degenerate = any(
        intersect_segments(p, q, u, v).kind in (SegmentIntersection.TOUCH,
                                                SegmentIntersection.OVERLAP)
        for p, q in zip(a, a[1:]) for u, v in zip(b, b[1:]))
    if degenerate:
        with pytest.raises(DegeneracyError):
            compute_arrangement(s)
    else:
        got = json.dumps(events_to_json(compute_arrangement(s)))
        assert got == json.dumps(all_pairs_events_json(s))


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
