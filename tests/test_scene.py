import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.arrangement import compute_arrangement
from strandkit.colouring import ColouringParams, OrderedColouring
from strandkit.errors import SceneError
from strandkit.geometry import Point, _common_denominator, _scaled, pt
from strandkit.formats import dumps_canonical
from strandkit.scene import (CrossingEvent, Curve, Disk, StringScene,
                             _segment_enters_open_disk)
from reference_geometry import squared_distance
from reference_json import scene_to_json
from test_arrangement import BOX_TOUCH_FIXTURES
from test_geometry import DEGENERATE


def test_geometric_scene_roundtrip(plus_sign):
    data = scene_to_json(plus_sign)
    back = StringScene.from_json(data)
    assert scene_to_json(back) == data
    assert back.curve_ids() == ["h", "v"]
    assert back.is_geometric


def test_abstract_scene_roundtrip(abstract_multicross):
    data = scene_to_json(abstract_multicross)
    back = StringScene.from_json(data)
    assert scene_to_json(back) == data
    assert not back.is_geometric
    assert back.curves["m"].crossings == abstract_multicross.curves["m"].crossings


def test_disk_boundary_roundtrip(outerstring_scene):
    s = outerstring_scene
    s.disks["D"] = s.disks["D"]._replace(boundary=(("a", 0), ("b", 0), ("c", 0)))
    s.validate()
    data = scene_to_json(s)
    assert data["disks"][0]["boundary"] == [["a", 0], ["b", 0], ["c", 0]]
    back = StringScene.from_json(data)
    back.validate()
    assert back.disks == s.disks
    assert scene_to_json(back) == data


# a record built from one value, the name of a field, and a second value
VALUE_RECORDS = {
    "Curve": (lambda v: Curve("a", crossings=("x", "y"), twists=v), "twists",
              (1,), (0, 2)),
    "Disk": (lambda v: Disk("D", pt(0, 0), v), "radius", Fraction(1, 2), Fraction(1)),
    "ColouringParams": (lambda v: ColouringParams(2, 3, 4, v), "r", 5, 6),
    "OrderedColouring": (lambda v: OrderedColouring({"a": 1, "b": v}, 2), "phi", 2, 1),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_stay_values(name):
    """The immutable records compare equal by fields, hash by them, and
    refuse attribute assignment; a colouring holds a dict, so it has no
    hash."""
    make, field, value, other = VALUE_RECORDS[name]
    a, b = make(value), make(value)
    assert type(a).__name__ == name
    assert a == b and a is not b and a != make(other)
    if name == "OrderedColouring":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b, make(other)}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(make(other), field))
    with pytest.raises(AttributeError):
        a.note = "added"
    assert a == b


def test_empty_scene_rejected():
    with pytest.raises(SceneError):
        StringScene().validate()


def test_self_intersecting_polyline_rejected():
    """validate runs no segment-pair test: the arrangement refuses the curve."""
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(2, 0), pt(1, 1), pt(1, -1)))
    s.curves["b"] = Curve("b", (pt(5, 0), pt(6, 0)))
    s.validate()
    with pytest.raises(SceneError, match=r"^curve 'a': self-intersecting$"):
        compute_arrangement(s)


def test_validation_refusals_come_before_a_self_intersection():
    """A self-intersecting curve beside a curve through a disk: validate,
    which runs first, reports the disk."""
    s = StringScene()
    s.disks["D"] = Disk("D", pt(0, 0), Fraction(1))
    s.curves["a"] = Curve("a", (pt(10, 0), pt(14, 0), pt(14, 2), pt(12, 2), pt(12, 0)))
    s.curves["b"] = Curve("b", (pt(-2, 0), pt(2, 0)))
    with pytest.raises(SceneError, match=r"^curve 'b' enters interior of disk 'D'$"):
        s.validate()


def test_twists_only_on_abstract_curves():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(1, 0)), twists=(1,))
    s.curves["b"] = Curve("b", (pt(5, 0), pt(6, 0)))
    with pytest.raises(SceneError):
        s.validate()


def test_twists_roundtrip(abstract_multicross):
    s = abstract_multicross
    m = s.curves["m"]
    s.curves["m"] = Curve("m", None, m.crossings, twists=(3,))
    s.validate()
    back = StringScene.from_json(scene_to_json(s))
    assert back.curves["m"].twists == (3,)


def test_curve_must_avoid_disk_interior():
    s = StringScene()
    s.disks["D"] = Disk("D", pt(0, 0), Fraction(1))
    s.curves["a"] = Curve("a", (pt(-2, 0), pt(2, 0)))
    s.curves["b"] = Curve("b", (pt(-2, 2), pt(2, 2)))
    with pytest.raises(SceneError):
        s.validate()


def test_grounded_endpoint_on_boundary(outerstring_scene):
    outerstring_scene.validate()
    assert outerstring_scene.grounded_curves() == ["a", "b", "c"]


def test_canonical_dump_is_stable(plus_sign):
    a = dumps_canonical(scene_to_json(plus_sign))
    b = dumps_canonical(scene_to_json(StringScene.from_json(scene_to_json(plus_sign))))
    assert a == b
    assert a.endswith("\n")


# Text with non-ASCII (lone surrogates too), quotes, backslashes and
# control characters; ints past 64 bits; empty and nested containers.
json_text = st.text(st.characters(codec=None, exclude_categories=())
                    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€'),
                    max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | json_text
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(json_text, kids, max_size=4),
    max_leaves=24)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(json_values)
def test_dumps_canonical_is_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: 2}, {"a": {None: 1}},
                                   {"a": {True: 1}}, {1, 2}, Fraction(1, 2)])
def test_dumps_canonical_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


def perturb(scene: StringScene, seed: int, magnitude: Fraction = Fraction(1, 1000)) -> StringScene:
    """Deterministically jitter polyline points of a geometric scene.

    Endpoints grounded on a disk are left in place.
    """
    rng = random.Random(seed)
    new_curves: dict[str, Curve] = {}
    for cid in sorted(scene.curves):
        c = scene.curves[cid]
        if c.points is None:
            new_curves[cid] = c
            continue
        pts = list(c.points)
        fixed = set()
        if c.grounded is not None:
            fixed.add(0 if c.grounded[1] == 0 else len(pts) - 1)
        out = []
        for i, p in enumerate(pts):
            if i in fixed:
                out.append(p)
            else:
                dx = Fraction(rng.randint(-999, 999), 999) * magnitude
                dy = Fraction(rng.randint(-999, 999), 999) * magnitude
                out.append(Point(p.x + dx, p.y + dy))
        new_curves[cid] = Curve(cid, tuple(out), None, c.grounded)
    return StringScene(new_curves, dict(scene.disks), dict(scene.chirality))


def test_point_and_event_values():
    """repr, equality, hash and order of Point and CrossingEvent, pinned:
    error texts print them."""
    p = Point(Fraction(1, 2), Fraction(-3))
    assert repr(p) == str(p) == "Point(x=Fraction(1, 2), y=Fraction(-3, 1))"
    assert p == Point(Fraction(2, 4), Fraction(-3)) and p != pt(1, -3)
    assert hash(p) == hash(Point(Fraction(2, 4), Fraction(-3))) \
        == hash((Fraction(1, 2), Fraction(-3)))
    third = Point(Fraction(1, 3), Fraction(7))
    assert sorted([pt(1, 0), pt(0, 5), third, pt(0, -1)]) == \
        [pt(0, -1), pt(0, 5), third, pt(1, 0)]
    assert pt(0, 5) < third < p and not p < p
    e = CrossingEvent("x:a:b:0", "a", "b", 0, 1, -1, p)
    assert repr(e) == str(e) == (
        "CrossingEvent(id='x:a:b:0', curve_a='a', curve_b='b', index_in_a=0, "
        "index_in_b=1, chirality=-1, location=Point(x=Fraction(1, 2), "
        "y=Fraction(-3, 1)))")
    same = CrossingEvent("x:a:b:0", "a", "b", 0, 1, -1, pt(Fraction(1, 2), -3))
    assert e == same and hash(e) == hash(same)
    assert e != CrossingEvent("x:a:b:0", "a", "b", 0, 1, 1, p)
    bare = CrossingEvent(id="x", curve_a="a", curve_b="b", index_in_a=0,
                         index_in_b=2, chirality=1)
    assert bare.location is None and bare.other("a") == "b" and bare.other("b") == "a"


def test_perturb_deterministic(plus_sign):
    p1 = perturb(plus_sign, seed=7)
    p2 = perturb(plus_sign, seed=7)
    assert scene_to_json(p1) == scene_to_json(p2)
    assert scene_to_json(p1) != scene_to_json(plus_sign)


def test_perturb_keeps_grounded_endpoints(outerstring_scene):
    p = perturb(outerstring_scene, seed=1)
    for cid in outerstring_scene.grounded_curves():
        end = outerstring_scene.curves[cid].grounded[1]
        idx = 0 if end == 0 else -1
        assert p.curves[cid].points[idx] == outerstring_scene.curves[cid].points[idx]


def fraction_enters_open_disk(a, b, center, r2):
    """Reference: the Fraction test the scene validator used to run, through
    the clamped projection of center onto ab."""
    dx, dy = b.x - a.x, b.y - a.y
    len2 = dx * dx + dy * dy
    if len2 == 0:
        return squared_distance(a, center) < r2
    t = ((center.x - a.x) * dx + (center.y - a.y) * dy) / len2
    t = max(Fraction(0), min(Fraction(1), t))
    closest = Point(a.x + dx * t, a.y + dy * t)
    return squared_distance(closest, center) < r2


def integer_enters_open_disk(a, b, center, radius):
    D = math.lcm(_common_denominator([a, b, center]), radius.denominator)
    ia, ib, ic = _scaled([a, b, center], D)
    return _segment_enters_open_disk(ia, ib, ic, (radius * D) ** 2)


def disk_cases():
    """(a, b, center, radius): segments of the touching-box fixtures against
    disks around their points; segments tangent to a disk in their interior,
    at an end, and crossing it; segments ending on a disk's boundary."""
    for a, b, at in BOX_TOUCH_FIXTURES.values():
        points = [pt(*q) for q in a + b]
        for p, q in zip(points, points[1:]):
            for c in points + [pt(*at)]:
                for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)):
                    yield p, q, c, r
    # (3, 4) / 5 and (4, -3) / 5 are unit vectors; (3/2, 2) is inside (0, 0)(3, 4)
    mid, normal = pt(Fraction(3, 2), 2), pt(Fraction(4, 5), Fraction(-3, 5))
    for r in (Fraction(1, 3), Fraction(1), Fraction(7, 3)):
        for slack in (Fraction(-1, 10**6), Fraction(0), Fraction(1, 10**6)):
            c = Point(mid.x + normal.x * r, mid.y + normal.y * r)
            yield pt(0, 0), pt(3, 4), c, r + slack
            yield pt(0, 0), pt(3, 4), Point(-normal.x * r, -normal.y * r), r + slack
            yield pt(3, 4), pt(3, 4), Point(3 + normal.x * r, 4 + normal.y * r), r + slack
    for ux, uy in ((1, 0), (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))):
        c, r = pt(Fraction(1, 3), -2), Fraction(3, 2)
        on = Point(c.x + ux * r, c.y + uy * r)
        for dx, dy in ((ux, uy), (-ux, -uy), (-uy, ux), (ux - uy, uy + ux), (ux + uy, uy - ux)):
            yield on, Point(on.x + dx, on.y + dy), c, r
            yield Point(on.x + dx, on.y + dy), on, c, r


def test_integer_disk_test_matches_fraction_reference():
    verdicts = set()
    for a, b, c, r in disk_cases():
        want = fraction_enters_open_disk(a, b, c, r * r)
        assert integer_enters_open_disk(a, b, c, r) == want, (a, b, c, r)
        verdicts.add(want)
    assert verdicts == {False, True}


grid_point = st.builds(lambda x, y, d: Point(Fraction(x, d), Fraction(y, d)),
                       st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 2, 5]))


@DEGENERATE
@given(grid_point, grid_point, grid_point,
       st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 5])))
def test_integer_disk_test_matches_fraction_reference_on_grid(a, b, c, r):
    assert integer_enters_open_disk(a, b, c, r) == fraction_enters_open_disk(a, b, c, r * r)
