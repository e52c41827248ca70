import pytest

from strandkit.arrangement import compute_arrangement, intersection_graph
from strandkit.errors import CheckFailure, SceneError
from strandkit.geometry import pt
from strandkit.localise import (bigon_reduce, build_HR, crossing_census,
                                localise_pipeline, reassemble,
                                select_crossings)
from strandkit.scene import Curve, StringScene


def r_membership_counts(inst) -> dict:
    """How many R-pairs each piece participates in (the delta_e audit)."""
    counts = {pid: 0 for pid in inst.pieces}
    for pair in inst.R:
        for pid in pair:
            counts[pid] += 1
    return counts


def test_select_one_per_pair(bigon_scene):
    events = compute_arrangement(bigon_scene)
    sel = select_crossings(bigon_scene, events)
    assert sorted(sel) == [("u", "v"), ("u", "w1"), ("u", "w2"), ("v", "z")]
    # the first crossing along the lex-smaller curve wins
    assert sel[("u", "v")].id == "x:u:v:0"


def test_build_HR_structure(bigon_scene):
    events = compute_arrangement(bigon_scene)
    inst = build_HR(bigon_scene, events, select_crossings(bigon_scene, events))
    assert inst.H.vertices == [("u", "v"), ("u", "w1"), ("u", "w2"), ("v", "z")]
    assert sorted(inst.pieces) == [("u", 0), ("u", 1), ("v", 0)]
    assert inst.R == {frozenset({("u", 1), ("v", 0)})}
    # the three unselected u-v crossings survive on the two interior pieces
    assert inst.drawing[("u", 1)] == ["x:u:v:1", "x:u:v:2", "x:u:v:3"]
    assert inst.crossing_count() == 3
    assert inst.sigma["u"] == ["w1", "v", "w2"]


def test_r_membership_counts(bigon_scene):
    events = compute_arrangement(bigon_scene)
    inst = build_HR(bigon_scene, events, select_crossings(bigon_scene, events))
    counts = r_membership_counts(inst)
    assert counts[("u", 1)] == 1 and counts[("v", 0)] == 1
    assert counts[("u", 0)] == 0


def test_bigon_reduce(bigon_scene):
    events = compute_arrangement(bigon_scene)
    inst = build_HR(bigon_scene, events, select_crossings(bigon_scene, events))
    reduced = bigon_reduce(inst)
    assert reduced.crossing_count() == 1
    left = [x for xs in reduced.drawing.values() for x in xs]
    assert sorted(set(left)) == ["x:u:v:3"]


def test_reassemble_preserves_graph(bigon_scene):
    events = compute_arrangement(bigon_scene)
    inst = build_HR(bigon_scene, events, select_crossings(bigon_scene, events))
    reduced = bigon_reduce(inst)
    new_scene = reassemble(reduced)
    assert new_scene.curves["u"].crossings == \
        ("x:u:w1:0", "x:u:v:0", "x:u:v:3", "x:u:w2:0")
    old = intersection_graph(bigon_scene, events).edge_list()
    new_events = compute_arrangement(new_scene)
    assert intersection_graph(new_scene, new_events).edge_list() == old


def plus_and_far() -> StringScene:
    """a and b cross once; c crosses nothing."""
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-1, 0), pt(1, 0)))
    s.curves["b"] = Curve("b", (pt(0, -1), pt(0, 1)))
    s.curves["c"] = Curve("c", (pt(5, 5), pt(6, 5)))
    s.validate()
    return s


def test_reassemble_keeps_every_curve():
    s = plus_and_far()
    events = compute_arrangement(s)
    inst = build_HR(s, events, select_crossings(s, events))
    with pytest.raises(CheckFailure, match=r"lost curves \['c'\]"):
        reassemble(inst)


def test_pipeline_rejects_isolated_curve():
    s = plus_and_far()
    with pytest.raises(SceneError, match="curve 'c' crosses no other curve"):
        localise_pipeline(s, compute_arrangement(s))


def test_census(bigon_scene):
    events = compute_arrangement(bigon_scene)
    census = crossing_census(bigon_scene, events)
    u = census["curves"]["u"]
    assert u == {"count": 6, "degree": 3, "bound": 17, "within_bound": True}
    z = census["curves"]["z"]
    assert z == {"count": 1, "degree": 1, "bound": 1, "within_bound": True}


def test_census_delta_flag(plus_sign):
    events = compute_arrangement(plus_sign)
    census = crossing_census(plus_sign, events, delta=1)
    assert census["is_delta_string"]
    census = crossing_census(plus_sign, events, delta=0)
    assert not census["is_delta_string"]


def test_pipeline_reduces(bigon_scene):
    events = compute_arrangement(bigon_scene)
    rep = localise_pipeline(bigon_scene, events)
    assert rep["crossings_before"] == 3
    assert rep["crossings_after"] == 1
    after = rep["census_after"]["curves"]
    before = rep["census_before"]["curves"]
    for cid in after:
        assert after[cid]["count"] <= before[cid]["count"]
        assert after[cid]["within_bound"]


def test_pipeline_plus_sign_roundtrip(plus_sign):
    events = compute_arrangement(plus_sign)
    rep = localise_pipeline(plus_sign, events)
    assert rep["crossings_before"] == rep["crossings_after"] == 0
    assert rep["census_after"]["curves"]["h"]["count"] == 1
    assert sorted(rep["scene"].curves) == ["h", "v"]


def test_pipeline_on_random_scenes():
    from strandkit.families import gen_random
    for seed in range(5):
        scene = gen_random(6, 3, seed)
        events = compute_arrangement(scene)
        rep = localise_pipeline(scene, events)
        assert rep["crossings_after"] <= rep["crossings_before"]
        old = intersection_graph(scene, events).edge_list()
        new_events = compute_arrangement(rep["scene"])
        assert intersection_graph(rep["scene"], new_events).edge_list() == old
