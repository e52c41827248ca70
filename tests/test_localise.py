import pytest

from strandkit.arrangement import compute_arrangement, intersection_graph
from strandkit.decomp import Pipeline, crossing_census
from strandkit.errors import InvariantError, SceneError
from strandkit.geometry import pt
from strandkit.graph import Graph
from strandkit.localise import (AuxiliaryInstance, bigon_reduce, build_HR,
                                reassemble, select_crossings)
from strandkit.scene import Curve, StringScene


def instance(scene):
    """The scene's pipeline and its auxiliary instance."""
    p = Pipeline(scene)
    return p, build_HR(p.along, select_crossings(p.events))


def r_membership_counts(inst) -> dict:
    """How many R-pairs each piece participates in (the delta_e audit)."""
    counts = {pid: 0 for pid in inst.pieces}
    for pair in inst.R:
        for pid in pair:
            counts[pid] += 1
    return counts


def test_select_one_per_pair(bigon_scene):
    events = compute_arrangement(bigon_scene)
    sel = select_crossings(events)
    assert sorted(sel) == [("u", "v"), ("u", "w1"), ("u", "w2"), ("v", "z")]
    # the first crossing along the lex-smaller curve wins
    assert sel[("u", "v")].id == "x:u:v:0"


def test_build_HR_structure(bigon_scene):
    _, inst = instance(bigon_scene)
    assert inst.H.vertices == [("u", "v"), ("u", "w1"), ("u", "w2"), ("v", "z")]
    assert sorted(inst.pieces) == [("u", 0), ("u", 1), ("v", 0)]
    assert inst.R == {frozenset({("u", 1), ("v", 0)})}
    # the three unselected u-v crossings survive on the two interior pieces
    assert inst.drawing[("u", 1)] == ["x:u:v:1", "x:u:v:2", "x:u:v:3"]
    assert inst.crossing_count() == 3
    assert inst.sigma["u"] == ["w1", "v", "w2"]


def test_r_membership_counts(bigon_scene):
    _, inst = instance(bigon_scene)
    counts = r_membership_counts(inst)
    assert counts[("u", 1)] == 1 and counts[("v", 0)] == 1
    assert counts[("u", 0)] == 0


def test_bigon_reduce(bigon_scene):
    _, inst = instance(bigon_scene)
    reduced = bigon_reduce(inst)
    assert reduced.crossing_count() == 1
    left = [x for xs in reduced.drawing.values() for x in xs]
    assert sorted(set(left)) == ["x:u:v:3"]


def test_reassemble_preserves_graph(bigon_scene):
    p, inst = instance(bigon_scene)
    reduced = bigon_reduce(inst)
    new_scene = reassemble(reduced, p.along)
    assert new_scene.curves["u"].crossings == \
        ("x:u:w1:0", "x:u:v:0", "x:u:v:3", "x:u:w2:0")
    old = p.graph.edge_list()
    new_events = compute_arrangement(new_scene)
    assert intersection_graph(new_scene, new_events).edge_list() == old


def test_bigon_reduce_keeps_a_bigon_with_a_crossing_inside():
    """x and y are consecutive on piece a but not on b, where z lies between
    them: the bigon is not empty, so nothing is removed."""
    drawing = {("a", 0): ["x", "y"], ("b", 0): ["x", "z", "y"], ("c", 0): ["z"]}
    inst = AuxiliaryInstance(Graph(), {}, set(), {}, drawing, {}, {})
    assert bigon_reduce(inst).drawing == drawing


def test_reassemble_checks_the_intersection_graph(bigon_scene):
    """A selection naming a pair that does not cross cannot be reassembled."""
    p, inst = instance(bigon_scene)
    selection = {**inst.selection, ("u", "z"): inst.selection["v", "z"]}
    with pytest.raises(InvariantError, match="^reassembled scene changed the intersection graph$"):
        reassemble(inst._replace(selection=selection), p.along)


def plus_and_far() -> StringScene:
    """a and b cross once; c crosses nothing."""
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-1, 0), pt(1, 0)))
    s.curves["b"] = Curve("b", (pt(0, -1), pt(0, 1)))
    s.curves["c"] = Curve("c", (pt(5, 5), pt(6, 5)))
    s.validate()
    return s


def test_reassemble_keeps_every_curve():
    p, inst = instance(plus_and_far())
    with pytest.raises(InvariantError, match=r"lost curves \['c'\]"):
        reassemble(inst, p.along)


def test_pipeline_rejects_isolated_curve():
    s = plus_and_far()
    with pytest.raises(SceneError, match="curve 'c' crosses no other curve"):
        Pipeline(s).localised


def test_census(bigon_scene):
    census = crossing_census(Pipeline(bigon_scene).along)
    u = census["curves"]["u"]
    assert u == {"count": 6, "degree": 3, "bound": 17, "within_bound": True}
    z = census["curves"]["z"]
    assert z == {"count": 1, "degree": 1, "bound": 1, "within_bound": True}


def test_census_after_reads_the_new_scene(bigon_scene):
    """The census after reassembly equals the census of the reassembled
    scene's own arrangement."""
    rep = Pipeline(bigon_scene).localised
    assert rep["census_after"] == crossing_census(Pipeline(rep["scene"]).along)
    assert rep["census_after"]["curves"]["u"]["count"] == 4


def test_pipeline_reduces(bigon_scene):
    rep = Pipeline(bigon_scene).localised
    assert rep["crossings_before"] == 3
    assert rep["crossings_after"] == 1
    after = rep["census_after"]["curves"]
    before = rep["census_before"]["curves"]
    for cid in after:
        assert after[cid]["count"] <= before[cid]["count"]
        assert after[cid]["within_bound"]


def test_pipeline_plus_sign_roundtrip(plus_sign):
    rep = Pipeline(plus_sign).localised
    assert rep["crossings_before"] == rep["crossings_after"] == 0
    assert rep["census_after"]["curves"]["h"]["count"] == 1
    assert sorted(rep["scene"].curves) == ["h", "v"]


def test_pipeline_on_random_scenes():
    from strandkit.families import gen_random
    for seed in range(5):
        p = Pipeline(gen_random(6, 3, seed))
        rep = p.localised
        assert rep["crossings_after"] <= rep["crossings_before"]
        assert rep["census_after"] == crossing_census(Pipeline(rep["scene"]).along)
        old = p.graph.edge_list()
        new_events = compute_arrangement(rep["scene"])
        assert intersection_graph(rep["scene"], new_events).edge_list() == old
