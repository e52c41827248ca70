import pytest

from strandkit.arrangement import compute_arrangement
from strandkit.colouring import OrderedColouring
from strandkit.errors import SceneError
from strandkit.geometry import pt
from strandkit.planarise import (check_coloured_planarisation,
                                 coloured_planarisation, coloured_to_json,
                                 euler_genus, fragments, planarisation_to_dot,
                                 planarisation_to_json, planarise,
                                 scene_to_svg, sections)
from strandkit.scene import Curve, StringScene


def test_plus_sign_planarisation(plus_sign):
    events = compute_arrangement(plus_sign)
    plan = planarise(plus_sign, events)
    assert len(plan.embedding.rotation) == 5
    assert plan.embedding.edge_count() == 4
    assert plan.dummies() == ["x:h:v:0"]
    assert len(plan.endpoints()) == 4
    assert plan.curve_paths["h"] == ["e:h:0", "x:h:v:0", "e:h:1"]
    assert euler_genus(plan) == 0


def test_isolated_curve_rejected():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-1, 0), pt(1, 0)))
    s.curves["b"] = Curve("b", (pt(0, -1), pt(0, 1)))
    s.curves["far"] = Curve("far", (pt(9, 9), pt(10, 9)))
    s.validate()
    events = compute_arrangement(s)
    with pytest.raises(SceneError, match="curve 'far' crosses no other curve"):
        planarise(s, events)


def test_plus_sign_fragments(plus_sign, plus_colouring):
    events = compute_arrangement(plus_sign)
    plan = planarise(plus_sign, events)
    fr_h = fragments(plan, plus_colouring, "h")
    assert len(fr_h) == 1
    assert fr_h[0].path == ("e:h:0", "x:h:v:0", "e:h:1")
    assert sections(plan, plus_colouring, "h") == [["x:h:v:0"]]
    fr_v = fragments(plan, plus_colouring, "v")
    assert len(fr_v) == 2           # cut at the crossing with smaller colour
    assert sections(plan, plus_colouring, "v") == []


def test_same_colour_crossing_rejected(plus_sign):
    events = compute_arrangement(plus_sign)
    plan = planarise(plus_sign, events)
    bad = OrderedColouring({"h": 1, "v": 1}, 1)
    with pytest.raises(SceneError):
        fragments(plan, bad, "h")


def test_plus_sign_coloured_equals_planarisation(plus_sign, plus_colouring):
    events = compute_arrangement(plus_sign)
    plan = planarise(plus_sign, events)
    cp = coloured_planarisation(plan, plus_colouring)
    # single-vertex sections keep their ids: C^phi = C'
    assert sorted(cp.embedding.rotation) == sorted(plan.embedding.rotation)
    assert cp.level["x:h:v:0"] == 1
    assert all(cp.level[e] == 0 for e in cp.endpoints)
    assert cp.walks["h"] == ["e:h:0", "x:h:v:0", "e:h:1"]
    assert cp.walks["v"] == ["e:v:0", "x:h:v:0", "e:v:1"]
    check_coloured_planarisation(plan, cp)
    assert euler_genus(cp) == 0


def test_multicross_fragments_and_sections(abstract_multicross, abstract_colouring):
    events = compute_arrangement(abstract_multicross)
    plan = planarise(abstract_multicross, events)
    fr = fragments(plan, abstract_colouring, "m")
    # cuts at the four crossings with colours 1 and 2
    assert len(fr) == 5
    secs = sections(plan, abstract_colouring, "m")
    assert sorted(len(s) for s in secs) == [1, 2, 2]
    cp = coloured_planarisation(plan, abstract_colouring)
    check_coloured_planarisation(plan, cp)
    # walk of m never exceeds level 3 and alternates away from own level
    assert all(cp.level[x] <= 3 for x in cp.walks["m"])


def test_contraction_counts(abstract_multicross, abstract_colouring):
    events = compute_arrangement(abstract_multicross)
    plan = planarise(abstract_multicross, events)
    cp = coloured_planarisation(plan, abstract_colouring)
    shrunk = sum(len(s) - 1 for s in cp.sections.values())
    assert len(plan.kind) - len(cp.embedding.rotation) == shrunk
    # psi fixes endpoints and maps each section onto its representative
    for rep, sec in cp.sections.items():
        assert all(cp.psi[v] == rep for v in sec)


def test_twisted_arc_raises_genus(abstract_multicross):
    events = compute_arrangement(abstract_multicross)
    plain = planarise(abstract_multicross, events)
    base = euler_genus(plain)
    m = abstract_multicross.curves["m"]
    abstract_multicross.curves["m"] = Curve("m", None, m.crossings, twists=(4,))
    abstract_multicross.validate()
    twisted = planarise(abstract_multicross, events)
    assert euler_genus(twisted) != base or euler_genus(twisted) % 2 != base % 2


def test_double_crossing_twist_genus():
    s = StringScene()
    s.curves["a"] = Curve("a", None, ("x0", "x1"))
    s.curves["b"] = Curve("b", None, ("x0", "x1"))
    s.chirality = {"x0": 1, "x1": -1}
    s.validate()
    events = compute_arrangement(s)
    assert euler_genus(planarise(s, events)) == 0
    s.curves["a"] = Curve("a", None, ("x0", "x1"), twists=(1,))
    twisted = planarise(s, compute_arrangement(s))
    assert euler_genus(twisted) == 1


def test_emitters(plus_sign, plus_colouring):
    events = compute_arrangement(plus_sign)
    plan = planarise(plus_sign, events)
    cp = coloured_planarisation(plan, plus_colouring)
    pj = planarisation_to_json(plan)
    assert {v["id"] for v in pj["vertices"]} == set(plan.kind)
    cj = coloured_to_json(cp)
    assert cj["walks"]["h"] == cp.walks["h"]
    dot = planarisation_to_dot(plan)
    assert dot.startswith("graph") and "x:h:v:0" in dot
    svg = scene_to_svg(plus_sign, plus_colouring, highlight="h", plan=plan)
    assert svg.startswith("<svg") and "polyline" in svg


def test_svg_needs_geometry(abstract_multicross):
    with pytest.raises(SceneError):
        scene_to_svg(abstract_multicross)
