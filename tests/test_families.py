import pytest

from strandkit.arrangement import compute_arrangement, intersection_graph
from strandkit.check import verify_model
from strandkit.decomp import exact_treewidth
from strandkit.errors import DegeneracyError, InvariantError, SceneError
from strandkit.families import gen_grounded, gen_random, gen_segment_family
from strandkit.formats import dumps_scene
from strandkit.geometry import pt
from strandkit.graph import Graph
from strandkit.product_model import MinorModel
from strandkit.scene import CrossingEvent
from convex_sets import (ConvexScene, convex_to_drawing, gen_grid_disk,
                         gen_random_convex, gen_rectangle_family)
from test_colouring import degeneracy
from test_decomp import graph_radius


# ------------------------------------------------------- family certifiers

def certify_grid_disk(cs: ConvexScene, t: int) -> dict:
    """Degeneracy, radius, and grid-vs-dominant structure of the scene."""
    g = cs.graph()
    want = set()
    for i in range(t):
        for j in range(t):
            if i + 1 < t:
                want.add((f"d:{i}:{j}", f"d:{i+1}:{j}"))
            if j + 1 < t:
                want.add((f"d:{i}:{j}", f"d:{i}:{j+1}"))
            want.add((f"d:{i}:{j}", "dom"))
    got = {tuple(sorted(e)) for e in g.edge_list()}
    structure = got == {tuple(sorted(e)) for e in want}
    grid_part = g.subgraph(v for v in g.vertices if v != "dom")
    return {"vertices": len(g), "structure_ok": structure,
            "degeneracy": degeneracy(g), "radius": graph_radius(g),
            "grid_graph": grid_part}


def certify_segment_family(scene, t: int) -> dict:
    events = compute_arrangement(scene)
    g = intersection_graph(scene, events)
    return {"vertices": len(g), "expected_vertices": 2 * t * t + 1,
            "degeneracy": degeneracy(g), "radius": graph_radius(g),
            "k22_free": not has_k22(g), "graph": g}


def has_k22(g: Graph) -> bool:
    """Brute-force search for K_{2,2} as a (not necessarily induced) subgraph."""
    verts = g.vertices
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            if len(g.adj[a] & g.adj[b]) >= 2:
                return True
    return False


def ktt_minor_model(scene, t: int) -> tuple:
    """Model of K_{t,t} in the segment family's intersection graph.

    One side is the singletons {gamma_i}; the other the chains
    X_j = {alpha_1^j, beta_1^j, ..., alpha_t^j}.  Returns (model, K_tt);
    verify_model must accept it.
    """
    host = intersection_graph(scene, compute_arrangement(scene))
    mu = {}
    for i in range(1, t + 1):
        mu[("r", i)] = frozenset({(f"g{i}", 1)})
    for j in range(1, t + 1):
        chain = [f"a{i}_{j}" for i in range(1, t + 1)]
        chain += [f"b{i}_{j}" for i in range(1, t)]
        mu[("c", j)] = frozenset((v, 1) for v in chain)
    model = MinorModel(mu, host, 1)
    ktt = Graph(edges=[(("r", i), ("c", j))
                       for i in range(1, t + 1) for j in range(1, t + 1)])
    report = verify_model(model, ktt)
    if not report["valid"]:
        raise InvariantError(f"K_tt model invalid: {report['violated_clause']}")
    return model, ktt


# ------------------------------------------------------------ convex scenes

def test_two_overlapping_squares():
    cs = ConvexScene({"a": [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)],
                      "b": [pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3)]})
    d = convex_to_drawing(cs)
    assert len(d["crossings"]) == 1
    assert d["max_crossings"] == 0


def test_disjoint_sets_empty_drawing():
    cs = ConvexScene({"a": [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)],
                      "b": [pt(5, 5), pt(6, 5), pt(6, 6), pt(5, 6)]})
    d = convex_to_drawing(cs)
    assert d["crossings"] == {}


def test_tangential_touch_rejected():
    cs = ConvexScene({"a": [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)],
                      "b": [pt(2, 0), pt(4, 0), pt(4, 2), pt(2, 2)]})
    with pytest.raises(SceneError):
        cs.graph()


def test_rectangle_family_crossing_cap():
    for delta in (1, 2, 3, 4):
        cs = gen_rectangle_family(delta)
        g = cs.graph()
        assert len(g.edge_list()) == delta * delta  # the K_{delta,delta} pattern
        d = convex_to_drawing(cs)
        assert d["max_crossings"] <= d["cap"] == 2 * delta * delta


def test_random_convex_deterministic():
    a = gen_random_convex(6, 3)
    b = gen_random_convex(6, 3)
    assert a.sets == b.sets
    convex_to_drawing(a)


# ----------------------------------------------------------------- grid disk

def test_grid_disk_t2_structure():
    cs = gen_grid_disk(2)
    rep = certify_grid_disk(cs, 2)
    assert rep["vertices"] == 5
    assert rep["structure_ok"]
    assert len(cs.graph().adj["dom"]) == 4


def test_grid_disk_t4_certification():
    rep = certify_grid_disk(gen_grid_disk(4), 4)
    assert rep["structure_ok"]
    assert rep["degeneracy"] == 3
    assert rep["radius"] == 1
    assert exact_treewidth(rep["grid_graph"]) == 4


def test_grid_disk_needs_t2():
    with pytest.raises(SceneError):
        gen_grid_disk(1)


# ------------------------------------------------------------ segment family

def test_segment_family_t1_path():
    scene = gen_segment_family(1)
    rep = certify_segment_family(scene, 1)
    assert rep["vertices"] == 3
    assert sorted(scene.curves) == ["a1_1", "g", "g1"]
    g = rep["graph"]
    assert sorted(len(g.adj[v]) for v in g.vertices) == [1, 1, 2]  # a path


def test_segment_family_certifications():
    for t in (2, 3):
        rep = certify_segment_family(gen_segment_family(t), t)
        assert rep["vertices"] == 2 * t * t + 1
        assert rep["degeneracy"] == 2
        assert rep["radius"] == 3
        assert rep["k22_free"]


def test_segment_family_degrees():
    scene = gen_segment_family(3)
    events = compute_arrangement(scene)
    g = intersection_graph(scene, events)
    for i in range(1, 3):
        for j in range(1, 4):
            assert len(g.adj[f"b{i}_{j}"]) == 2
            assert sorted(g.adj[f"b{i}_{j}"]) == [f"a{i}_{j}", f"a{i+1}_{j}"]
    for i in range(1, 4):
        for j in range(1, 4):
            assert len(g.adj[f"a{i}_{j}"]) <= 3
            assert f"g{i}" in g.adj[f"a{i}_{j}"]


def test_ktt_model():
    for t in (1, 2, 3):
        scene = gen_segment_family(t)
        model, ktt = ktt_minor_model(scene, t)
        assert verify_model(model, ktt)["valid"]
        assert len(model.mu) == 2 * t


def test_ktt_contraction_witness_treewidth():
    # contracting the branch sets of the t=3 model leaves K_{3,3}: tw = 3
    k33 = Graph(edges=[(("r", i), ("c", j)) for i in range(3) for j in range(3)])
    assert exact_treewidth(k33) == 3


# ------------------------------------------------------------- random scenes

def test_gen_random_deterministic():
    a = gen_random(8, 2, 5)
    b = gen_random(8, 2, 5)
    assert dumps_scene(a) == dumps_scene(b)


def test_gen_random_lets_unexpected_errors_through(monkeypatch):
    import strandkit.families as families

    def broken(scene):
        raise RuntimeError("arrangement bug")
    monkeypatch.setattr(families, "compute_arrangement", broken)
    with pytest.raises(RuntimeError, match="arrangement bug"):
        gen_random(4, 1, 0)


def test_gen_random_names_the_cap_when_it_gives_up(monkeypatch):
    """Every candidate crossing one pair three times against a cap of 2: the
    error names n and the cap, with the count of candidates over it."""
    import strandkit.families as families

    def thrice(scene):
        return [CrossingEvent(f"x{k}", "c00", "c01", k, k, 1) for k in range(3)]
    monkeypatch.setattr(families, "compute_arrangement", thrice)
    with pytest.raises(SceneError, match=r"^no random scene of n=4 curves for seed 7: "
                       r"200 of 200 candidates cross some curve pair more than "
                       r"crossings_per_pair=2 times$"):
        gen_random(4, 2, 7)


def test_gen_random_skips_a_candidate_the_arrangement_refuses(monkeypatch):
    """A candidate the arrangement refuses is skipped, and a later one is
    returned."""
    import strandkit.families as families
    real, calls = families.compute_arrangement, []

    def refuse_first(scene):
        calls.append(scene)
        if len(calls) == 1:
            raise DegeneracyError("refused on purpose")
        return real(scene)
    monkeypatch.setattr(families, "compute_arrangement", refuse_first)
    scene = gen_random(4, 2, 7)
    assert len(calls) >= 2 and scene is calls[-1]


def test_gen_grounded_names_the_seed_when_it_gives_up(monkeypatch):
    """Every candidate leaving a curve without a crossing: after 200 the
    error names the seed."""
    import strandkit.families as families
    monkeypatch.setattr(families, "compute_arrangement", lambda scene: [])
    with pytest.raises(SceneError,
                       match=r"^no isolated-curve-free grounded scene for seed 5$"):
        gen_grounded(3, 5)


@pytest.mark.parametrize("cap", [0, -1])
def test_gen_random_rejects_a_cap_below_one(cap):
    with pytest.raises(SceneError, match=r"crossings_per_pair must be >= 1"):
        gen_random(6, cap, 0)


def test_gen_random_respects_cap():
    for seed in range(5):
        for cap in (1, 2, 3):
            scene = gen_random(6, cap, seed)
            per = {}
            for e in compute_arrangement(scene):
                key = (e.curve_a, e.curve_b)
                per[key] = per.get(key, 0) + 1
            assert max(per.values()) <= cap


def test_gen_grounded_valid_and_deterministic():
    a = gen_grounded(6, 2)
    b = gen_grounded(6, 2)
    assert dumps_scene(a) == dumps_scene(b)
    assert a.grounded_curves() == a.curve_ids()
    events = compute_arrangement(a)
    crossing = {e.curve_a for e in events} | {e.curve_b for e in events}
    assert crossing == set(a.curve_ids())
