import copy
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from networkx.algorithms.planarity import ConflictPair

from strandkit.decomp import Pipeline, _triangulate, grounded_quotient
from strandkit.embedding import EmbeddedGraph, euler_genus, planar_embedding, reverse
from strandkit.errors import InvariantError, SceneError
from strandkit.families import gen_grounded
from strandkit.graph import Graph, connected_components
import corpus


def genus(g: EmbeddedGraph) -> int:
    return euler_genus(g, g.simple_graph())


def square_embedding() -> EmbeddedGraph:
    g = EmbeddedGraph()
    g.add_edge("e0", 0, 1)
    g.add_edge("e1", 1, 2)
    g.add_edge("e2", 2, 3)
    g.add_edge("e3", 3, 0)
    return g


def test_cycle_is_planar():
    g = square_embedding()
    g.check()
    assert genus(g) == 0
    assert len(g.trace_faces()) == 2


def test_k4_planar_embedding():
    g = EmbeddedGraph()
    # planar rotation system of K4: 3 in the middle of triangle 0-1-2
    g.add_edge("a", 0, 1)
    g.add_edge("b", 1, 2)
    g.add_edge("c", 2, 0)
    g.add_edge("d", 0, 3)
    g.add_edge("e", 1, 3)
    g.add_edge("f", 2, 3)
    g.rotation[0] = [("a", 0), ("d", 0), ("c", 1)]
    g.rotation[1] = [("b", 0), ("e", 0), ("a", 1)]
    g.rotation[2] = [("c", 0), ("f", 0), ("b", 1)]
    g.rotation[3] = [("d", 1), ("e", 1), ("f", 1)]
    g.check()
    assert genus(g) == 0
    assert len(g.trace_faces()) == 4


def test_k4_toroidal_embedding():
    g = EmbeddedGraph()
    g.add_edge("a", 0, 1)
    g.add_edge("b", 1, 2)
    g.add_edge("c", 2, 0)
    g.add_edge("d", 0, 3)
    g.add_edge("e", 1, 3)
    g.add_edge("f", 2, 3)
    # swap two darts at vertex 3: genus goes up
    g.rotation[0] = [("a", 0), ("d", 0), ("c", 1)]
    g.rotation[1] = [("b", 0), ("e", 0), ("a", 1)]
    g.rotation[2] = [("c", 0), ("f", 0), ("b", 1)]
    g.rotation[3] = [("e", 1), ("d", 1), ("f", 1)]
    g.check()
    assert genus(g) == 2


def test_loop_on_sphere():
    g = EmbeddedGraph()
    g.add_edge("l", 0, 0)
    assert genus(g) == 0
    assert len(g.trace_faces()) == 2


def test_one_signature_edge_gives_crosscap():
    g = square_embedding()
    g.signature["e1"] = -1
    assert genus(g) == 1


def test_vertex_flip_preserves_surface():
    g = square_embedding()
    g.signature["e1"] = -1
    oracle_flip_vertex(g, 2)
    # the twist moves to the other edge at vertex 2; the surface is unchanged
    assert g.signature["e1"] == 1 and g.signature["e2"] == -1
    assert genus(g) == 1
    oracle_flip_vertex(g, 3)
    oracle_flip_vertex(g, 0)  # pushes the twist around the cycle and back
    assert genus(g) == 1


def test_contract_edge_preserves_genus():
    for sig in (1, -1):
        g = square_embedding()
        g.signature["e1"] = sig
        before = genus(g)
        oracle_contract_edge(g, "e0")
        g.check()
        assert genus(g) == before
        assert 0 in g.rotation and 1 not in g.rotation


@pytest.mark.parametrize("rotation, error", [
    ({0: [("e0", 0), ("e3", 1), ("e0", 0)]}, "does not list each dart exactly once"),
    ({0: [("e0", 0)]}, "does not list each dart exactly once"),
    ({0: [("e0", 0), ("e1", 0)], 1: [("e0", 1), ("e3", 1)]},
     "dart ('e1', 0) listed at wrong vertex 0"),
])
def test_check_names_each_broken_rotation(rotation, error):
    g = square_embedding()
    g.rotation.update(rotation)
    with pytest.raises(InvariantError, match=re.escape(error)):
        g.check()


def test_genus_refuses_a_face_trace_beyond_euler():
    """One edge whose two darts both sit at u traces two faces, so
    V - E + F = 3: no surface has that, and the count refuses it."""
    g = EmbeddedGraph()
    g.add_edge("e", "u", "v")
    g.rotation = {"u": [("e", 0), ("e", 1)], "v": []}
    with pytest.raises(InvariantError, match="^inconsistent face trace in component 0$"):
        genus(g)


def test_contract_loop_rejected():
    g = EmbeddedGraph()
    g.add_edge("l", 0, 0)
    with pytest.raises(InvariantError):
        oracle_contract_edge(g, "l")


def test_oriented_faces_partition_darts():
    g = square_embedding()
    g.add_edge("diag", 0, 2)
    g.rotation[0] = [("e0", 0), ("diag", 0), ("e3", 1)]
    g.rotation[2] = [("e2", 0), ("diag", 1), ("e1", 1)]
    faces = g.trace_faces()
    darts = [d for f in faces for d in f]
    assert len(darts) == 2 * g.edge_count()
    assert len(set(darts)) == len(darts)
    assert len(faces) == 3  # square with a chord, planar


def test_oriented_tracing_requires_positive_signatures():
    """Faces are listed for plane embeddings only: trace_faces, and so
    _triangulate, refuse a signature -1, while euler_genus counts them."""
    g = square_embedding()
    g.signature["e2"] = -1
    for trace in (g.trace_faces, lambda: _triangulate(g)):
        with pytest.raises(InvariantError, match="^oriented tracing needs all signatures [+]1$"):
            trace()
    assert genus(g) == 1


def test_add_chord_splits_face():
    g = square_embedding()
    faces = g.trace_faces()
    face = max(faces, key=len)
    g.add_chord(face, 0, 2, "chord")
    g.check()
    assert genus(g) == 0
    assert len(g.trace_faces()) == 3


def test_reverse_dart():
    assert reverse(("e", 0)) == ("e", 1)
    assert reverse(("e", 1)) == ("e", 0)


def test_delete_vertex_and_edge():
    g = square_embedding()
    g.delete_edge("e0")
    assert g.edge_count() == 3
    g.delete_vertex(2)
    assert 2 not in g.rotation
    assert g.edge_count() == 1


# ------------------------------------------------------------------- oracles
# The earlier face tracers, chord loop and edits, kept to test the one-pass
# tracer, the one-pass triangulation and the local edits against.

def dart_head(g, dart):
    u, v = g.edge_ends[dart[0]]
    return v if dart[1] == 0 else u


def oracle_succ(g, v, dart, step):
    rot = g.rotation[v]
    return rot[(rot.index(dart) + step) % len(rot)]


def oracle_next_state(g, state):
    dart, orient = state
    orient = orient * g.signature[dart[0]]
    return (oracle_succ(g, dart_head(g, dart), reverse(dart), orient), orient)


def oracle_mirror(g, state):
    dart, orient = state
    return (reverse(dart), -orient * g.signature[dart[0]])


def oracle_trace_faces(g):
    states = set()
    for v in g.rotation:
        for d in g.rotation[v]:
            states.add((d, 1))
            states.add((d, -1))
    faces = []
    seen = set()
    for start in sorted(states, key=lambda s: (repr(s[0]), s[1])):
        if start in seen:
            continue
        orbit = []
        s = start
        while True:
            orbit.append(s)
            seen.add(s)
            s = oracle_next_state(g, s)
            if s == start:
                break
        for st_ in orbit:
            seen.add(oracle_mirror(g, st_))
        faces.append([d for d, _ in orbit])
    return faces


def oracle_trace_faces_oriented(g):
    if any(s != 1 for s in g.signature.values()):
        raise InvariantError("oriented tracing needs all signatures +1")
    faces = []
    seen = set()
    for v in g.rotation:
        for d0 in g.rotation[v]:
            if d0 in seen:
                continue
            face = []
            d = d0
            while True:
                face.append(d)
                seen.add(d)
                d = oracle_succ(g, dart_head(g, d), reverse(d), 1)
                if d == d0:
                    break
            faces.append(face)
    return faces


def oracle_euler_genus(g, trace=oracle_trace_faces):
    comps = connected_components(g.simple_graph())
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    v_count = [0] * len(comps)
    e_count = [0] * len(comps)
    f_count = [0] * len(comps)
    for v in g.rotation:
        v_count[comp_of[v]] += 1
    for u, _ in g.edge_ends.values():
        e_count[comp_of[u]] += 1
    for face in trace(g):
        f_count[comp_of[g.dart_tail(face[0])]] += 1
    for i in range(len(comps)):
        if e_count[i] == 0:
            f_count[i] = 1
    return sum(2 - v_count[i] + e_count[i] - f_count[i] for i in range(len(comps)))


def test_genus_of_cphi_is_the_genus_of_cprime():
    """Contraction keeps the surface: euler_genus of C' and of C^phi is
    the oracle's genus of each, traced with the earlier tracer, on plain,
    twisted, doubly twisted and grounded scenes."""
    scenes = [corpus.abstract_multicross(), corpus.twisted_multicross(),
              corpus.twisted_double_crossing()]
    scenes += [gen_grounded(n, s) for n, s in [(6, 0), (12, 1), (20, 2), (48, 3)]]
    genera = []
    for scene in scenes:
        p = Pipeline(scene)
        for emb in (p.plan.embedding, p.cp.embedding):
            assert genus(emb) == oracle_euler_genus(emb) == p.genus
        genera.append(p.genus)
    assert genera == [4, 5, 1, 0, 0, 0, 0]


def oracle_flip_vertex(g, v):
    g.rotation[v] = list(reversed(g.rotation[v]))
    for eid, (a, b) in g.edge_ends.items():
        if a == v or b == v:
            if a == v and b == v:
                continue
            g.signature[eid] = -g.signature[eid]


def oracle_contract_edge(g, eid):
    u, v = g.edge_ends[eid]
    if u == v:
        raise InvariantError(f"cannot contract loop {eid!r}")
    if g.signature[eid] == -1:
        oracle_flip_vertex(g, v)
    rot_u = g.rotation[u]
    rot_v = g.rotation[v]
    iu = rot_u.index((eid, 0))
    iv = rot_v.index((eid, 1))
    g.rotation[u] = rot_u[:iu] + rot_v[iv + 1:] + rot_v[:iv] + rot_u[iu + 1:]
    del g.rotation[v]
    del g.edge_ends[eid]
    del g.signature[eid]
    g.edge_label.pop(eid, None)
    for other, (a, b) in list(g.edge_ends.items()):
        if a == v or b == v:
            g.edge_ends[other] = (u if a == v else a, u if b == v else b)


def oracle_triangulate(g):
    """Re-trace every face after each chord; chord the first face with more
    than 3 distinct corners at its first admissible corner pair."""
    serial = 0
    while True:
        target = None
        for face in oracle_trace_faces_oriented(g):
            corners = [g.dart_tail(d) for d in face]
            if len(set(corners)) > 3:
                target = (face, corners)
                break
        if target is None:
            return
        face, corners = target
        L = len(face)
        found = None
        for i in range(L):
            for j in range(i + 2, L):
                if i == 0 and j == L - 1:
                    continue
                if corners[i] != corners[j]:
                    found = (i, j)
                    break
            if found:
                break
        serial += 1
        g.add_chord(face, found[0], found[1], ("chord", serial))


def state(g):
    """Everything an embedding holds, dict insertion order included."""
    return (list(g.edge_ends.items()), list(g.signature.items()),
            list(g.rotation.items()), list(g.edge_label.items()))


@st.composite
def signed_rotation_systems(draw, all_positive=False):
    """Rotation systems on up to 6 vertices with loops and parallel edges."""
    n = draw(st.integers(1, 6))
    g = EmbeddedGraph()
    for v in range(n):
        g.add_vertex(v)
    for k in range(draw(st.integers(0, 10))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        sig = 1 if all_positive else draw(st.sampled_from([1, -1]))
        g.add_edge(f"e{k}", u, v, sig, label=k)
    for v in range(n):
        g.rotation[v] = list(draw(st.permutations(g.rotation[v])))
    return g


ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@ORACLE
@given(signed_rotation_systems(), st.lists(st.tuples(st.booleans(), st.integers(0, 99)),
                                           max_size=8))
def test_tracer_and_edits_match_oracle(g, ops):
    """Euler genus agrees with the earlier code after every edit of the
    oracle's, and so does the face count while every signature is +1;
    flips and contractions keep the surface, so the genus never moves."""
    before = genus(g)

    def agree():
        g.check()
        assert genus(g) == oracle_euler_genus(g) == before
        if -1 not in g.signature.values():
            assert len(g.trace_faces()) == len(oracle_trace_faces(g))

    agree()
    for flip, k in ops:
        if flip:
            oracle_flip_vertex(g, sorted(g.rotation)[k % len(g.rotation)])
        else:
            edges = [e for e, (a, b) in g.edge_ends.items() if a != b]
            if not edges:
                continue
            oracle_contract_edge(g, edges[k % len(edges)])
        agree()


def reference_trace_faces(g):
    """The signed tracer, the one tracer of every embedding before the
    all-positive orbit path: orbits of (dart, orientation) states, starts in
    rotation order with every +1 start before any -1 start, mirror states
    suppressed."""
    slot = {d: (rot, i) for rot in g.rotation.values() for i, d in enumerate(rot)}
    faces = []
    seen = set()
    for orient0 in (1, -1):
        for d0 in slot:
            if (d0, orient0) in seen:
                continue
            face = []
            d, orient = d0, orient0
            while True:
                face.append(d)
                back = reverse(d)
                seen.add((d, orient))
                orient *= g.signature[d[0]]
                seen.add((back, -orient))
                rot, i = slot[back]
                d = rot[(i + orient) % len(rot)]
                if d == d0 and orient == orient0:
                    break
            faces.append(face)
    return faces


@ORACLE
@given(signed_rotation_systems(all_positive=True))
def test_trace_faces_matches_oriented_oracle(g):
    assert g.trace_faces() == oracle_trace_faces_oriented(g) == reference_trace_faces(g)


def pipeline_embeddings(seed):
    """C', C^phi and the triangulated host embedding of gen_grounded(20, seed)."""
    p = Pipeline(gen_grounded(20, seed))
    triangulated = planar_embedding(p.model.host)
    _triangulate(triangulated)
    return {"cprime": p.plan.embedding, "cphi": p.cp.embedding,
            "triangulated-host": triangulated}


@pytest.mark.parametrize("seed", range(4))
def test_trace_faces_matches_oriented_oracle_on_pipeline_embeddings(seed):
    for name, g in pipeline_embeddings(seed).items():
        assert all(s == 1 for s in g.signature.values()), name
        faces = g.trace_faces()
        assert faces == oracle_trace_faces_oriented(g) == reference_trace_faces(g), name
        # one -1 edge: the faces are counted, not listed
        signed = copy.deepcopy(g)
        eid = sorted(signed.edge_ends, key=repr)[seed]
        signed.signature[eid] = -1
        assert genus(signed) == oracle_euler_genus(signed) == \
            oracle_euler_genus(signed, reference_trace_faces), name
        with pytest.raises(InvariantError, match="all signatures"):
            signed.trace_faces()


@ORACLE
@given(signed_rotation_systems(), st.integers(0, 99))
def test_signed_euler_genus_matches_oracles(g, k):
    """With at least one edge twisted, the orbit count's genus is the
    genus of both earlier signed tracers."""
    if g.edge_ends:
        g.signature[sorted(g.edge_ends)[k % len(g.edge_ends)]] = -1
    assert genus(g) == oracle_euler_genus(g) == oracle_euler_genus(g, reference_trace_faces)


def embedding(n, edges, rotation=()) -> EmbeddedGraph:
    """Vertices 0..n-1, edges (id, u, v, signature), then rotations."""
    g = EmbeddedGraph()
    for v in range(n):
        g.add_vertex(v)
    for eid, u, v, sig in edges:
        g.add_edge(eid, u, v, sig)
    g.rotation.update(rotation)
    g.check()
    return g


@pytest.mark.parametrize("g, want", [
    # a twisted loop is a crosscap: the projective plane
    (embedding(1, [("l", 0, 0, -1)]), 1),
    # two twisted loops: crossing, two lines of the projective plane; nested,
    # two crosscaps, the Klein bottle
    (embedding(1, [("a", 0, 0, -1), ("b", 0, 0, -1)],
               {0: [("a", 0), ("b", 0), ("a", 1), ("b", 1)]}), 1),
    (embedding(1, [("a", 0, 0, -1), ("b", 0, 0, -1)],
               {0: [("a", 0), ("a", 1), ("b", 0), ("b", 1)]}), 2),
    # parallel edges: one twist is a crosscap, two cancel at a vertex flip
    (embedding(2, [("p", 0, 1, 1), ("q", 0, 1, -1)]), 1),
    (embedding(2, [("p", 0, 1, -1), ("q", 0, 1, -1)]), 0),
    # isolated vertices are spheres
    (embedding(3, [("l", 1, 1, -1)]), 1),
    # components add: two twisted loops and a triangle with one twist
    (embedding(6, [("l", 0, 0, -1), ("m", 1, 1, -1), ("a", 2, 3, 1),
                   ("b", 3, 4, -1), ("c", 4, 2, 1)]), 3),
], ids=["twisted-loop", "crossing-twisted-loops", "nested-twisted-loops",
        "one-twisted-parallel-edge", "two-twisted-parallel-edges",
        "isolated-vertices", "three-components"])
def test_signed_euler_genus_of_small_embeddings(g, want):
    assert genus(g) == oracle_euler_genus(g) == want


def networkx_embedding(n, edges):
    """A plane rotation system of a planar graph, by networkx's LR test."""
    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_edges_from(edges)
    ok, pe = nx.check_planarity(ng)
    assert ok
    g = EmbeddedGraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(("e", u, v), u, v)
    for v in range(n):
        g.rotation[v] = [(("e", v, w), 0) if v < w else (("e", w, v), 1)
                         for w in pe.neighbors_cw_order(v)]
    g.check()
    return g


@st.composite
def planar_graphs(draw):
    """A random spanning tree plus the extra edges that keep it planar:
    trees, graphs with cut vertices and dense planar graphs all occur."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # u < v
    ng = nx.Graph(edges)
    ng.add_nodes_from(range(n))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u == v or ng.has_edge(u, v):
            continue
        ng.add_edge(u, v)
        if nx.check_planarity(ng)[0]:
            edges.append((min(u, v), max(u, v)))
        else:
            ng.remove_edge(u, v)
    return networkx_embedding(n, edges)


@ORACLE
@given(planar_graphs())
def test_triangulate_matches_oracle(g):
    ref = copy.deepcopy(g)
    _triangulate(g)
    oracle_triangulate(ref)
    assert state(g) == state(ref)
    assert all(len({g.dart_tail(d) for d in f}) <= 3 for f in g.trace_faces())


def networkx_rotations(graph: Graph):
    """Each vertex's neighbours in networkx's clockwise order, networkx run
    on the sorted vertex and edge lists; None if it finds graph non-planar."""
    ng = nx.Graph()
    ng.add_nodes_from(graph.vertices)
    ng.add_edges_from(graph.edge_list())
    ok, pe = nx.check_planarity(ng)
    return {v: list(pe.neighbors_cw_order(v)) for v in graph.vertices} if ok else None


def rotations(g: EmbeddedGraph) -> dict:
    return {v: [g.edge_ends[eid][1 - side] for eid, side in rot]
            for v, rot in g.rotation.items()}


def assert_networkx_defaults_empty():
    """networkx's ConflictPair() shares its default intervals between calls;
    a run that filled one would change every later networkx answer, so the
    oracle's answers are networkx's own only while both stay empty."""
    assert all(i.low is None and i.high is None
               for i in ConflictPair.__init__.__defaults__)


@pytest.mark.parametrize("n", [6, 12, 20, 24, 48])
def test_planar_embedding_matches_networkx_on_grounded_hosts(n):
    """The ltw host C^phi - E_C and the grounded quotient C^phi_0 of each
    gen_grounded(n, s) get networkx's rotations."""
    for s in range(4):
        p = Pipeline(gen_grounded(n, s))
        for graph in (p.model.host, grounded_quotient(p.cp, p.scene)[0]):
            g = planar_embedding(graph)
            assert rotations(g) == networkx_rotations(graph), (n, s)
            assert genus(g) == 0
    assert_networkx_defaults_empty()


@ORACLE
@given(planar_graphs())
def test_planar_embedding_matches_networkx(g):
    graph = g.simple_graph()
    assert rotations(planar_embedding(graph)) == networkx_rotations(graph)
    assert_networkx_defaults_empty()


def test_planar_embedding_rejects_a_subdivided_k33():
    """K3,3 with one edge subdivided, numbered so that the conflict shows
    while the return edges of earlier siblings merge, where K3,3's shows
    while those of the edge itself do."""
    edges = [(0, 1), (0, 6), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
             (3, 6)]
    graph = Graph(range(7), edges)
    assert networkx_rotations(graph) is None
    with pytest.raises(SceneError, match="^graph is not planar$"):
        planar_embedding(graph)
    assert_networkx_defaults_empty()


def test_planar_embedding_rejects_k5_and_k33():
    k5 = Graph(range(5), [(u, v) for u in range(5) for v in range(u + 1, 5)])
    k33 = Graph(range(6), [(u, v) for u in range(3) for v in range(3, 6)])
    # K5 has 10 > 3 * 5 - 6 edges; K3,3 passes that count and fails on a
    # conflict pair of the testing phase
    for graph in (k5, k33):
        assert networkx_rotations(graph) is None
        with pytest.raises(SceneError, match="^graph is not planar$"):
            planar_embedding(graph)
