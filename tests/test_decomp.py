import inspect
import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from reference_json import layering_to_json, td_to_json
from strandkit import decomp
from strandkit.check import grounded_distance_check, verify_layering, verify_td
from strandkit.colouring import OrderedColouring
from strandkit.decomp import (_BOUNDS, MAX_BOUND_BITS, Layering, Pipeline,
                              TreeDecomposition, _triangulate, bfs_depth, bounds,
                              exact_treewidth, exact_treewidth_decomposition, grounded_quotient,
                              ltw_lift, merge_layers, minor_lift, radius_decomposition,
                              shallow_centers)
from strandkit.embedding import EmbeddedGraph, euler_genus, planar_embedding
from strandkit.errors import InvariantError, SceneError
from strandkit.families import gen_grounded
from strandkit.formats import td_to_pace
from strandkit.graph import Graph, bfs_distances, bfs_tree, connected_components


def eccentricity(g: Graph, v) -> int:
    dist = bfs_distances(g, [v])
    if len(dist) != len(g):
        raise ValueError(f"graph not connected from {v!r}")
    return max(dist.values(), default=0)


def graph_radius(g: Graph) -> int:
    return min(eccentricity(g, v) for v in g.vertices)


def grid_graph(rows, cols):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    return Graph(cells, [((i, j), (i + di, j + dj)) for i, j in cells
                         for di, dj in ((1, 0), (0, 1))
                         if i + di < rows and j + dj < cols])


def wheel_graph(n):
    hub = n
    return Graph(range(n + 1), [e for i in range(n) for e in ((i, (i + 1) % n), (i, hub))])


def complete_graph(n):
    return Graph(vertices=range(n),
                 edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


# ----------------------------------------------------------- exact treewidth

def test_exact_treewidth_known_values():
    assert exact_treewidth(Graph(vertices=[0])) == 0
    assert exact_treewidth(Graph(vertices=range(4),
                                 edges=[(0, 1), (1, 2), (2, 3)])) == 1
    cycle = Graph(vertices=range(6), edges=[(i, (i + 1) % 6) for i in range(6)])
    assert exact_treewidth(cycle) == 2
    assert exact_treewidth(complete_graph(5)) == 4
    assert exact_treewidth(grid_graph(3, 3)) == 3
    assert exact_treewidth(grid_graph(4, 4)) == 4


def test_exact_decomposition_is_valid():
    for g in (grid_graph(3, 4), wheel_graph(6), complete_graph(4)):
        width, td = exact_treewidth_decomposition(g)
        assert td.width == width
        assert clause(verify_td, td, g) is None


def test_exact_treewidth_disconnected():
    g = Graph(vertices=range(6), edges=[(0, 1), (1, 2), (0, 2), (3, 4)])
    width, td = exact_treewidth_decomposition(g)
    assert width == 2
    assert clause(verify_td, td, g) is None


def test_exact_treewidth_of_the_empty_graph():
    """Width -1, witnessed by the empty decomposition, whose own width it is."""
    width, td = exact_treewidth_decomposition(Graph())
    assert (width, td) == (-1, TreeDecomposition([], [], {}))
    assert width == td.width
    assert clause(verify_td, td, Graph()) is None


def test_exact_treewidth_cutoff():
    big = Graph(vertices=range(17), edges=[(i, i + 1) for i in range(16)])
    with pytest.raises(SceneError, match="limited to 16 vertices, got 17"):
        exact_treewidth(big)


def elimination_game_width(g: Graph) -> int:
    """Treewidth by brute force: the least, over every elimination order, of
    the largest neighbourhood met when the elimination game removes a
    vertex and joins its remaining neighbours into a clique."""
    best = max(len(g) - 1, 0)
    for order in itertools.permutations(g.vertices):
        adj = {v: set(g.adj[v]) for v in g.vertices}
        width = 0
        for v in order:
            nbrs = adj.pop(v)
            width = max(width, len(nbrs))
            if width >= best:
                break
            for u in nbrs:
                adj[u] |= nbrs - {u}
                adj[u].discard(v)
        best = min(best, width)
    return best


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vertices=range(n), edges=[e for e, k in zip(pairs, keep) if k])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=small_graphs())
def test_exact_treewidth_matches_the_elimination_game(g):
    assert exact_treewidth(g) == elimination_game_width(g)


@st.composite
def component_unions(draw):
    """Disjoint unions of 1-4 connected graphs on 8 vertices in all, each a
    path with some chords."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    cuts = [0, *sorted(draw(st.permutations(range(1, n)))[:k - 1]), n]
    edges = []
    for lo, hi in zip(cuts, cuts[1:]):
        chords = list(itertools.combinations(range(lo, hi), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(chords), max_size=len(chords)))
        edges += [(u, v) for (u, v), kept in zip(chords, keep) if kept or v == u + 1]
    return k, Graph(vertices=range(n), edges=edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=component_unions())
def test_exact_treewidth_per_component_matches_the_elimination_game(case):
    """Each component is searched alone; the witness is one decomposition per
    component, joined by one tree edge per extra component."""
    k, g = case
    comps = connected_components(g)
    assert len(comps) == k
    width, td = exact_treewidth_decomposition(g)
    assert width == elimination_game_width(g)
    assert td.width == width and clause(verify_td, td, g) is None
    assert len(td.nodes) == len(g)
    home = {v: i for i, comp in enumerate(comps) for v in comp}
    bag_home = {n: {home[v] for v in td.bags[n]} for n in td.nodes}
    assert all(len(homes) == 1 for homes in bag_home.values())
    assert sum(bag_home[a] != bag_home[b] for a, b in td.edges) == k - 1


def test_exact_treewidth_closed_forms():
    for a, b in [(1, 1), (1, 5), (2, 2), (2, 6), (3, 3), (3, 5), (4, 4), (4, 7)]:
        kab = Graph(vertices=range(a + b),
                    edges=[(i, a + j) for i in range(a) for j in range(b)])
        assert exact_treewidth(kab) == min(a, b), (a, b)
    for a, b in [(1, 2), (1, 9), (2, 2), (2, 8), (3, 3), (3, 5), (4, 4)]:
        assert exact_treewidth(grid_graph(a, b)) == min(a, b), (a, b)
    petersen = Graph(edges=[(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    assert exact_treewidth(petersen) == 4
    parts = [complete_graph(4), grid_graph(3, 3), Graph(edges=[(0, 1), (1, 2)])]
    union = Graph(edges=[((k, u), (k, v)) for k, part in enumerate(parts)
                         for u, v in part.edge_list()])
    assert exact_treewidth(union) == max(exact_treewidth(p) for p in parts) == 3
    for n in (1, 5, 16):
        assert exact_treewidth(Graph(vertices=range(n))) == 0


def degeneracy(g: Graph) -> int:
    adj = {v: set(g.adj[v]) for v in g.vertices}
    best = 0
    while adj:
        v = min(adj, key=lambda u: len(adj[u]))
        best = max(best, len(adj[v]))
        for u in adj.pop(v):
            adj[u].discard(v)
    return best


def test_exact_treewidth_between_degeneracy_and_heuristics():
    """On random graphs of up to 16 vertices, some disconnected, the width
    lies between the degeneracy and networkx's two heuristic bounds, and the
    witness has one bag per vertex."""
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 16)
        p = rng.uniform(0.1, 0.7)
        g = Graph(vertices=range(n), edges=[e for e in itertools.combinations(range(n), 2)
                                            if rng.random() < p])
        width, td = exact_treewidth_decomposition(g)
        h = nx.Graph(g.edge_list())
        h.add_nodes_from(g.vertices)
        upper = min(nx.approximation.treewidth_min_fill_in(h)[0],
                    nx.approximation.treewidth_min_degree(h)[0])
        assert degeneracy(g) <= width <= upper
        assert len(td.nodes) == len(td.bags) == n
        assert td.width == width and clause(verify_td, td, g) is None


# ------------------------------------------------------------ verifiers

def clause(check, record, G):
    """The clause that check names when it refuses record as a structure of
    G, from its error "<name> invalid: <clause>", or None if it passes."""
    try:
        check(record, G, "it")
    except InvariantError as exc:
        message = str(exc)
        assert message.startswith("it invalid: "), message
        return message.removeprefix("it invalid: ")
    return None


def test_verify_td_detects_violations():
    g = Graph(vertices="abc", edges=[("a", "b"), ("b", "c")])
    good = TreeDecomposition([0, 1], [(0, 1)],
                             {0: frozenset("ab"), 1: frozenset("bc")})
    assert clause(verify_td, good, g) is None

    uncovered = TreeDecomposition([0], [], {0: frozenset("ab")})
    assert clause(verify_td, uncovered, g) is not None

    split = TreeDecomposition(
        [0, 1, 2], [(0, 1), (1, 2)],
        {0: frozenset("ab"), 1: frozenset("c"), 2: frozenset(("a", "b", "c"))})
    # subtree of 'a'/'b' is disconnected
    assert clause(verify_td, split, g) is not None

    cyclic = TreeDecomposition([0, 1], [(0, 1), (1, 0)],
                               {0: frozenset("ab"), 1: frozenset("bc")})
    assert clause(verify_td, cyclic, g) is not None


PATH_ABC = Graph(vertices="abc", edges=[("a", "b"), ("b", "c")])

# (tree decomposition of PATH_ABC as nodes, edges, bags) -> verify_td's reason
TD_CLAUSES = [
    (([0, 1], [(0, 1)], {0: "ab"}), "bags/nodes mismatch"),
    (([0, 1], [], {0: "ab", 1: "bc"}), "tree not connected"),
    (([0, 1], [(0, 1), (1, 0)], {0: "ab", 1: "bc"}), "tree has a cycle"),
    (([0, 1], [(0, 1)], {0: "ab", 1: "bz"}), "bag vertex 'z' not in G"),
    (([0], [], {0: "ab"}), "vertex 'c' uncovered"),
    (([0, 1, 2], [(0, 1), (1, 2)], {0: "ab", 1: "c", 2: "abc"}),
     "bags of 'a' not connected in tree"),
    (([0, 1], [(0, 1)], {0: "ac", 1: "b"}), "edge 'a''b' uncovered"),
    (([0, 1], [(0, 1)], {0: "ab", 1: "bc"}), None),
]


@pytest.mark.parametrize("parts, reason", TD_CLAUSES)
def test_verify_td_names_each_violated_clause(parts, reason):
    nodes, edges, bags = parts
    td = TreeDecomposition(nodes, edges, {n: frozenset(b) for n, b in bags.items()})
    assert clause(verify_td, td, PATH_ABC) == reason


def scan_verify_td(td, G):
    """Reference: verify_td with its old searches: a DFS over the tree for
    each vertex's bags, and each edge tested against every bag."""
    verts = G.vertices
    if sorted(td.bags) != sorted(td.nodes):
        return {"valid": False, "width": td.width, "reason": "bags/nodes mismatch"}
    tree = Graph(vertices=td.nodes, edges=td.edges)
    if len(td.nodes) != len(tree) or (td.nodes and len(connected_components(tree)) != 1):
        return {"valid": False, "width": td.width, "reason": "tree not connected"}
    if len(td.edges) != max(len(td.nodes) - 1, 0):
        return {"valid": False, "width": td.width, "reason": "tree has a cycle"}
    where: dict = {v: [] for v in verts}
    for n in td.nodes:
        for v in td.bags[n]:
            if v not in where:
                return {"valid": False, "width": td.width,
                        "reason": f"bag vertex {v!r} not in G"}
            where[v].append(n)
    for v in verts:
        if not where[v]:
            return {"valid": False, "width": td.width, "reason": f"vertex {v!r} uncovered"}
        sub = set(where[v])
        start = next(iter(sub))
        seen = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for m in tree.adj[n]:
                if m in sub and m not in seen:
                    seen.add(m)
                    stack.append(m)
        if seen != sub:
            return {"valid": False, "width": td.width,
                    "reason": f"bags of {v!r} not connected in tree"}
    bagsets = list(td.bags.values())
    for u, v in G.edge_list():
        if not any(u in b and v in b for b in bagsets):
            return {"valid": False, "width": td.width,
                    "reason": f"edge {u!r}{v!r} uncovered"}
    return {"valid": True, "width": td.width, "reason": None}


def test_verify_td_edge_coverage_matches_bag_scan():
    """Delete each vertex from each bag of a pipeline decomposition in turn:
    every verdict, reason text included, is the bag scan's."""
    p = Pipeline(gen_grounded(6, 1))
    G = p.graph
    reasons = set()
    for td in (p.ltw["td"], p.outerstring["td"]):
        assert clause(verify_td, td, G) is None
        assert scan_verify_td(td, G) == {"valid": True, "width": td.width, "reason": None}
        for n in td.nodes:
            for v in sorted(td.bags[n]):
                bags = {**td.bags, n: td.bags[n] - {v}}
                broken = TreeDecomposition(td.nodes, td.edges, bags)
                got = clause(verify_td, broken, G)
                assert got == scan_verify_td(broken, G)["reason"]
                reasons.add(got.split()[0] if got else None)
    assert reasons == {"edge", "vertex", "bags", None}


def test_verify_td_subtree_count_matches_tree_search():
    """Pipeline decompositions at 20 curves, intact and corrupted: a vertex
    dropped from a middle bag, a tree edge missing, and a vertex added to a
    bag away from its subtree.  Every verdict and reason is the oracle's."""
    reasons = set()
    for seed in range(2):
        p = Pipeline(gen_grounded(20, seed))
        G = p.graph
        for td in (p.ltw["td"], p.outerstring["td"]):
            cases = [td, TreeDecomposition(td.nodes, td.edges[1:], td.bags)]
            tree = Graph(vertices=td.nodes, edges=td.edges)
            middle = [n for n in td.nodes if len(tree.adj[n]) > 1]
            for n in middle[:6]:
                for v in sorted(td.bags[n])[:2]:
                    cases.append(TreeDecomposition(
                        td.nodes, td.edges, {**td.bags, n: td.bags[n] - {v}}))
            leaves = [n for n in td.nodes if len(tree.adj[n]) == 1]
            for v in G.vertices[:6]:
                far = [n for n in leaves if v not in td.bags[n]]
                if far:
                    cases.append(TreeDecomposition(
                        td.nodes, td.edges, {**td.bags, far[-1]: td.bags[far[-1]] | {v}}))
            for case in cases:
                got = clause(verify_td, case, G)
                assert got == scan_verify_td(case, G)["reason"]
                reasons.add(got.split()[0] if got else None)
    assert reasons == {None, "tree", "bags"}


def distance_layering(G: Graph, roots) -> Layering:
    """Reference: the layers of G by BFS distance from the roots."""
    dist = bfs_distances(G, roots)
    layers: list = [[] for _ in range(max(dist.values()) + 1)]
    for v in G.vertices:
        layers[dist[v]].append(v)
    return Layering(layers)


def test_bfs_depth_is_the_bfs_distance():
    for g, root in [(grid_graph(3, 3), (0, 0)), (grid_graph(3, 3), (1, 1)),
                    (wheel_graph(8), 0), (wheel_graph(8), 8),
                    (complete_graph(5), 3), (Graph(vertices=[7]), 7)]:
        assert bfs_depth(bfs_tree(g, root)) == bfs_distances(g, [root])


@pytest.mark.parametrize("layers, reason", [
    ([["a", "c"], ["b"]], None),
    ([["a"], ["b"], ["c"]], None),
    ([["a"], ["c"], ["b"]], "edge 'a''b' spans layers 0 and 2"),
    ([["b"], ["c"], ["a"]], "edge 'a''b' spans layers 2 and 0"),
    ([["a"], ["b"]], "layers are not a partition of V(G)"),
])
def test_verify_layering_names_each_violated_clause(layers, reason):
    assert clause(verify_layering, Layering(layers), PATH_ABC) == reason


def test_verify_layering_rejects_a_repeated_vertex():
    g = Graph(vertices="ab", edges=[("a", "b")])
    assert clause(verify_layering, Layering([["a"], ["b"], ["a"]]), g) == \
        "layers are not a partition of V(G)"
    assert clause(verify_layering, Layering([["a", "a"], ["b"]]), g) is not None
    assert clause(verify_layering, Layering([["a"], ["b"]]), g) is None


# ----------------------------------------------------- radius decomposition

def root_path_bags(G: Graph, parent: dict) -> dict:
    """Reference: the bags of radius_decomposition, each the union of its
    corners' full root paths, on the faces rebuilt by planar_embedding,
    _triangulate and trace_faces."""
    def root_path(v):
        path = []
        while v is not None:
            path.append(v)
            v = parent[v]
        return path

    emb = planar_embedding(G)
    _triangulate(emb)
    return {fi + 1: frozenset().union(*(root_path(emb.edge_ends[eid][side])
                                         for eid, side in face))
            for fi, face in enumerate(emb.trace_faces())}


def test_radius_decomposition_bags_are_root_path_unions():
    hosts = [(grid_graph(4, 5), (0, 0)), (grid_graph(4, 5), (2, 2)),
             (wheel_graph(8), 0), (wheel_graph(8), 8)]
    for n in (6, 12, 24, 48):
        for s in range(3):
            p = Pipeline(gen_grounded(n, s))
            host = p.model.host
            hosts.append((host, host.vertices[0]))
            quotient, w, _ = grounded_quotient(p.cp, p.scene)
            hosts.append((quotient, w))
    checked = 0
    for g, root in hosts:
        tree = bfs_tree(g, root)
        if len(tree) == len(g) > 1:
            assert radius_decomposition(g, tree).bags == root_path_bags(g, tree)
            checked += 1
    # all but the host of gen_grounded(6, 0), which is disconnected
    assert checked == len(hosts) - 1


def test_radius_decomposition_wheel():
    g = wheel_graph(8)
    td = radius_decomposition(g, bfs_tree(g, 8))
    assert clause(verify_td, td, g) is None
    r = eccentricity(g, 8)
    assert td.width <= 3 * r + 1
    assert td.width >= exact_treewidth(g)


def test_radius_decomposition_grid():
    g = grid_graph(4, 4)
    root = (0, 0)
    td = radius_decomposition(g, bfs_tree(g, root))
    assert clause(verify_td, td, g) is None
    assert td.width <= 3 * eccentricity(g, root) + 1
    assert td.width >= exact_treewidth(g)


def test_radius_decomposition_tree_and_cycle():
    tree = Graph(vertices=range(7),
                 edges=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    td = radius_decomposition(tree, bfs_tree(tree, 0))
    assert clause(verify_td, td, tree) is None
    cycle = Graph(vertices=range(5), edges=[(i, (i + 1) % 5) for i in range(5)])
    td = radius_decomposition(cycle, bfs_tree(cycle, 0))
    assert clause(verify_td, td, cycle) is None
    assert td.width <= 3 * 2 + 1


def test_radius_decomposition_rejects_nonplanar():
    with pytest.raises(SceneError):
        radius_decomposition(complete_graph(5), bfs_tree(complete_graph(5), 0))


def test_radius_decomposition_rejects_a_non_plane_embedding(monkeypatch):
    """The face trace after triangulating certifies V - E + F = 2: a
    toroidal rotation system of K4 is refused."""
    def toroidal_k4(graph):
        g = EmbeddedGraph()
        for eid, (u, v) in zip("abcdef", [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]):
            g.add_edge(eid, u, v)
        g.rotation[3] = [("e", 1), ("d", 1), ("f", 1)]
        assert euler_genus(g, g.simple_graph()) == 2
        return g

    monkeypatch.setattr(decomp, "planar_embedding", toroidal_k4)
    k4 = complete_graph(4)
    with pytest.raises(InvariantError, match="^embedding is not plane$"):
        radius_decomposition(k4, bfs_tree(k4, 0))


def test_radius_decomposition_rejects_disconnected():
    two_paths = Graph(vertices=range(4), edges=[(0, 1), (2, 3)])
    with pytest.raises(SceneError, match="^radius decomposition needs a connected graph$"):
        radius_decomposition(two_paths, bfs_tree(two_paths, 0))


def test_radius_decomposition_rejects_a_tree_that_is_not_bfs():
    """A spanning tree that is not a BFS tree of G would understate or
    overstate r; each is refused."""
    cycle = Graph(vertices=range(6), edges=[(i, (i + 1) % 6) for i in range(6)])
    path = Graph(vertices=range(3), edges=[(0, 1), (1, 2)])
    bad = [
        (cycle, {i: (i - 1 if i else None) for i in range(6)}),  # DFS path
        (cycle, {0: None, 1: 0, 5: 0, 2: 1, 3: 2, 4: 3}),   # 4 the long way round
        (path, {0: None, 2: 1, 1: 0}),                     # child before parent
        (path, {0: None, 1: 0, 2: 0}),                     # 02 is not an edge
        (path, {0: None, 1: 0, 2: None}),                  # two roots
        (path, {0: None, 1: 0, 9: 1}),                     # 9 is not a vertex
    ]
    for g, parent in bad:
        assert len(parent) == len(g)
        with pytest.raises(InvariantError,
                           match="^radius decomposition needs a BFS tree of the graph$"):
            radius_decomposition(g, parent)
    for g in (cycle, path):
        for root in g.vertices:
            assert clause(verify_td, radius_decomposition(g, bfs_tree(g, root)), g) is None


def test_radius_decomposition_r_is_root_eccentricity(monkeypatch):
    seen = []
    real = _BOUNDS["planar-radius-tw"]
    monkeypatch.setitem(_BOUNDS, "planar-radius-tw",
                        lambda r: seen.append(r) or real(r))
    path = Graph(vertices=range(5), edges=[(i, i + 1) for i in range(4)])
    cases = [(wheel_graph(8), 8), (wheel_graph(8), 0), (grid_graph(4, 4), (0, 0)),
             (grid_graph(4, 4), (1, 2)), (path, 0), (path, 2)]
    for g, root in cases:
        radius_decomposition(g, bfs_tree(g, root))
    assert seen == [eccentricity(g, root) for g, root in cases]


def test_radius_decomposition_traces_faces_at_most_three_times(monkeypatch):
    """The chords do not re-trace the host: one trace to triangulate and one
    for the plane check and the bags, however many chords there are."""
    traces = []
    chords = []
    for name in [n for n in vars(EmbeddedGraph) if n.startswith("trace_faces")]:
        real = getattr(EmbeddedGraph, name)
        monkeypatch.setattr(EmbeddedGraph, name, lambda self, real=real: (
            traces.append(1) or real(self)))
    real_chord = EmbeddedGraph.add_chord
    monkeypatch.setattr(EmbeddedGraph, "add_chord", lambda self, *a: (
        chords.append(1) or real_chord(self, *a)))
    for s in range(3):
        host = Pipeline(gen_grounded(20, s)).model.host
        traces.clear()
        chords.clear()
        radius_decomposition(host, bfs_tree(host, host.vertices[0]))
        assert len(chords) > 3
        assert len(traces) == 2


# --------------------------------------------------------------- lifts

def product_lift(td: TreeDecomposition, n: int) -> TreeDecomposition:
    """Reference: a td of H lifted to H x K_n by multiplying every bag by
    the n copies."""
    bags = {node: frozenset((v, i) for v in td.bags[node] for i in range(1, n + 1))
            for node in td.nodes}
    return TreeDecomposition(list(td.nodes), list(td.edges), bags)


def product_minor_lift(td: TreeDecomposition, model) -> TreeDecomposition:
    """Reference: a product-level td lifted bag by bag through the branch
    sets' (host vertex, copy) members."""
    membership: dict = {}
    for v in sorted(model.mu):
        for pv in model.mu[v]:
            membership.setdefault(pv, set()).add(v)
    bags = {}
    for node in td.nodes:
        bag = set()
        for pv in td.bags[node]:
            bag |= membership.get(pv, set())
        bags[node] = frozenset(bag)
    return TreeDecomposition(list(td.nodes), list(td.edges), bags)


def product_ltw_lift(host_td, host_layering, model, r) -> dict:
    """Reference: the layered-width lift through the product: td and
    layering multiplied by the copies, blocks read off the product layer of
    each branch set's center."""
    prod_td = product_lift(host_td, model.copies)
    prod_layering = Layering([[(v, i) for v in layer
                               for i in range(1, model.copies + 1)]
                              for layer in host_layering.layers])
    centers = shallow_centers(model, r)
    td = product_minor_lift(prod_td, model)
    prod_idx = prod_layering.index()
    block = {v: prod_idx[centers[v]] // (2 * r + 1) for v in centers}
    layers: list = [[] for _ in range(max(block.values(), default=0) + 1)]
    for v in sorted(block):
        layers[block[v]].append(v)
    return {"td": td, "layering": Layering(layers)}


def test_product_lift():
    g = Graph(vertices="ab", edges=[("a", "b")])
    td = TreeDecomposition([0], [], {0: frozenset("ab")})
    lifted = product_lift(td, 3)
    assert lifted.width == 2 * 3 - 1
    prod_bags = lifted.bags[0]
    assert ("a", 1) in prod_bags and ("b", 3) in prod_bags


def test_minor_lift_width_bound():
    from strandkit.product_model import MinorModel
    host = Graph(vertices="xy", edges=[("x", "y")])
    model = MinorModel({"a": frozenset({("x", 1)}),
                        "b": frozenset({("y", 1), ("y", 2)})}, host, 2)
    host_td = TreeDecomposition([0], [], {0: frozenset("xy")})
    td = minor_lift(host_td, model)
    assert td == product_minor_lift(product_lift(host_td, 2), model)
    G = Graph(vertices="ab", edges=[("a", "b")])
    assert clause(verify_td, td, G) is None


def test_host_lifts_match_product_reference(plus_sign, bigon_scene):
    scenes = [("plus_sign", plus_sign), ("bigon_scene", bigon_scene)] + \
        [(f"gen_grounded(12, {s})", gen_grounded(12, s)) for s in range(4)]
    for name, scene in scenes:
        p = Pipeline(scene)
        model, host = p.model, p.model.host
        root = host.vertices[0]
        host_td = radius_decomposition(host, bfs_tree(host, root))
        host_layering = distance_layering(host, [root])
        # minor_lift reads only projections; the reference reads copies
        assert minor_lift(host_td, model) == product_minor_lift(
            product_lift(host_td, model.copies), model), name
        # the ltw pipeline emits the td.json and layering.json of the
        # reference lift, and certifies its layered width once
        rep = p.ltw
        ref = product_ltw_lift(host_td, host_layering, model, p.params.r)
        assert td_to_json(rep["td"]) == td_to_json(ref["td"]), name
        assert layering_to_json(rep["layering"]) == layering_to_json(ref["layering"]), name
        assert rep["layered_width"] == merge_layers(ref["td"], ref["layering"]), name
        assert rep["bound"] == 3 * (4 * p.params.r + 1) * model.copies, name
        # below the pipeline's r, and with one host vertex per layer, the
        # lifted layering has several blocks
        singletons = Layering([[h] for h in host.vertices])
        for r in range(min(p.params.r, len(host)) + 1):
            for layering in (host_layering, singletons):
                try:
                    ref = product_ltw_lift(host_td, layering, model, r)
                except InvariantError:
                    continue
                got = ltw_lift(host_td, layering.index(), model, r)
                assert td_to_json(got["td"]) == td_to_json(ref["td"]), (name, r)
                assert layering_to_json(got["layering"]) == layering_to_json(ref["layering"]), \
                    (name, r)


def test_outerstring_lift_matches_product_reference(outerstring_scene,
                                                    outerstring_colouring):
    for scene, colouring in [(outerstring_scene, outerstring_colouring)] + \
            [(gen_grounded(12, s), None) for s in range(4)]:
        p = Pipeline(scene, colouring)
        quotient, w, _ = grounded_quotient(p.cp, p.scene)
        td0 = radius_decomposition(quotient, bfs_tree(quotient, w))
        ref = product_minor_lift(product_lift(td0, p.params.d + 1), p.model)
        rep = p.outerstring
        assert td_to_json(rep["td"]) == td_to_json(ref)
        assert rep["quotient_radius"] == eccentricity(quotient, w)


def test_ltw_pipeline_checks_the_registry_bound(monkeypatch, plus_sign,
                                                plus_colouring):
    import strandkit.decomp as decomp
    real = decomp.bounds
    monkeypatch.setattr(decomp, "bounds", lambda theorem, params: (
        0 if theorem == "ltw-shallow" else real(theorem, params)))
    with pytest.raises(InvariantError, match=r"lifted layered width 2 > 3\(4r\+1\)"):
        Pipeline(plus_sign, plus_colouring).ltw


def test_radius_decomposition_checks_the_registry_bound(monkeypatch):
    monkeypatch.setitem(_BOUNDS, "planar-radius-tw", lambda r: 0)
    with pytest.raises(InvariantError, match=r"radius decomposition width 3 > 3r\+1 = 0"):
        radius_decomposition(wheel_graph(8), bfs_tree(wheel_graph(8), 8))


def broken(record, G, name):
    raise InvariantError(f"{name} invalid: broken on purpose")


def test_oracle_refuses_a_broken_witness(monkeypatch):
    monkeypatch.setattr(decomp, "verify_td", broken)
    with pytest.raises(InvariantError, match=r"^oracle witness invalid: broken on purpose$"):
        exact_treewidth_decomposition(PATH_ABC)


def test_oracle_refuses_a_witness_of_another_width(monkeypatch):
    """A valid witness whose width is not the treewidth found, here forced,
    is refused after verify_td passes it."""
    class Wider(TreeDecomposition):
        width = property(lambda self: TreeDecomposition.width.fget(self) + 1)

    monkeypatch.setattr(decomp, "TreeDecomposition", Wider)
    with pytest.raises(InvariantError, match=r"^oracle witness width 2 != treewidth 1$"):
        exact_treewidth_decomposition(PATH_ABC)


def test_radius_decomposition_refuses_its_own_invalid_td(monkeypatch):
    monkeypatch.setattr(decomp, "verify_td", broken)
    with pytest.raises(InvariantError,
                       match=r"^radius decomposition invalid: broken on purpose$"):
        radius_decomposition(wheel_graph(8), bfs_tree(wheel_graph(8), 8))


@pytest.mark.parametrize("stage, checker, error", [
    ("ltw", "verify_td", "lifted td invalid: broken on purpose"),
    ("ltw", "verify_layering", "lifted layering invalid: broken on purpose"),
    ("outerstring", "verify_td", "outerstring td invalid: broken on purpose"),
    ("outerstring", "bounds", "outerstring width 2 > bound -1"),
])
def test_certificates_refuse_a_failed_recheck(monkeypatch, stage, checker, error):
    """Each certificate re-checks its lifted output against the intersection
    graph and its bound: a failing re-check, here forced, is an
    InvariantError naming it."""
    p = Pipeline(corpus.outerstring_scene(), corpus.outerstring_colouring())
    real = getattr(decomp, checker)

    def fail(*args):
        if checker == "bounds":
            return -1 if args[0] == "planar-outerstring" else real(*args)
        return broken(*args) if args[1] is p.graph else real(*args)
    monkeypatch.setattr(decomp, checker, fail)
    with pytest.raises(InvariantError, match=f"^{error}$"):
        getattr(p, stage)


def test_merge_layers():
    g = grid_graph(2, 4)
    width, td = exact_treewidth_decomposition(g)
    lay = distance_layering(g, [(0, 0)])
    lw = merge_layers(td, lay)
    assert lw >= 1
    # s layers of at most lw vertices each bound every bag
    assert len(lay.layers) * lw - 1 >= width


# ------------------------------------------------------- pipelines

def test_grounded_quotient(outerstring_scene, outerstring_colouring):
    cp = Pipeline(outerstring_scene, outerstring_colouring).cp
    q, w, grounded = grounded_quotient(cp, outerstring_scene)
    assert w == "w:D"
    assert grounded <= cp.endpoints and len(grounded) == len(outerstring_scene.curves)
    assert eccentricity(q, "w:D") == grounded_distance_check(cp, grounded)
    assert eccentricity(q, "w:D") <= outerstring_colouring.t - 1


@pytest.mark.parametrize("n", [6, 24, 48])
def test_quotient_radius_is_the_grounded_distance(n):
    """Every endpoint has degree 1 in C^phi, so the distance from the
    grounded endpoints is the disk center's eccentricity in C^phi_0."""
    for s in range(4):
        p = Pipeline(gen_grounded(n, s))
        quotient, w, _ = grounded_quotient(p.cp, p.scene)
        assert p.outerstring["quotient_radius"] == eccentricity(quotient, w), (n, s)


def test_outerstring_decomposition(outerstring_scene, outerstring_colouring):
    p = Pipeline(outerstring_scene, outerstring_colouring)
    rep = p.outerstring
    assert sorted(rep) == ["bound", "quotient_radius", "td"]   # no copies of p
    g = Graph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    assert clause(verify_td, rep["td"], g) is None
    assert p.params.t == 2
    assert rep["td"].width <= rep["bound"] == bounds(
        "planar-outerstring", {"t": p.params.t, "d": p.params.d})
    assert rep["td"].width >= exact_treewidth(g) == 1


def test_outerstring_needs_one_disk(plus_sign, plus_colouring):
    with pytest.raises(SceneError):
        Pipeline(plus_sign, plus_colouring).outerstring


def test_ltw_pipeline(plus_sign, plus_colouring):
    p = Pipeline(plus_sign, plus_colouring)
    rep = p.ltw
    assert rep["layered_width"] <= rep["bound"] == bounds(
        "ltw-shallow", {"r": p.params.r, "d": p.params.d, "g": p.genus})
    assert p.genus == 0
    assert rep["td"].width >= 0


def test_ltw_pipeline_multicross(bigon_scene):
    from strandkit.arrangement import compute_arrangement, intersection_graph
    from strandkit.colouring import degeneracy_order, greedy_colouring
    events = compute_arrangement(bigon_scene)
    g = intersection_graph(bigon_scene, events)
    col = greedy_colouring(g, degeneracy_order(g)[::-1])
    rep = Pipeline(bigon_scene, col).ltw
    assert rep["layered_width"] <= rep["bound"]


# ----------------------------------------------------------- bounds + PACE

def test_bounds_registry():
    assert bounds("planar-outerstring", {"t": 3, "d": 2}) == 23
    assert bounds("localised", {"delta": 2}) == 5
    assert bounds("ss-crossing", {"m": 3}) == 72
    assert bounds("weak-diameter", {"t": 2, "k": 1}) == 3
    assert bounds("planar-radius-tw", {"r": 4}) == 13
    assert bounds("product-tw", {"tw": 2, "n": 3}) == 8
    assert bounds("tw-from-ltw", {"r": 1, "c": 1, "ltw": 4}) == 11


def test_bounds_errors():
    with pytest.raises(SceneError):
        bounds("no-such-theorem", {})
    with pytest.raises(SceneError, match="theorem 'planar-outerstring' missing parameter 'd'"):
        bounds("planar-outerstring", {"t": 3})
    with pytest.raises(SceneError, match="theorem 'genus-outerstring' missing parameter 't'"):
        bounds("genus-outerstring", {"d": 1})


def test_bounds_refuse_unread_parameters():
    with pytest.raises(SceneError, match="theorem 'planar-outerstring' takes d, t, got g$"):
        bounds("planar-outerstring", {"t": 3, "d": 2, "g": 5})
    with pytest.raises(SceneError, match="theorem 'localised' takes delta, got D, t$"):
        bounds("localised", {"delta": 2, "t": 1, "D": 4})


# the parameter each bound reads that is set negative
NEGATED = {
    "planar-outerstring": "d", "genus-outerstring": "g",
    "outerstring-maxdegree": "c", "localised": "delta", "ss-crossing": "m",
    "string-rtw": "delta", "ps-maxdegree": "delta", "rtw-main": "r",
    "ltw-shallow": "d", "tw-from-ltw": "ltw", "product-tw": "tw",
    "planar-radius-tw": "r", "weak-diameter": "k",
}


@pytest.mark.parametrize("theorem", sorted(_BOUNDS))
def test_bounds_reject_negative_parameters(theorem):
    params = dict.fromkeys(inspect.signature(_BOUNDS[theorem]).parameters, 2)
    assert isinstance(bounds(theorem, params), int)
    params[NEGATED[theorem]] = -1
    with pytest.raises(SceneError):
        bounds(theorem, params)


def test_rtw_main_tower_refused_fast():
    start = time.perf_counter()
    with pytest.raises(SceneError, match="more than 8192 bits"):
        bounds("rtw-main", {"r": 10**9, "c": 1, "g": 0})
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("theorem,params", [
    ("localised", {"delta": 10**9}),
    ("ss-crossing", {"m": 10**9}),
    ("string-rtw", {"delta": 10**9, "g": 0}),
    ("ps-maxdegree", {"delta": 10**9}),
    ("weak-diameter", {"t": 10**9, "k": 2}),
    # no power is too large here, the product is: refused after evaluation
    ("string-rtw", {"delta": 3000, "g": 0}),
    ("ltw-shallow", {"r": 2**9000, "d": 0, "g": 0}),
])
def test_bounds_size_cap(theorem, params):
    start = time.perf_counter()
    with pytest.raises(SceneError, match=f"more than {MAX_BOUND_BITS} bits"):
        bounds(theorem, params)
    assert time.perf_counter() - start < 1


def test_bounds_below_the_cap():
    assert bounds("ss-crossing", {"m": 8000}) == 2 ** 8000 * 8000 ** 2
    assert bounds("weak-diameter", {"t": 10**9, "k": 1}) == 3 * (10**9 - 1)
    assert bounds("weak-diameter", {"t": 10**9, "k": 0}) == 1
    assert bounds("weak-diameter", {"t": 0, "k": 3}) == 0


def test_td_to_pace():
    g = Graph(vertices="abc", edges=[("a", "b"), ("b", "c")])
    td = TreeDecomposition([0, 1], [(0, 1)],
                           {0: frozenset("ab"), 1: frozenset("bc")})
    text = td_to_pace(td, g)
    lines = text.splitlines()
    assert lines[0] == "s td 2 2 3"
    assert lines[1] == "b 1 1 2"
    assert lines[2] == "b 2 2 3"
    assert lines[3] == "1 2"
    assert td_to_pace(td, g) == text  # byte-stable
