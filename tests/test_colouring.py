import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.arrangement import compute_arrangement, intersection_graph
from strandkit.colouring import (OrderedColouring, degeneracy_order,
                                 greedy_colouring)
from strandkit.decomp import Pipeline, bounds
from strandkit.errors import SceneError
from strandkit.families import gen_grounded
from strandkit.graph import Graph


def verify_tdeg(G, colouring: OrderedColouring, d: int) -> dict:
    """Is the colouring (t, d)-degenerate on G?

    Every vertex must have at most d neighbours of strictly greater colour.
    """
    adj = G.adj
    phi = colouring.phi
    for v in sorted(adj):
        higher = sum(1 for u in adj[v] if phi[u] > phi[v])
        if higher > d:
            return {"valid": False, "counterexample": v, "higher_neighbours": higher}
    return {"valid": True, "counterexample": None}


def relabel(colouring: OrderedColouring, perm: dict) -> OrderedColouring:
    """Apply a colour permutation (old -> new); must be a bijection."""
    used = set(colouring.phi.values())
    if sorted(perm) != sorted(used) or len(set(perm.values())) != len(perm):
        raise SceneError("relabelling is not a bijection on the used colours")
    phi = {cid: perm[col] for cid, col in colouring.phi.items()}
    return OrderedColouring(phi, max(phi.values(), default=0))


def check_ordered(colouring: OrderedColouring, events) -> None:
    """No two crossing curves share a colour: the check the colour cut
    replaced, kept as its oracle."""
    for e in events:
        if colouring.phi[e.curve_a] == colouring.phi[e.curve_b]:
            raise SceneError(
                f"curves {e.curve_a!r} and {e.curve_b!r} cross but share "
                f"colour {colouring.phi[e.curve_a]}")


def min_scan_degeneracy_order(G) -> list:
    """Repeated minimum-degree removal by a scan over the remaining
    vertices, ties to the smallest id: the O(n^2) order the heap replaced,
    kept as its oracle."""
    adj = {v: set(ns) for v, ns in G.adj.items()}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        order.append(v)
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
    return order


def back_degrees(G, order) -> list:
    """The number of neighbours of each vertex later in the order."""
    pos = {v: i for i, v in enumerate(order)}
    return [sum(1 for u in G.adj[v] if pos[u] > pos[v]) for v in order]


def degeneracy(G) -> int:
    """Max back-degree along the degeneracy order."""
    return max(back_degrees(G, degeneracy_order(G)), default=0)


def path_graph(n):
    return Graph(vertices=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def test_greedy_is_proper():
    g = Graph(vertices="abcd", edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    col = greedy_colouring(g, list("abcd"))
    for u, v in g.edge_list():
        assert col.phi[u] != col.phi[v]
    assert col.t <= g.max_degree() + 1


def test_greedy_rejects_non_permutation():
    g = path_graph(3)
    with pytest.raises(SceneError):
        greedy_colouring(g, [0, 1])


def test_degeneracy_values():
    assert degeneracy(path_graph(5)) == 1
    k4 = Graph(vertices=range(4),
               edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert degeneracy(k4) == 3
    cycle = Graph(vertices=range(5), edges=[(i, (i + 1) % 5) for i in range(5)])
    assert degeneracy(cycle) == 2


def test_degeneracy_order_min_degree_first():
    g = Graph(vertices=range(4), edges=[(0, 1), (1, 2), (2, 3), (1, 3)])
    order = degeneracy_order(g)
    assert order[0] == 0


@pytest.mark.parametrize("n", [6, 20, 48])
def test_degeneracy_order_matches_min_scan_on_grounded_scenes(n):
    for s in range(10 if n < 48 else 3):
        p = Pipeline(gen_grounded(n, s))
        assert degeneracy_order(p.graph) == min_scan_degeneracy_order(p.graph), (n, s)


@st.composite
def small_graphs(draw):
    """Graphs on up to 12 vertices, with isolated vertices and many ties."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return Graph(vertices=range(n), edges=edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_graphs())
def test_degeneracy_order_matches_min_scan(g):
    assert degeneracy_order(g) == min_scan_degeneracy_order(g)


def test_degeneracy_order_on_a_100x100_grid():
    """10,000 vertices order in well under a second: the min-scan took
    quadratic time here.  A grid is 2-degenerate."""
    g = Graph(edges=[((i, j), (i + di, j + dj)) for i in range(100) for j in range(100)
                     for di, dj in ((0, 1), (1, 0)) if i + di < 100 and j + dj < 100])
    start = time.perf_counter()
    order = degeneracy_order(g)
    elapsed = time.perf_counter() - start
    assert sorted(order) == g.vertices
    assert order[0] == (0, 0)
    assert max(back_degrees(g, order)) == 2
    assert elapsed < 5


def test_check_ordered(plus_sign, plus_colouring):
    """The cut stage accepts and rejects what the oracle does."""
    events = compute_arrangement(plus_sign)
    check_ordered(plus_colouring, events)
    assert Pipeline(plus_sign, plus_colouring).cut == {"h": ([range(0, 1)], set()),
                                                       "v": ([], {"h"})}
    bad = OrderedColouring({"h": 2, "v": 2}, 2)
    with pytest.raises(SceneError, match="'h' and 'v' cross but share colour 2"):
        check_ordered(bad, events)
    with pytest.raises(SceneError, match="'h' and 'v' cross and share colour 2"):
        Pipeline(plus_sign, bad).cut


def test_plus_sign_params(plus_sign, plus_colouring):
    p = Pipeline(plus_sign, plus_colouring).params
    assert (p.t, p.d, p.k) == (2, 1, 1)
    assert p.r == bounds("weak-diameter", {"t": 2, "k": 1}) == 3


def test_multicross_params(abstract_multicross, abstract_colouring):
    p = Pipeline(abstract_multicross, abstract_colouring).params
    assert p.t == 5
    # m has 2 distinct smaller-colour crossers (c1, c2)
    assert p.k >= 2
    # largest fragment of m holds 2 distinct higher crossers (c4, c5)
    assert p.d == 2
    assert p.r == bounds("weak-diameter", {"t": p.t, "k": p.k})


def test_weak_diameter_bound_values():
    assert bounds("weak-diameter", {"t": 2, "k": 1}) == 3
    assert bounds("weak-diameter", {"t": 3, "k": 2}) == 15
    assert bounds("weak-diameter", {"t": 1, "k": 0}) == 0


def test_verify_tdeg():
    g = path_graph(4)
    col = OrderedColouring({0: 1, 1: 2, 2: 1, 3: 2}, 2)
    assert verify_tdeg(g, col, 2)["valid"]
    res = verify_tdeg(g, col, 0)
    assert not res["valid"] and res["counterexample"] is not None


def test_relabel():
    col = OrderedColouring({"a": 1, "b": 2}, 2)
    swapped = relabel(col, {1: 2, 2: 1})
    assert swapped.phi == {"a": 2, "b": 1}
    with pytest.raises(SceneError):
        relabel(col, {1: 2})


def test_colouring_json_roundtrip():
    col = OrderedColouring({"a": 2, "b": 1}, 2)
    back = OrderedColouring.from_json(col.to_json())
    assert back.phi == col.phi and back.t == 2
    with pytest.raises(SceneError):
        OrderedColouring.from_json({"a": 0})


def test_greedy_on_intersection_graph(bigon_scene):
    events = compute_arrangement(bigon_scene)
    g = intersection_graph(bigon_scene, events)
    col = greedy_colouring(g, degeneracy_order(g)[::-1])
    check_ordered(col, events)
