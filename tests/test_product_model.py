import copy
import re

import pytest

from strandkit.check import grounded_distance_check, verify_model, walk_weak_diameter
from strandkit.decomp import Pipeline, shallow_centers
from strandkit.errors import InvariantError, SceneError
from strandkit.families import gen_grounded
from strandkit.graph import Graph, ball_masks, bfs_distances
from strandkit.product_model import MinorModel, build_model, host_without_endpoints
from test_planarise import rebuilt


def pipeline(scene, colouring):
    p = Pipeline(scene, colouring)
    return p.events, p.cp, p.params, p.graph


# -------------------------------------------- materialised strong product oracle

def product_graph(host: Graph, copies: int) -> Graph:
    """Materialised strong product host x K_copies."""
    layers = range(1, copies + 1)
    edges = [((v, i), (v, j)) for v in host.vertices
             for i in layers for j in layers if i < j]
    edges += [((u, i), (v, j)) for u, v in host.edge_list() for i in layers for j in layers]
    return Graph([(v, i) for v in host.vertices for i in layers], edges)


def product_bfs_centers(model: MinorModel, r: int) -> dict:
    """Reference: first member of each sorted branch set whose BFS in the
    materialised product reaches the whole set within r."""
    prod = product_graph(model.host, model.copies)
    centers = {}
    for v in sorted(model.mu):
        branch = sorted(model.mu[v])
        for c in branch:
            dist = bfs_distances(prod, [c])
            if max(dist.get(b, r + 1) for b in branch) <= r:
                centers[v] = c
                break
        else:
            raise InvariantError(f"branch set of {v!r} is not weakly {r}-shallow")
    return centers


@pytest.fixture(params=["plus_sign", "bigon_scene"] +
                [f"grounded-{s}" for s in range(4)])
def model_scene(request):
    if request.param.startswith("grounded-"):
        return gen_grounded(12, int(request.param.split("-")[1]))
    return request.getfixturevalue(request.param)


def test_product_distance_is_host_distance(model_scene):
    model = Pipeline(model_scene).model
    prod = product_graph(model.host, model.copies)
    for v in sorted(model.mu):
        branch = sorted(model.mu[v])
        assert len({h for h, _ in branch}) == len(branch)
        for a in branch:
            d_prod = bfs_distances(prod, [a])
            d_host = bfs_distances(model.host, [a[0]])
            for b in branch:
                if b != a:
                    assert d_prod.get(b) == d_host.get(b[0])


def test_shallow_centers_match_product_bfs(model_scene):
    p = Pipeline(model_scene)
    model = p.model
    outcomes = set()
    # host distances are below len(host), so larger r change nothing
    for r in sorted(set(range(len(model.host) + 1)) | {p.params.r}):
        try:
            want = product_bfs_centers(model, r)
        except InvariantError as exc:
            with pytest.raises(InvariantError, match=re.escape(str(exc))):
                shallow_centers(model, r)
            outcomes.add("fail")
        else:
            assert shallow_centers(model, r) == want
            outcomes.add("ok")
    assert outcomes == {"ok", "fail"} or len(model.host) == 1


def test_product_graph_counts():
    host = Graph(vertices="ab", edges=[("a", "b")])
    prod = product_graph(host, 2)
    assert len(prod) == 4
    # strong product of K2 with K2 is K4
    assert len(prod.edge_list()) == 6


def test_plus_sign_model(plus_sign, plus_colouring):
    _, cp, params, G = pipeline(plus_sign, plus_colouring)
    model = build_model(cp, params)
    assert model.copies == params.d + 1 == 2
    assert model.mu["h"] == frozenset({("x:h:v:0", 1)})
    assert model.mu["v"] == frozenset({("x:h:v:0", 2)})
    assert verify_model(model, G)["valid"]


def test_projection_is_walk_minus_endpoints(abstract_multicross, abstract_colouring):
    _, cp, params, G = pipeline(abstract_multicross, abstract_colouring)
    model = build_model(cp, params)
    assert verify_model(model, G)["valid"]
    for cid in G.vertices:
        assert model.projection(cid) == set(cp.walks[cid]) - cp.endpoints


def test_understated_d_rejected(plus_sign, plus_colouring):
    _, cp, params, _ = pipeline(plus_sign, plus_colouring)
    lowered = type(params)(params.t, params.d - 1, params.k, params.r)
    with pytest.raises(InvariantError):
        build_model(cp, lowered)


def test_verify_model_violated_clauses():
    host = Graph(vertices="xy", edges=[("x", "y")])
    G = Graph(vertices="ab", edges=[("a", "b")])
    ok = MinorModel({"a": frozenset({("x", 1)}), "b": frozenset({("y", 1)})}, host, 1)
    assert verify_model(ok, G)["valid"]

    missing = MinorModel({"a": frozenset({("x", 1)})}, host, 1)
    assert verify_model(missing, G)["violated_clause"] == "domain"

    empty = MinorModel({"a": frozenset({("x", 1)}), "b": frozenset()}, host, 1)
    assert verify_model(empty, G)["violated_clause"] == "non-empty"

    shared = MinorModel({"a": frozenset({("x", 1)}), "b": frozenset({("x", 1)})},
                        host, 1)
    assert verify_model(shared, G)["violated_clause"] == "disjoint"

    host3 = Graph(vertices="xyz", edges=[("x", "y"), ("y", "z")])
    split = MinorModel({"a": frozenset({("x", 1), ("z", 1)}),
                        "b": frozenset({("y", 1)})}, host3, 1)
    assert verify_model(split, G)["violated_clause"] == "connected"

    host2 = Graph(vertices="xy", edges=[])
    uncovered = MinorModel({"a": frozenset({("x", 1)}), "b": frozenset({("y", 1)})},
                           host2, 1)
    assert verify_model(uncovered, G)["violated_clause"] == "edge-coverage"

    for model in (ok, missing, empty, shared, split, uncovered):
        assert verify_model(model, G) == pairwise_verify_model(model, G)


# ------------------------------------------- pairwise product-vertex oracle

def product_adjacent(model: MinorModel, a, b) -> bool:
    """Adjacency in host x K_copies (strong product)."""
    (ha, ca), (hb, cb) = a, b
    if ha == hb:
        return ca != cb
    return hb in model.host.adj.get(ha, ())


def connected_in_product(model: MinorModel, branch: frozenset) -> bool:
    branch = set(branch)
    start = min(branch)
    stack = [start]
    seen = {start}
    while stack:
        a = stack.pop()
        for b in branch - seen:
            if product_adjacent(model, a, b):
                seen.add(b)
                stack.append(b)
    return seen == branch


def pairwise_verify_model(model: MinorModel, G: Graph) -> dict:
    """Reference: verify_model deciding connectivity and edge coverage on
    pairs of product vertices."""
    mu = model.mu
    verts = G.vertices
    if sorted(mu) != verts:
        return {"valid": False, "violated_clause": "domain",
                "detail": "branch sets do not cover V(G) exactly"}
    for v in verts:
        if not mu[v]:
            return {"valid": False, "violated_clause": "non-empty", "detail": v}
    seen: dict = {}
    for v in verts:
        for pv in mu[v]:
            if pv in seen:
                return {"valid": False, "violated_clause": "disjoint",
                        "detail": f"{pv} in mu({seen[pv]!r}) and mu({v!r})"}
            seen[pv] = v
    for v in verts:
        if not connected_in_product(model, mu[v]):
            return {"valid": False, "violated_clause": "connected", "detail": v}
    for v in verts:
        for w in G.neighbours(v):
            if w <= v:
                continue
            if not any(product_adjacent(model, a, b) for a in mu[v] for b in mu[w]):
                return {"valid": False, "violated_clause": "edge-coverage",
                        "detail": f"{v}{w}"}
    return {"valid": True, "violated_clause": None, "detail": None}


@pytest.mark.parametrize("n", [6, 20, 24, 48])
def test_verify_model_matches_pairwise_oracle(n):
    for seed in range(3):
        p = Pipeline(gen_grounded(n, seed))
        got = verify_model(p.model, p.graph)
        assert got == pairwise_verify_model(p.model, p.graph)
        assert got["valid"]


def corrupted_models(model: MinorModel, G: Graph):
    """(clause, model) pairs: verify_model's first violated clause on each
    model is the named one."""
    mu, host = model.mu, model.host
    verts = G.vertices
    v, w = G.edge_list()[0]
    spare = model.copies + 1           # a copy index no branch set uses

    def with_mu(**changes):
        return MinorModel({**mu, **changes}, host, model.copies)

    yield "domain", MinorModel({u: mu[u] for u in verts[1:]}, host, model.copies)
    yield "non-empty", with_mu(**{v: frozenset()})
    yield "disjoint", with_mu(**{w: mu[w] | {min(mu[v])}})
    # a product vertex over a host vertex that neither lies in nor touches
    # the projection of mu(v)
    proj = model.projection(v)
    near = proj.union(*(host.adj[h] for h in proj))
    far = min(set(host.adj) - near)
    yield "connected", with_mu(**{v: mu[v] | {(far, spare)}})
    # one product vertex left of mu(v), too far from a neighbour's set
    x, h = next((x, h) for x in verts for h in sorted(model.projection(x))
                if any(model.projection(u).isdisjoint(host.adj[h] | {h})
                       for u in G.neighbours(x)))
    yield "edge-coverage", with_mu(**{x: frozenset({(h, spare)})})
    # host vertices missing from the host: alone, in two copies, and
    # beside a host vertex
    yield "edge-coverage", with_mu(**{v: frozenset({("ghost", 1)})})
    yield "edge-coverage", with_mu(**{v: frozenset({("ghost", 1), ("ghost", 2)})})
    yield "connected", with_mu(**{v: mu[v] | {("ghost", spare)}})


def test_verify_model_corrupted_matches_pairwise_oracle():
    clauses = []
    for n, seed in ((12, 0), (20, 1)):
        p = Pipeline(gen_grounded(n, seed))
        for clause, bad in corrupted_models(p.model, p.graph):
            got = verify_model(bad, p.graph)
            assert got == pairwise_verify_model(bad, p.graph)
            assert got["violated_clause"] == clause
            clauses.append(clause)
    assert set(clauses) == {"domain", "non-empty", "disjoint", "connected",
                            "edge-coverage"}


def test_walk_weak_diameter(plus_sign, plus_colouring):
    _, cp, params, _ = pipeline(plus_sign, plus_colouring)
    diam = walk_weak_diameter(cp, params)
    assert diam == {"h": 0, "v": 0}


def test_walk_weak_diameter_bound_enforced(abstract_multicross, abstract_colouring):
    _, cp, params, _ = pipeline(abstract_multicross, abstract_colouring)
    diam = walk_weak_diameter(cp, params)
    assert max(diam.values()) <= params.r


def test_grounded_distance_plus(plus_sign, plus_colouring):
    _, cp, _, _ = pipeline(plus_sign, plus_colouring)
    worst = grounded_distance_check(cp, {"e:h:0", "e:v:0"})
    assert worst == 1  # t - 1


def test_grounded_distance_needs_full_cover(plus_sign, plus_colouring):
    _, cp, _, _ = pipeline(plus_sign, plus_colouring)
    with pytest.raises(SceneError):
        grounded_distance_check(cp, {"e:h:0"})
    with pytest.raises(SceneError):
        grounded_distance_check(cp, {"e:h:0", "x:h:v:0"})


def test_grounded_distance_names_each_violated_clause(plus_sign, plus_colouring):
    """Y holding the crossing, a vertex no walk reaches, and colours that
    make t = 1: each clause refuses with its own error."""
    _, cp, _, _ = pipeline(plus_sign, plus_colouring)
    ends = {"e:h:0", "e:v:0"}
    lonely = copy.deepcopy(cp.embedding)
    lonely.add_vertex("lonely")
    cases = [
        (cp, ends | {"x:h:v:0"}, SceneError, "Y contains non-endpoint vertices"),
        (rebuilt(cp, embedding=lonely), ends, InvariantError,
         "vertex 'lonely' unreachable from Y"),
        (rebuilt(cp, phi={"h": 1, "v": 1}), ends, InvariantError,
         "grounded distance 1 exceeds t-1 = 0"),
    ]
    for bad, Y, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            grounded_distance_check(bad, Y)


def test_host_without_endpoints(plus_sign, plus_colouring):
    _, cp, _, _ = pipeline(plus_sign, plus_colouring)
    host = host_without_endpoints(cp)
    assert host.vertices == ["x:h:v:0"]


def test_outerstring_fixture_distances(outerstring_scene, outerstring_colouring):
    _, cp, params, G = pipeline(outerstring_scene, outerstring_colouring)
    model = build_model(cp, params)
    assert verify_model(model, G)["valid"]
    ends = {f"e:{cid}:0" for cid in outerstring_scene.curve_ids()}
    assert grounded_distance_check(cp, ends) <= params.t - 1


# ------------------------------------------- per-source BFS distance oracles

def bfs_walk_weak_diameter(cp, params) -> dict:
    """Reference: walk_weak_diameter with a full BFS of C^phi from every
    inner walk vertex."""
    g = cp.graph
    out = {}
    for cid in sorted(cp.walks):
        inner = sorted(set(cp.walks[cid]) - cp.endpoints)
        diam = 0
        for x in inner:
            dist = bfs_distances(g, [x])
            for y in inner:
                if y not in dist:
                    raise InvariantError(f"walk of {cid!r} disconnected in C^phi")
                diam = max(diam, dist[y])
        if diam > params.r:
            raise InvariantError(
                f"walk weak diameter of {cid!r} is {diam} > r = {params.r}")
        out[cid] = diam
    return out


def bfs_shallow_centers(model: MinorModel, r: int) -> dict:
    """Reference: shallow_centers with one host BFS per candidate center."""
    host_dist: dict = {}
    centers = {}
    for v in sorted(model.mu):
        branch = sorted(model.mu[v])
        for c in branch:
            h = c[0]
            if h not in host_dist:
                host_dist[h] = bfs_distances(model.host, [h])
            dist = host_dist[h]
            worst = max(int(b != c) if b[0] == h else dist.get(b[0], r + 1)
                        for b in branch)
            if worst <= r:
                centers[v] = c
                break
        else:
            raise InvariantError(f"branch set of {v!r} is not weakly {r}-shallow")
    return centers


def same_outcome(fast, slow, *args):
    """fast(*args) returns what slow(*args) returns, or raises the same
    exception type with the same text."""
    try:
        want = slow(*args)
    except InvariantError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            fast(*args)
        return None
    assert fast(*args) == want
    return want


def test_ball_masks_are_bfs_balls():
    """Each yielded k holds the radius-k balls; the last one is the fixpoint."""
    path = Graph(vertices=range(7), edges=[(i, i + 1) for i in range(5)])
    grid = Graph(edges=[((i, j), (i + di, j + dj)) for i in range(4)
                        for j in range(4) for di, dj in ((0, 1), (1, 0))
                        if i + di < 4 and j + dj < 4])
    for g in (path, grid, Graph()):
        sources = g.vertices[::2]
        dist = [bfs_distances(g, [s]) for s in sources]
        ecc = max((max(d.values()) for d in dist), default=-1)
        ks, before = [], {}
        for k, masks in ball_masks(g, sources):
            ks.append(k)
            for v in g.vertices:
                want = sum(1 << i for i, d in enumerate(dist) if d.get(v, k + 1) <= k)
                assert masks[v] == want
            # each step yielded grows a ball
            assert masks != before
            before = dict(masks)
        assert ks == list(range(ecc + 1))


@pytest.mark.parametrize("n", [6, 12, 24, 48])
def test_distance_checks_match_bfs_oracles(n):
    for seed in range(3):
        p = Pipeline(gen_grounded(n, seed))
        diam = same_outcome(walk_weak_diameter, bfs_walk_weak_diameter,
                            p.cp, p.params)
        assert diam is not None
        width = max(diam.values())
        for r in sorted({0, 1, 2, width, 2 * width + 1, p.params.r}):
            same_outcome(shallow_centers, bfs_shallow_centers, p.model, r)


def test_distance_checks_match_bfs_oracles_abstract(
        abstract_multicross, abstract_colouring, plus_sign, plus_colouring):
    for scene, colouring in ((abstract_multicross, abstract_colouring),
                             (plus_sign, plus_colouring)):
        _, cp, params, _ = pipeline(scene, colouring)
        assert same_outcome(walk_weak_diameter, bfs_walk_weak_diameter,
                            cp, params) is not None
        model = build_model(cp, params)
        for r in range(-1, len(model.host) + 1):
            same_outcome(shallow_centers, bfs_shallow_centers, model, r)
    # two copies of one host vertex are at distance 1; an unreachable copy
    # is at no finite distance
    host = Graph(vertices="xyz", edges=[("x", "y")])
    model = MinorModel({"a": frozenset({("x", 1), ("x", 2)}),
                        "b": frozenset({("y", 1), ("x", 3)}),
                        "c": frozenset({("z", 1)}), "d": frozenset({("z", 2), ("x", 4)})},
                       host, 4)
    for r in range(-1, 3):
        same_outcome(shallow_centers, bfs_shallow_centers,
                     MinorModel({v: model.mu[v] for v in "abc"}, host, 4), r)
        same_outcome(shallow_centers, bfs_shallow_centers, model, r)


def test_walk_weak_diameter_corrupted_matches_oracle():
    """A walk split into two components, r below the true diameter, and both
    at once: the first curve in sorted order fails, with the oracle's text."""
    p = Pipeline(gen_grounded(12, 0))
    cp, params = p.cp, p.params
    diam = walk_weak_diameter(cp, params)
    cids = sorted(cp.walks)
    widest = max(cids, key=lambda c: diam[c])

    def split(*walk_ids):
        emb = copy.deepcopy(cp.embedding)
        walks = dict(cp.walks)
        for i, cid in enumerate(walk_ids):
            emb.add_vertex(f"island{i}")
            walks[cid] = list(walks[cid]) + [f"island{i}"]
        return rebuilt(cp, embedding=emb, walks=walks)

    lowered = type(params)(params.t, params.d, params.k, diam[widest] - 1)
    cases = [(split(cids[-1]), params), (split(cids[-1], cids[1]), params),
             (cp, lowered), (split(cids[-1]), lowered)]
    texts = []
    for bad_cp, bad_params in cases:
        with pytest.raises(InvariantError) as info:
            bfs_walk_weak_diameter(bad_cp, bad_params)
        texts.append(str(info.value))
        same_outcome(walk_weak_diameter, bfs_walk_weak_diameter, bad_cp, bad_params)
    assert texts[0] == f"walk of {cids[-1]!r} disconnected in C^phi"
    assert texts[1] == f"walk of {cids[1]!r} disconnected in C^phi"
    assert texts[2].startswith("walk weak diameter of ")
