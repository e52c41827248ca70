"""Acceptance gate: the ten certified properties of the whole toolkit.

Each test is one acceptance criterion; corpora are deterministic (fixed
seeds), checks are zero-tolerance unless a criterion explicitly reports
rather than asserts.
"""

import json
import math
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

from strandkit.arrangement import compute_arrangement, intersection_graph
from strandkit.check import (check_coloured_planarisation, grounded_distance_check,
                             verify_model, verify_td, walk_weak_diameter)
from strandkit.colouring import degeneracy_order, greedy_colouring
from strandkit.decomp import Pipeline, bounds, exact_treewidth, radius_decomposition
from strandkit.families import gen_grounded, gen_random, gen_segment_family
from strandkit.formats import dumps_canonical, dumps_instances, dumps_scene, dumps_td
from strandkit.graph import Graph, bfs_tree
from strandkit.product_model import build_model
from convex_sets import (convex_to_drawing, gen_grid_disk, gen_random_convex,
                         gen_rectangle_family)
from test_colouring import relabel
from test_decomp import eccentricity
from test_families import (certify_grid_disk, certify_segment_family,
                           ktt_minor_model)


def colourings_for(g):
    """Greedy colouring plus the adversarial (reversed) colour permutation."""
    greedy = greedy_colouring(g, degeneracy_order(g)[::-1])
    t = greedy.t
    reversed_perm = relabel(greedy, {c: t + 1 - c for c in range(1, t + 1)})
    return [greedy, reversed_perm]


@pytest.fixture(scope="module")
def random_corpus():
    specs = [(n, cap, seed)
             for n in (4, 5, 6, 7)
             for cap in (1, 2, 3)
             for seed in range(17)]
    specs += [(10, 3, seed) for seed in range(2)]
    scenes = []
    for n, cap, seed in specs:
        scene = gen_random(n, cap, seed)
        scenes.append((scene, compute_arrangement(scene)))
    assert len(scenes) >= 200
    return scenes


@pytest.fixture(scope="module")
def grounded_corpus():
    scenes = []
    for n in (4, 5, 6, 7, 8):
        for seed in range(10):
            scenes.append(gen_grounded(n, seed))
    assert len(scenes) >= 50
    return scenes


def test_criterion_1_lemma_suite(random_corpus):
    """Coloured-planarisation invariants hold on every scene and colouring."""
    t0 = time.monotonic()
    for scene, events in random_corpus:
        g = intersection_graph(scene, events)
        for colouring in colourings_for(g):
            p = Pipeline(scene, colouring)
            check_coloured_planarisation(p.plan, p.cp)
    assert time.monotonic() - t0 < 60


def test_criterion_2_model_validity(random_corpus):
    """build_model passes verify_model; projections equal W minus E_C."""
    for scene, events in random_corpus:
        g = intersection_graph(scene, events)
        for colouring in colourings_for(g):
            p = Pipeline(scene, colouring)
            cp = p.cp
            model = build_model(cp, p.params)
            assert verify_model(model, g)["valid"]
            for cid in g.vertices:
                assert model.projection(cid) == set(cp.walks[cid]) - cp.endpoints


def test_criterion_3_distance_bounds(random_corpus, grounded_corpus):
    """Walk weak diameters within r; grounded distances within t - 1."""
    for scene, events in random_corpus:
        g = intersection_graph(scene, events)
        for colouring in colourings_for(g):
            p = Pipeline(scene, colouring)
            cp, params = p.cp, p.params
            diam = walk_weak_diameter(cp, params)    # asserts <= r internally
            assert max(diam.values()) <= params.r
    for scene in grounded_corpus:
        g = Pipeline(scene).graph
        colouring = colourings_for(g)[0]
        cp = Pipeline(scene, colouring).cp
        ends = {f"e:{cid}:0" for cid in scene.curve_ids()}
        assert grounded_distance_check(cp, ends) <= colouring.t - 1


def test_criterion_4_outerstring_width(grounded_corpus):
    """Valid td, width within (3t-1)(d+1)-1, and never below exact tw."""
    t0 = time.monotonic()
    for scene in grounded_corpus:
        events = compute_arrangement(scene)
        g = intersection_graph(scene, events)
        colouring = colourings_for(g)[0]
        p = Pipeline(scene, colouring)
        td = p.outerstring["td"]
        verify_td(td, g, "outerstring td")
        assert td.width <= bounds(
            "planar-outerstring", {"t": p.params.t, "d": p.params.d})
        if len(g) <= 14:
            assert td.width >= exact_treewidth(g)
    assert time.monotonic() - t0 < 300


def random_planar_graph(n, seed):
    rng = random.Random(f"planar:{seed}")
    G = nx.Graph()
    G.add_nodes_from(range(n))
    for v in range(1, n):
        G.add_edge(v, rng.randrange(v))
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not G.has_edge(u, v):
            G.add_edge(u, v)
            if not nx.check_planarity(G)[0]:
                G.remove_edge(u, v)
    root = rng.randrange(n)
    return Graph(vertices=range(n), edges=G.edges()), root


def test_criterion_5_radius_decomposition():
    """Width within 3r+1 on 100 random rooted planar fixtures + oracles."""
    for seed in range(100):
        n = 6 + seed % 15
        g, root = random_planar_graph(n, seed)
        td = radius_decomposition(g, bfs_tree(g, root))
        verify_td(td, g, "radius decomposition")
        assert td.width <= 3 * eccentricity(g, root) + 1

    wheel = Graph(range(9), [e for i in range(8) for e in ((i, (i + 1) % 8), (i, 8))])
    td = radius_decomposition(wheel, bfs_tree(wheel, 8))
    assert exact_treewidth(wheel) <= td.width

    cells = [(i, j) for i in range(4) for j in range(4)]
    grid = Graph(cells, [((i, j), (i + di, j + dj)) for i, j in cells
                         for di, dj in ((1, 0), (0, 1)) if i + di < 4 and j + dj < 4])
    td = radius_decomposition(grid, bfs_tree(grid, (0, 0)))
    assert exact_treewidth(grid) <= td.width


def test_criterion_6_bound_arithmetic():
    """bounds() is bit-exact against independently written closed forms."""
    def ds(D):
        return 2 ** D * (D - 1) + 1

    cases = [
        ("planar-outerstring", {"t": 3, "d": 2}, 23),
        ("planar-outerstring", {"t": 1, "d": 0}, 1),
        ("planar-outerstring", {"t": 4, "d": 3}, 43),
        ("genus-outerstring", {"t": 1, "d": 0, "c": 1, "g": 0}, 2),
        ("genus-outerstring", {"t": 2, "d": 1, "c": 2, "g": 1}, 59),
        ("genus-outerstring", {"t": 3, "d": 2, "c": 1, "g": 0}, 44),
        ("outerstring-maxdegree", {"delta": 1, "c": 1, "g": 0}, 17),
        ("outerstring-maxdegree", {"delta": 2, "c": 1, "g": 0}, 44),
        ("outerstring-maxdegree", {"delta": 2, "c": 3, "g": 1}, 224),
        ("localised", {"delta": 2}, 5),
        ("localised", {"delta": 1}, 1),
        ("localised", {"delta": 3}, 17),
        ("ss-crossing", {"m": 3}, 72),
        ("ss-crossing", {"m": 1}, 2),
        ("ss-crossing", {"m": 4}, 256),
        ("string-rtw", {"delta": 1, "g": 0},
         2 * 3 * (ds(1) + 1) ** 2 * math.comb(2 * (ds(1) // 2) + 4, 3) - 1),
        ("string-rtw", {"delta": 2, "g": 0},
         2 * 3 * (ds(2) + 1) ** 2 * math.comb(2 * (ds(2) // 2) + 4, 3) - 1),
        ("string-rtw", {"delta": 2, "g": 2},
         2 * 4 * (ds(2) + 1) ** 2 * math.comb(2 * (ds(2) // 2) + 4, 3) - 1),
        ("ps-maxdegree", {"delta": 2}, 12095),
        ("ps-maxdegree", {"delta": 1},
         6 * (ds(1) + 1) ** 2 * math.comb(2 * (ds(1) // 2) + 4, 3) - 1),
        ("ps-maxdegree", {"delta": 3},
         6 * (ds(3) + 1) ** 2 * math.comb(2 * (ds(3) // 2) + 4, 3) - 1),
        ("rtw-main", {"r": 1, "c": 1, "g": 0},
         5 * ((2 * 9 + 3) * 7 ** (8 * 5 - 4) - 1) - 1),
        ("rtw-main", {"r": 0, "c": 1, "g": 0},
         1 * ((2 * 1 + 3) * 7 ** (2 * 5 - 4) - 1) - 1),
        ("rtw-main", {"r": 1, "c": 2, "g": 1},
         5 * 2 * ((2 * 9 * 2 + 3) * 9 ** (8 * 7 - 4) - 1) - 1),
        ("ltw-shallow", {"r": 3, "d": 1, "g": 0}, 78),
        ("ltw-shallow", {"r": 0, "d": 0, "g": 0}, 3),
        ("ltw-shallow", {"r": 1, "d": 2, "g": 1}, 75),
        ("tw-from-ltw", {"r": 1, "c": 1, "ltw": 4}, 11),
        ("tw-from-ltw", {"r": 2, "c": 2, "ltw": 3}, 29),
        ("tw-from-ltw", {"r": 0, "c": 1, "ltw": 1}, 0),
        ("product-tw", {"tw": 2, "n": 3}, 8),
        ("product-tw", {"tw": 0, "n": 1}, 0),
        ("product-tw", {"tw": 4, "n": 2}, 9),
        ("planar-radius-tw", {"r": 0}, 1),
        ("planar-radius-tw", {"r": 4}, 13),
        ("planar-radius-tw", {"r": 10}, 31),
        ("weak-diameter", {"t": 2, "k": 1}, 3),
        ("weak-diameter", {"t": 3, "k": 2}, 15),
        ("weak-diameter", {"t": 1, "k": 5}, 0),
    ]
    for theorem, params, expected in cases:
        assert bounds(theorem, params) == expected, (theorem, params)


def test_criterion_7_families():
    """Segment family and grid-disk certifications, plus the K_tt models."""
    for t in (1, 2, 3):
        scene = gen_segment_family(t)
        rep = certify_segment_family(scene, t)
        assert rep["vertices"] == 2 * t * t + 1
        assert rep["degeneracy"] <= 2
        assert rep["k22_free"]
        if t >= 2:
            assert rep["degeneracy"] == 2
            assert rep["radius"] == 3
        model, ktt = ktt_minor_model(scene, t)
        assert verify_model(model, ktt)["valid"]

    rep = certify_grid_disk(gen_grid_disk(4), 4)
    assert rep["structure_ok"]
    assert rep["degeneracy"] == 3
    assert rep["radius"] == 1
    assert exact_treewidth(rep["grid_graph"]) == 4


def test_criterion_8_convex_crossing_cap():
    """Every 1-bend drawing stays within 2 * Delta^2 crossings per edge."""
    for delta in (1, 2, 3, 4):
        d = convex_to_drawing(gen_rectangle_family(delta))
        assert d["max_crossings"] <= 2 * delta * delta
    for seed in range(50):
        cs = gen_random_convex(5 + seed % 4, seed)
        d = convex_to_drawing(cs)       # asserts the cap internally
        assert d["max_crossings"] <= d["cap"]


def test_criterion_9_localise(random_corpus):
    """Reassembly preserves the intersection graph; censuses are honest."""
    for scene, events in random_corpus:
        rep = Pipeline(scene).localised
        old = intersection_graph(scene, events).edge_list()
        new_events = compute_arrangement(rep["scene"])
        assert intersection_graph(rep["scene"], new_events).edge_list() == old
        before = rep["census_before"]["curves"]
        after = rep["census_after"]["curves"]
        for cid in after:
            assert after[cid]["count"] <= before[cid]["count"]
        per_pair = {}
        for e in events:
            key = (e.curve_a, e.curve_b)
            per_pair[key] = per_pair.get(key, 0) + 1
        if max(per_pair.values()) <= 2:
            # the bound is reachable by bigon removal alone here
            assert all(c["within_bound"] for c in after.values())


def _bundle() -> str:
    """A representative end-to-end report bundle as one canonical string."""
    parts = []
    for seed in (0, 1):
        scene = gen_grounded(5, seed)
        events = compute_arrangement(scene)
        g = intersection_graph(scene, events)
        colouring = colourings_for(g)[0]
        rep = Pipeline(scene, colouring).outerstring
        parts.append(dumps_scene(scene))
        parts.append(dumps_canonical(colouring.to_json()))
        parts.append(dumps_td(rep["td"]))
        parts.extend(dumps_instances([Pipeline(scene).localised["instance"]]))
    for seed in (0, 1):
        parts.append(dumps_scene(gen_random(6, 2, seed)))
    return "".join(parts)


def test_criterion_10_determinism():
    """Identical seeds give byte-identical bundles, in- and cross-process."""
    assert _bundle() == _bundle()
    cmd = [sys.executable, "-m", "strandkit.cli", "gen", "--family",
           "grounded", "--params", "n=5", "--seed", "7"]
    out1 = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    assert out1 == out2
    assert json.loads(out1)["curves"] == 5
