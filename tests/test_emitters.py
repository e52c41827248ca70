"""Every artifact writer against its oracle: each writes exactly
dumps_canonical of the JSON tree that reference_json.py builds for the same
record, and td_to_pace exactly what the PACE writer it replaced wrote.

The records come from the pipeline of the manifest's fixtures, with and
without their colourings, of seeded grounded, random and segment scenes, and
of derandomised Hypothesis scenes whose ids hold quotes, backslashes,
colons and non-ASCII characters; and from hand-built records with empty
lists and dicts and edges without a curve label.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from strandkit.arrangement import compute_arrangement
from strandkit.decomp import (Layering, Pipeline, TreeDecomposition,
                              exact_treewidth_decomposition)
from strandkit.embedding import EmbeddedGraph
from strandkit.errors import DegeneracyError, InvariantError, SceneError
from strandkit.families import gen_grounded, gen_random, gen_segment_family
from strandkit.formats import (dumps_canonical, dumps_coloured, dumps_events, dumps_graph,
                               dumps_instances, dumps_layering, dumps_model,
                               dumps_planarisation, dumps_scene, dumps_td, td_to_pace)
from strandkit.geometry import pt
from strandkit.graph import Graph
from strandkit.localise import AuxiliaryInstance
from strandkit.planarise import ColouredPlanarisation, Planarisation
from strandkit.product_model import MinorModel
from strandkit.scene import Curve, Disk, StringScene
import reference_json as ref

REFUSED = (SceneError, DegeneracyError, InvariantError)


def assert_text(got: str, want: str, what) -> None:
    """got == want, or a failure that shows where they first differ (pytest's
    own diff of two long texts takes minutes)."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        near = slice(max(i - 60, 0), i + 60)
        pytest.fail(f"{what}: text differs at {i}: {got[near]!r} against "
                    f"{want[near]!r}", pytrace=False)


def same(write, tree, record) -> None:
    """write(record) is dumps_canonical(tree(record)), or both refuse
    record with one SceneError."""
    try:
        want = dumps_canonical(tree(record))
    except SceneError as exc:
        with pytest.raises(SceneError, match=f"^{re.escape(str(exc))}$"):
            write(record)
        return
    assert_text(write(record), want, write.__qualname__)


def same_td(td: TreeDecomposition, G: Graph) -> None:
    same(dumps_td, ref.td_to_json, td)
    assert_text(td_to_pace(td, G), ref.td_to_pace(td, G), "td_to_pace")


def same_instances(instances: list) -> None:
    texts = dumps_instances(instances)
    assert len(texts) == len(instances)
    for text, inst in zip(texts, instances):
        assert_text(text, dumps_canonical(ref.instance_to_json(inst)), "dumps_instances")


def check_pipeline(scene: StringScene, colouring=None) -> set:
    """Hold every writer to its oracle on each stage of the scene's pipeline
    that builds, and return the names of the stages that did."""
    p = Pipeline(scene, colouring)
    built = set()

    def stage(name: str):
        try:
            record = getattr(p, name)
        except REFUSED:
            return None
        built.add(name)
        return record

    same(dumps_scene, ref.scene_to_json, scene)
    if stage("events") is None:
        return built
    same(dumps_events, ref.events_to_json, p.events)
    same(dumps_graph, ref.graph_to_json, p.graph)
    if stage("plan") is not None:
        same(dumps_planarisation, ref.planarisation_to_json, p.plan)
    if stage("cp") is not None:
        same(dumps_coloured, ref.coloured_to_json, p.cp)
    if stage("model") is not None:
        same(dumps_model, ref.model_to_json, p.model)
    if stage("ltw") is not None:
        same_td(p.ltw["td"], p.graph)
        same(dumps_layering, ref.layering_to_json, p.ltw["layering"])
    if stage("outerstring") is not None:
        same_td(p.outerstring["td"], p.graph)
    if stage("localised") is not None:
        result = p.localised
        same_instances([result["instance"], result["reduced"]])
        same(dumps_scene, ref.scene_to_json, result["scene"])
    return built


ALL_STAGES = {"events", "plan", "cp", "model", "ltw", "outerstring", "localised"}


@pytest.mark.parametrize("build", list(corpus.FIXTURES), ids=lambda b: b.__name__)
def test_fixtures(build):
    check_pipeline(build())
    colouring = corpus.FIXTURES[build]
    if colouring is not None:
        check_pipeline(build(), colouring())


def test_fixtures_reach_every_stage():
    built = set().union(*(check_pipeline(build()) for build in corpus.FIXTURES))
    assert built == ALL_STAGES


@pytest.mark.parametrize("n, seed", [(n, s) for n in (2, 6, 24) for s in (0, 1)]
                         + [(128, 0)])
def test_grounded_scenes(n, seed):
    assert check_pipeline(gen_grounded(n, seed)) >= {"events", "plan", "cp", "model"}


@pytest.mark.parametrize("scene", [
    *(lambda s=s: gen_random(6, 2, s) for s in range(3)),
    lambda: gen_random(8, 3, 0),
    *(lambda t=t: gen_segment_family(t) for t in (1, 2, 3)),
])
def test_random_and_segment_scenes(scene):
    assert "events" in check_pipeline(scene())


def test_bigon_reduction_writes_a_drawing_of_its_own():
    """bigon_scene loses a bigon, so reduced.json shares every section of
    instance.json but the drawing."""
    result = Pipeline(corpus.bigon_scene()).localised
    inst, reduced = result["instance"], result["reduced"]
    assert reduced.crossing_count() < inst.crossing_count()
    instance_text, reduced_text = dumps_instances([inst, reduced])
    assert instance_text != reduced_text
    same_instances([inst, reduced])
    same_instances([reduced, inst])


def test_unprintable_location_is_refused_by_both():
    events = compute_arrangement(StringScene.from_json(
        corpus.DEGENERATE_SCENES["unprintable-crossing"]))
    with pytest.raises(SceneError, match="its location has more digits"):
        dumps_events(events)
    same(dumps_events, ref.events_to_json, events)


def test_empty_and_unlabelled_records():
    same(dumps_scene, ref.scene_to_json, StringScene())
    abstract = StringScene({"a": Curve("a", None, ())},
                           {"D": Disk("D", boundary=())}, {})
    same(dumps_scene, ref.scene_to_json, abstract)
    same(dumps_events, ref.events_to_json, [])
    same(dumps_graph, ref.graph_to_json, Graph())
    g = corpus.embedding([("e", "u", "v"),        # no curve label: "curve": null
                          ("f", "v", "v", 1, "c")],
                         {"w": []})                # an empty rotation
    same(dumps_planarisation, ref.planarisation_to_json,
         Planarisation(g, {"u": "endpoint", "v": "dummy", "w": "dummy"}, {"c": []}, {}))
    same(dumps_planarisation, ref.planarisation_to_json,
         Planarisation(EmbeddedGraph({}, {}, {}, {}), {}, {}, {}))
    same(dumps_coloured, ref.coloured_to_json, ColouredPlanarisation(
        g, {"u": 0, "v": 1, "w": 2}, {}, {"c": []}, {"u"}, {}, {}))
    same(dumps_model, ref.model_to_json, MinorModel({}, Graph(), 1))
    same(dumps_model, ref.model_to_json, MinorModel({"a": frozenset()}, Graph(), 1))
    for td in (TreeDecomposition([], [], {}),
               TreeDecomposition([1], [], {1: frozenset()}),
               TreeDecomposition([2, 10, 1], [(10, 2), (1, 2)],
                                 {1: frozenset(), 2: frozenset("ab"), 10: frozenset("b")})):
        same_td(td, Graph("ab", ["ab"]))
    for layers in ([], [[]], [[3, 12, 1], []]):
        same(dumps_layering, ref.layering_to_json, Layering(layers))
    empty = AuxiliaryInstance(Graph(), {}, set(), {}, {}, {}, {})
    same_instances([empty, empty])


def test_int_vertices_write_as_sorted_strings():
    """A decomposition of a graph on ints: bags and layers list str(v) in
    string order, so 10 comes before 2."""
    G = Graph(range(12), [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    _, td = exact_treewidth_decomposition(G)
    same_td(td, G)
    same(dumps_layering, ref.layering_to_json, Layering([list(range(12))]))


# ids with quotes, backslashes, colons, control and non-ASCII characters;
# validate refuses the controls XML 1.0 excludes, so those drawn are DEL and tab
ids = st.text(st.sampled_from('ab"\\:é€\u2028\x7f\t'), min_size=1, max_size=3)


@st.composite
def abstract_scenes(draw) -> StringScene:
    """An abstract scene: the curves of some crossing pairs, each crossing
    in a drawn place along its two curves, some arcs twisted, and, when
    drawn, every curve grounded on one abstract disk."""
    names = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    pairs = draw(st.lists(st.permutations(names).map(lambda p: p[:2]),
                          min_size=1, max_size=8))
    prefix = draw(ids)
    on: dict = {}
    chirality = {}
    for k, (a, b) in enumerate(pairs):
        x = f"{prefix}{k}"
        chirality[x] = draw(st.sampled_from([1, -1]))
        on.setdefault(a, []).append(x)
        on.setdefault(b, []).append(x)
    grounded = draw(st.booleans())
    scene = StringScene(chirality=chirality)
    for cid, mine in on.items():
        twists = draw(st.sets(st.integers(0, len(mine)), max_size=1))
        scene.curves[cid] = Curve(cid, None, tuple(draw(st.permutations(mine))),
                                  ("D", draw(st.integers(0, 1))) if grounded else None,
                                  tuple(twists))
    if grounded:
        ends = [(cid, c.grounded[1]) for cid, c in scene.curves.items()]
        scene.disks["D"] = Disk("D", boundary=tuple(draw(st.permutations(ends))))
    scene.validate()
    return scene


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(abstract_scenes())
def test_abstract_hypothesis_scenes(scene):
    check_pipeline(scene)


@st.composite
def geometric_scenes(draw) -> StringScene:
    """Two to four polylines on a small grid, most of them degenerate, with
    drawn ids and a drawn scale."""
    names = draw(st.lists(ids, min_size=2, max_size=4, unique=True))
    scale = draw(st.sampled_from([1, 3, 7]))
    scene = StringScene()
    for cid in names:
        points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                               min_size=2, max_size=3, unique=True))
        scene.curves[cid] = Curve(cid, tuple(pt(f"{x}/{scale}", f"{y}/{scale}")
                                             for x, y in points))
    return scene


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(geometric_scenes())
def test_geometric_hypothesis_scenes(scene):
    try:
        scene.validate()
    except SceneError:
        return
    check_pipeline(scene)
