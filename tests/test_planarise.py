import copy
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.arrangement import events_by_curve
from strandkit.check import check_coloured_planarisation
from strandkit.colouring import (ColouringParams, OrderedColouring,
                                 colour_sections)
from strandkit.decomp import Pipeline, bounds
from strandkit.errors import InvariantError, SceneError
from strandkit.families import gen_grounded, gen_random
from strandkit.formats import planarisation_to_dot, scene_to_svg
from strandkit.geometry import pt
from strandkit import planarise
from strandkit.planarise import (ColouredPlanarisation, Planarisation, coloured_planarisation,
                                 endpoint_id)
from strandkit.scene import Curve, Disk, StringScene
from reference_json import coloured_to_json, planarisation_to_json
from test_colouring import check_ordered
from test_embedding import genus, oracle_contract_edge, state
import corpus


@dataclass(frozen=True)
class Fragment:
    """Maximal piece of a curve between crossings with smaller-colour curves."""
    path: tuple            # subpath of L_gamma, including its end vertices
    interior: tuple        # crossing ids strictly inside the fragment

    def section(self):
        """Interior of the subpath, or None when it has < 3 vertices."""
        if len(self.path) < 3:
            return None
        return list(self.path[1:-1])


def fragments(plan: Planarisation, colouring, curve_id: str) -> list[Fragment]:
    """Fragments of a curve in arc order under an ordered colouring: the
    walk over the path of C' that the colour cut replaced, kept as its
    oracle."""
    phi = colouring.phi
    if curve_id not in plan.curve_paths:
        raise SceneError(f"unknown curve {curve_id!r}")
    path = plan.curve_paths[curve_id]
    my_colour = phi[curve_id]
    # positions in the path where a smaller-coloured curve crosses
    cuts = []
    for i, v in enumerate(path):
        if plan.kind[v] != "dummy":
            continue
        other = plan.events[v].other(curve_id)
        if phi[other] == my_colour:
            raise SceneError(
                f"not an ordered colouring: curves {curve_id!r} and {other!r} "
                f"cross and share colour {my_colour}")
        if phi[other] < my_colour:
            cuts.append(i)
    out = []
    bounds = [0] + cuts + [len(path) - 1]
    for fi in range(len(bounds) - 1):
        sub = path[bounds[fi]:bounds[fi + 1] + 1]
        interior = tuple(v for v in sub[1:-1] if plan.kind[v] == "dummy")
        out.append(Fragment(tuple(sub), interior))
    return out


def sections(plan: Planarisation, colouring, curve_id: str) -> list[list]:
    """Sections of L_gamma: fragment subpath interiors with >= 1 vertex."""
    out = []
    for frag in fragments(plan, colouring, curve_id):
        sec = frag.section()
        if sec is not None:
            out.append(sec)
    return out


def cut_of(plan, colouring, curve_id):
    """The colour cut of a curve read off C': its sections as lists of
    vertices of L_gamma, and the number of its fragments."""
    path = plan.curve_paths[curve_id]
    crossings = [plan.events[v] for v in path[1:-1]]
    runs, _ = colour_sections(curve_id, crossings, colouring.phi)
    cut_count = len(crossings) - sum(len(run) for run in runs)
    return [path[run.start + 1:run.stop + 1] for run in runs], cut_count + 1


def test_plus_sign_planarisation(plus_sign):
    plan = Pipeline(plus_sign).plan
    assert len(plan.embedding.rotation) == 5
    assert plan.embedding.edge_count() == 4
    assert plan.dummies() == ["x:h:v:0"]
    assert sum(k == "endpoint" for k in plan.kind.values()) == 4
    assert plan.curve_paths["h"] == ["e:h:0", "x:h:v:0", "e:h:1"]
    assert genus(plan.embedding) == 0


def test_isolated_curve_rejected():
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(-1, 0), pt(1, 0)))
    s.curves["b"] = Curve("b", (pt(0, -1), pt(0, 1)))
    s.curves["far"] = Curve("far", (pt(9, 9), pt(10, 9)))
    s.validate()
    with pytest.raises(SceneError, match="curve 'far' crosses no other curve"):
        Pipeline(s).plan


def test_plus_sign_fragments(plus_sign, plus_colouring):
    plan = Pipeline(plus_sign).plan
    secs_h, count_h = cut_of(plan, plus_colouring, "h")
    assert count_h == 1
    assert plan.curve_paths["h"] == ["e:h:0", "x:h:v:0", "e:h:1"]
    assert secs_h == [["x:h:v:0"]]
    secs_v, count_v = cut_of(plan, plus_colouring, "v")
    assert count_v == 2             # cut at the crossing with smaller colour
    assert secs_v == []
    assert colour_sections("v", [plan.events["x:h:v:0"]],
                           plus_colouring.phi) == ([], {"h"})


def test_same_colour_crossing_rejected(plus_sign):
    bad = OrderedColouring({"h": 1, "v": 1}, 1)
    for stage in ("cut", "cp", "params", "model"):
        p = Pipeline(plus_sign, bad)
        assert p.colouring is bad and p.plan
        with pytest.raises(SceneError, match="not an ordered colouring: "
                           "curves 'h' and 'v' cross and share colour 1"):
            getattr(p, stage)


def test_plus_sign_coloured_equals_planarisation(plus_sign, plus_colouring):
    p = Pipeline(plus_sign, plus_colouring)
    plan, cp = p.plan, p.cp
    # single-vertex sections keep their ids: C^phi = C'
    assert sorted(cp.embedding.rotation) == sorted(plan.embedding.rotation)
    assert cp.level["x:h:v:0"] == 1
    assert all(cp.level[e] == 0 for e in cp.endpoints)
    assert cp.walks["h"] == ["e:h:0", "x:h:v:0", "e:h:1"]
    assert cp.walks["v"] == ["e:v:0", "x:h:v:0", "e:v:1"]
    check_coloured_planarisation(plan, cp)
    assert genus(cp.embedding) == 0


def test_multicross_fragments_and_sections(abstract_multicross, abstract_colouring):
    p = Pipeline(abstract_multicross, abstract_colouring)
    plan = p.plan
    secs, count = cut_of(plan, abstract_colouring, "m")
    # cuts at the four crossings with colours 1 and 2
    assert count == 5
    assert sorted(len(s) for s in secs) == [1, 2, 2]
    cp = p.cp
    check_coloured_planarisation(plan, cp)
    # walk of m never exceeds level 3 and alternates away from own level
    assert all(cp.level[x] <= 3 for x in cp.walks["m"])


def test_contraction_counts(abstract_multicross, abstract_colouring):
    p = Pipeline(abstract_multicross, abstract_colouring)
    plan, cp = p.plan, p.cp
    shrunk = sum(len(s) - 1 for s in cp.sections.values())
    assert len(plan.kind) - len(cp.embedding.rotation) == shrunk
    # psi fixes endpoints and maps each section onto its representative
    for rep, sec in cp.sections.items():
        assert all(cp.psi[v] == rep for v in sec)


def test_twisted_arc_raises_genus(abstract_multicross):
    plain = Pipeline(abstract_multicross).plan
    base = genus(plain.embedding)
    m = abstract_multicross.curves["m"]
    abstract_multicross.curves["m"] = Curve("m", None, m.crossings, twists=(4,))
    abstract_multicross.validate()
    twisted = Pipeline(abstract_multicross).plan
    after = genus(twisted.embedding)
    assert after != base or after % 2 != base % 2


def test_double_crossing_twist_genus():
    s = StringScene()
    s.curves["a"] = Curve("a", None, ("x0", "x1"))
    s.curves["b"] = Curve("b", None, ("x0", "x1"))
    s.chirality = {"x0": 1, "x1": -1}
    s.validate()
    assert genus(Pipeline(s).plan.embedding) == 0
    s.curves["a"] = Curve("a", None, ("x0", "x1"), twists=(1,))
    twisted = Pipeline(s).plan
    assert genus(twisted.embedding) == 1


def test_emitters(plus_sign, plus_colouring):
    p = Pipeline(plus_sign, plus_colouring)
    plan, cp = p.plan, p.cp
    pj = planarisation_to_json(plan)
    assert {v["id"] for v in pj["vertices"]} == set(plan.kind)
    cj = coloured_to_json(cp)
    assert cj["walks"]["h"] == cp.walks["h"]
    dot = planarisation_to_dot(plan)
    assert dot.startswith("graph") and "x:h:v:0" in dot
    svg = scene_to_svg(plus_sign, plus_colouring)
    assert svg.startswith("<svg") and "polyline" in svg


def test_svg_needs_geometry(abstract_multicross):
    with pytest.raises(SceneError):
        scene_to_svg(abstract_multicross)


@pytest.mark.parametrize("cid, far", [("h", (10 ** 307, 0)), ("v", (0, -10 ** 307))])
def test_svg_refuses_a_point_drawn_beyond_float_range(plus_sign, cid, far):
    """A coordinate within float range whose drawn position is not."""
    s = plus_sign
    s.curves[cid] = s.curves[cid]._replace(points=(s.curves[cid].points[0], pt(*far)))
    with pytest.raises(SceneError,
                       match=f"^curve '{cid}': a drawn number is beyond float range"):
        scene_to_svg(s)


def test_svg_refuses_a_disk_drawn_beyond_float_range(plus_sign):
    s = plus_sign
    s.disks["D"] = Disk("D", pt(10 ** 307, 0), Fraction(1))
    s.validate()
    with pytest.raises(SceneError, match="^disk 'D': a drawn number is beyond float range"):
        scene_to_svg(s)


def oracle_params(plan, colouring) -> tuple:
    """d and k from the oracle's fragments: the most distinct larger-coloured
    curves inside one fragment, and the most distinct smaller-coloured
    curves that cut one curve."""
    phi = colouring.phi
    d = k = 0
    for cid in sorted(plan.curve_paths):
        frags = fragments(plan, colouring, cid)
        for frag in frags:
            d = max(d, len({plan.events[v].other(cid) for v in frag.interior}))
        cuts = [frag.path[-1] for frag in frags[:-1]]
        assert all(phi[plan.events[v].other(cid)] < phi[cid] for v in cuts)
        k = max(k, len({plan.events[v].other(cid) for v in cuts}))
    return d, k


def oracle_compute_params(scene, events, colouring) -> ColouringParams:
    """t, d, k, r from the events, each curve split into fragments at its
    smaller-colour crossings: the pass before the colour cut, after the
    ordering check that the cut replaced."""
    phi = colouring.phi
    check_ordered(colouring, events)
    d = 0
    k = 0
    for cid, mine in events_by_curve(scene.curve_ids(), events).items():
        my_colour = phi[cid]
        smaller = {e.other(cid) for e in mine if phi[e.other(cid)] < my_colour}
        k = max(k, len(smaller))
        frag: set = set()
        for e in mine:
            other = e.other(cid)
            if phi[other] < my_colour:
                d = max(d, len(frag))
                frag = set()
            else:
                frag.add(other)
        d = max(d, len(frag))
    t = colouring.t
    return ColouringParams(t, d, k, bounds("weak-diameter", {"t": t, "k": k}))


def assert_cut_matches_oracle(scene, colouring):
    p = Pipeline(scene, colouring)
    # the cut's positions index path[1:-1] of each L_gamma
    for cid, path in p.plan.curve_paths.items():
        assert path[1:-1] == [e.id for e in p.along[cid]]
    want = {sec[0]: sec for cid in sorted(p.plan.curve_paths)
            for sec in sections(p.plan, p.colouring, cid)}
    assert list(p.cp.sections.items()) == list(want.items())
    assert (p.params.d, p.params.k) == oracle_params(p.plan, p.colouring)
    assert p.params == oracle_compute_params(scene, p.events, p.colouring)


def test_colour_cut_matches_fragment_oracle():
    scenes = [gen_grounded(n, s) for n in (6, 20, 24, 48) for s in range(3)]
    for scene in scenes + [gen_random(10, 2, s) for s in range(3)]:
        assert_cut_matches_oracle(scene, None)


def test_colour_cut_matches_fragment_oracle_on_fixtures(
        abstract_multicross, abstract_colouring, bigon_scene, outerstring_scene,
        outerstring_colouring, plus_sign, plus_colouring):
    for scene, colouring in [(abstract_multicross, abstract_colouring),
                             (abstract_multicross, None),
                             (bigon_scene, None),
                             (outerstring_scene, outerstring_colouring),
                             (plus_sign, plus_colouring)]:
        assert_cut_matches_oracle(scene, colouring)


def oracle_check_coloured_planarisation(plan, cp):
    """The checker before it indexed the walks by vertex: it scans every
    walk at every vertex for the level-defining curve."""
    fibres: dict = {}
    for v, x in cp.psi.items():
        fibres.setdefault(x, set()).add(v)
    if sum(len(f) for f in fibres.values()) != len(plan.kind):
        raise InvariantError("psi fibres do not cover V(C')")
    for x, fibre in fibres.items():
        if x in cp.endpoints:
            if fibre != {x}:
                raise InvariantError(f"endpoint fibre of {x!r} not a singleton")
        elif fibre != set(cp.sections[x]):
            raise InvariantError(f"fibre of {x!r} is not its section")
    for x in sorted(cp.level):
        if x in cp.endpoints:
            continue
        witnesses = [cid for cid, walk in cp.walks.items()
                     if cp.phi[cid] == cp.level[x] and x in walk]
        if len(witnesses) != 1:
            raise InvariantError(f"vertex {x!r}: {len(witnesses)} level-defining curves")
        if not set(cp.sections[x]) <= set(plan.curve_paths[witnesses[0]]):
            raise InvariantError(f"fibre of {x!r} escapes L of {witnesses[0]!r}")
    for cid, walk in cp.walks.items():
        for i in range(len(walk) - 1):
            if cp.level[walk[i]] == cp.phi[cid] == cp.level[walk[i + 1]]:
                raise InvariantError(
                    f"walk of {cid!r}: consecutive level-{cp.phi[cid]} vertices "
                    f"{walk[i]!r}, {walk[i + 1]!r}")
    crossing_pairs = set()
    for e in plan.events.values():
        crossing_pairs.add((e.curve_a, e.curve_b))
    for a, b in sorted(crossing_pairs):
        if not set(cp.walks[a]) & set(cp.walks[b]):
            raise InvariantError(f"curves {a!r}, {b!r} cross but walks are disjoint")


def check_outcome(check, plan, cp):
    try:
        check(plan, cp)
    except InvariantError as exc:
        return str(exc)
    return "ok"


def rebuilt(cp, **changes):
    """A new ColouredPlanarisation from cp's fields, some of them changed;
    a copy of cp would carry its cached graph."""
    fields = {name: getattr(cp, name) for name in (
        "embedding", "level", "psi", "walks", "endpoints", "sections", "phi")}
    return ColouredPlanarisation(**{**fields, **changes})


def corrupted_copies(plan, cp):
    """cp with psi dropping a vertex or sending it to an endpoint or to
    another contracted vertex, with a vertex moved into a walk, with a wrong
    level, and with the walks of a crossing pair made disjoint."""
    inner = sorted(set(cp.level) - cp.endpoints)
    for v in sorted(cp.psi)[::5]:
        yield rebuilt(cp, psi={u: x for u, x in cp.psi.items() if u != v})
        for x in (min(cp.endpoints), inner[0], inner[-1]):
            if cp.psi[v] != x:
                yield rebuilt(cp, psi={**cp.psi, v: x})
    for cid in sorted(cp.walks):
        for x in inner[::5]:
            walk = [y for y in cp.walks[cid] if y != x]
            for i in (1, len(walk) // 2):
                yield rebuilt(cp, walks={**cp.walks, cid: walk[:i] + [x] + walk[i:]})
    for x in inner:
        for level in (cp.level[x] - 1, cp.level[x] + 1):
            yield rebuilt(cp, level={**cp.level, x: level})
    for e in plan.events.values():
        a, b = e.curve_a, e.curve_b
        walk_b = [y for y in cp.walks[b] if y not in set(cp.walks[a])]
        yield rebuilt(cp, walks={**cp.walks, b: walk_b})


# a word from each outcome: a clean pass and each clause's error
CHECK_KINDS = ("ok", "do not cover", "not a singleton", "not its section",
               "level-defining", "escapes", "consecutive", "disjoint")


def test_walk_sets_check_matches_oracle(abstract_multicross, abstract_colouring):
    outcomes = set()
    cases = [(abstract_multicross, abstract_colouring)] + \
        [(gen_grounded(12, s), None) for s in range(2)]
    for scene, colouring in cases:
        p = Pipeline(scene, colouring)
        for bad in corrupted_copies(p.plan, p.cp):
            got = check_outcome(check_coloured_planarisation, p.plan, bad)
            assert got == check_outcome(oracle_check_coloured_planarisation, p.plan, bad)
            outcomes.update(k for k in CHECK_KINDS if k in got)
    assert outcomes == set(CHECK_KINDS)


def test_coloured_planarisation_refuses_a_broken_cut(monkeypatch, plus_sign,
                                                     plus_colouring):
    """coloured_planarisation's own checks of a cut, on cuts that
    colour_sections never gives: h has colour 1 and v colour 2, so only h's
    cut holds x.  The count check is reached by a construction that keeps
    the contracted end e:h:1 as a vertex of C^phi."""
    p = Pipeline(plus_sign, plus_colouring)
    x = p.plan.dummies()[0]

    def refusal(h_runs, v_runs):
        cut = {"h": (h_runs, set()), "v": (v_runs, {"h"})}
        with pytest.raises(InvariantError) as err:
            coloured_planarisation(p.plan, plus_colouring, cut)
        return str(err.value)

    assert refusal([range(0, 1)], [range(0, 1)]) == \
        f"sections not disjoint: {x!r} in sections of 'h' and 'v'"
    assert refusal([], []) == f"dummy {x!r} lies in no section"
    assert refusal([], [range(0, 1)]) == f"walk of 'h' visits {x!r} of level 2"
    # a run past the last crossing takes in the curve's end
    assert refusal([range(0, 2)], []) == "psi moved endpoint 'e:h:1'"
    check = planarise._check_contraction

    def kept_end(plan, cp):
        cp.embedding.rotation.setdefault("e:h:1", [])
        check(plan, cp)

    monkeypatch.setattr(planarise, "_check_contraction", kept_end)
    assert refusal([range(0, 2)], []) == "contraction count mismatch"


def oracle_coloured_embedding(plan, cut):
    """C^phi's embedding as the earlier code built it: a copy of C' with
    each section contracted edge by edge, representatives in sorted order."""
    g = copy.deepcopy(plan.embedding)
    runs = sorted((plan.curve_paths[cid][run.start + 1], cid, run)
                  for cid in plan.curve_paths for run in cut[cid][0])
    for _, cid, run in runs:
        for i in range(run.start + 1, run.stop):
            oracle_contract_edge(g, f"c:{cid}:{i}")
    return g


def assert_one_pass_matches_oracle(scene, colouring=None):
    """C^phi's rotation lists, ends, signatures and labels, the key order of
    each, and its Euler genus are those of the copy-and-contract oracle."""
    p = Pipeline(scene, colouring)
    want = oracle_coloured_embedding(p.plan, p.cut)
    assert state(p.cp.embedding) == state(want)
    assert p.genus == genus(want)


# name -> (scene builder, colouring builder or None for the greedy one):
# every fixture under the greedy colouring and under its own, and generated
# grounded and random scenes; with the drawn twist sets below, 91 scenes
ONE_PASS_SCENES = {
    **{f"{build.__name__}-greedy": (build, None) for build in corpus.FIXTURES},
    **{build.__name__: (build, colouring)
       for build, colouring in corpus.FIXTURES.items() if colouring is not None},
    **{f"grounded-{n}-{s}": (lambda n=n, s=s: gen_grounded(n, s), None)
       for n in (6, 12, 24, 48) for s in range(3)},
    **{f"random-{n}-{c}-{s}": (lambda n=n, c=c, s=s: gen_random(n, c, s), None)
       for n, c, s in ((6, 2, 0), (8, 3, 1), (12, 2, 2))},
}


@pytest.mark.parametrize("name", sorted(ONE_PASS_SCENES))
def test_one_pass_coloured_planarisation_matches_oracle(name):
    build, colouring = ONE_PASS_SCENES[name]
    assert_one_pass_matches_oracle(build(), colouring and colouring())


@st.composite
def twisted_abstract_scenes(draw):
    """An abstract fixture with a drawn twist set on every curve, under the
    greedy colouring or a drawn injective one, which is always ordered."""
    scene = draw(st.sampled_from([corpus.abstract_multicross, corpus.twisted_multicross,
                                  corpus.twisted_double_crossing]))()
    for cid, curve in scene.curves.items():
        arcs = st.integers(0, len(curve.crossings))
        scene.curves[cid] = curve._replace(twists=tuple(sorted(draw(st.sets(arcs)))))
    scene.validate()
    colouring = None
    if draw(st.booleans()):
        order = draw(st.permutations(sorted(scene.curves)))
        colouring = OrderedColouring({cid: i + 1 for i, cid in enumerate(order)}, len(order))
    return scene, colouring


@settings(derandomize=True, database=None, deadline=None, max_examples=64)
@given(twisted_abstract_scenes())
def test_one_pass_coloured_planarisation_matches_oracle_on_twists(case):
    assert_one_pass_matches_oracle(*case)


def oracle_planarise(p: Pipeline):
    """C' and its vertex kinds as the earlier code built them: each path
    edge added in turn, by curve and then by index, its darts appended at
    both ends; then the rotation at each crossing replaced by its
    chirality order."""
    kind, edges, rotation = {}, [], {}
    for cid, mine in p.along.items():
        path = [endpoint_id(cid, 0)] + [e.id for e in mine] + [endpoint_id(cid, 1)]
        kind[path[0]] = kind[path[-1]] = "endpoint"
        for e in mine:
            kind[e.id] = "dummy"
        twists = set(p.scene.curves[cid].twists)
        edges += [(f"c:{cid}:{i}", path[i], path[i + 1], -1 if i in twists else 1, cid)
                  for i in range(len(path) - 1)]
    for e in p.events:
        a, b = f"c:{e.curve_a}:", f"c:{e.curve_b}:"
        a_prev, a_next = (a + str(e.index_in_a), 1), (a + str(e.index_in_a + 1), 0)
        b_prev, b_next = (b + str(e.index_in_b), 1), (b + str(e.index_in_b + 1), 0)
        rotation[e.id] = ([a_next, b_next, a_prev, b_prev] if e.chirality == 1
                          else [a_next, b_prev, a_prev, b_next])
    return corpus.embedding(edges, rotation), kind


def assert_planarise_matches_oracle(scene):
    """C''s rotation lists, ends, signatures, labels and vertex kinds, the
    key order of each, are those of the incremental build."""
    p = Pipeline(scene)
    want, kind = oracle_planarise(p)
    assert state(p.plan.embedding) == state(want)
    assert list(p.plan.kind.items()) == list(kind.items())


@pytest.mark.parametrize("name", sorted(ONE_PASS_SCENES))
def test_one_pass_planarise_matches_oracle(name):
    assert_planarise_matches_oracle(ONE_PASS_SCENES[name][0]())


@settings(derandomize=True, database=None, deadline=None, max_examples=64)
@given(twisted_abstract_scenes())
def test_one_pass_planarise_matches_oracle_on_twists(case):
    assert_planarise_matches_oracle(case[0])


def test_coloured_planarisation_leaves_cprime_as_it_was():
    for scene in (corpus.twisted_multicross(), gen_grounded(24, 0)):
        p = Pipeline(scene)
        before = copy.deepcopy(p.plan.embedding)
        p.cp
        assert state(p.plan.embedding) == state(before)


@pytest.mark.parametrize("n", [6, 20, 24, 48])
def test_walk_index_check_matches_oracle(n):
    for seed in range(3):
        p = Pipeline(gen_grounded(n, seed))
        assert check_outcome(check_coloured_planarisation, p.plan, p.cp) == "ok"
        assert check_outcome(oracle_check_coloured_planarisation, p.plan, p.cp) == "ok"
