"""Scenes the tests share, as plain functions that need no pytest.

conftest.py turns the small scenes with known structure into fixtures, and
golden_outputs.py runs every CLI subcommand on them, on the degenerate
scenes below and on the malformed inputs of MALFORMED.
"""

from fractions import Fraction

from strandkit.colouring import OrderedColouring
from strandkit.geometry import Point, pt
from strandkit.scene import Curve, Disk, StringScene
from reference_json import point_to_json


def plus_sign() -> StringScene:
    """One horizontal and one vertical segment crossing once at the origin."""
    s = StringScene()
    s.curves["h"] = Curve("h", (pt(-2, 0), pt(2, 0)))
    s.curves["v"] = Curve("v", (pt(0, -2), pt(0, 2)))
    s.validate()
    return s


def plus_colouring() -> OrderedColouring:
    return OrderedColouring({"h": 1, "v": 2}, 2)


def outerstring_scene() -> StringScene:
    """Three curves grounded on one unit disk; intersection graph a-b-c path."""
    s = StringScene()
    s.disks["D"] = Disk("D", pt(0, 0), Fraction(1))
    s.curves["a"] = Curve(
        "a", (Point(Fraction(-3, 5), Fraction(4, 5)), Point(Fraction(-3, 5), Fraction(3))),
        grounded=("D", 0))
    s.curves["b"] = Curve(
        "b", (pt(0, 1), Point(Fraction(0), Fraction(3, 2)),
              Point(Fraction(-1), Fraction(3, 2))),
        grounded=("D", 0))
    s.curves["c"] = Curve(
        "c", (Point(Fraction(3, 5), Fraction(4, 5)),
              Point(Fraction(3, 5), Fraction(5, 4)),
              Point(Fraction(-1, 2), Fraction(5, 4))),
        grounded=("D", 0))
    s.validate()
    return s


def outerstring_colouring() -> OrderedColouring:
    return OrderedColouring({"a": 1, "c": 1, "b": 2}, 2)


def bigon_scene() -> StringScene:
    """u is crossed 4 times by v (twice removable as a bigon), once each by
    w1 and w2; z crosses only v."""
    s = StringScene()
    half = Fraction(1, 2)
    s.curves["u"] = Curve("u", (pt(0, 0), pt(10, 0)))
    s.curves["w1"] = Curve("w1", (pt(1, -1), pt(1, 1)))
    s.curves["w2"] = Curve("w2", (pt(9, -1), pt(9, 1)))
    s.curves["v"] = Curve("v", (
        pt(3, -1), Point(Fraction(3), half), Point(Fraction(4), half),
        Point(Fraction(4), -half), Point(Fraction(6), -half),
        Point(Fraction(6), half), Point(Fraction(8), half), pt(8, -2)))
    s.curves["z"] = Curve("z", (Point(Fraction(15, 2), -1),
                                Point(Fraction(17, 2), -1)))
    s.validate()
    return s


def abstract_multicross() -> StringScene:
    """Abstract scene: curve m (colour 3) crossed in the arc order
    [c4, c5, c1, c4, c2, c4, c5, c1, c2]; others sorted arbitrarily."""
    seq = ["c4", "c5", "c1", "c4", "c2", "c4", "c5", "c1", "c2"]
    xids = [f"x{i}" for i in range(len(seq))]
    s = StringScene()
    s.curves["m"] = Curve("m", None, tuple(xids))
    for other in sorted(set(seq)):
        mine = tuple(x for x, o in zip(xids, seq) if o == other)
        s.curves[other] = Curve(other, None, mine)
    for i, x in enumerate(xids):
        s.chirality[x] = 1 if i % 2 == 0 else -1
    s.validate()
    return s


def abstract_colouring() -> OrderedColouring:
    return OrderedColouring({"m": 3, "c1": 1, "c2": 2, "c4": 4, "c5": 5}, 5)


def twisted_multicross() -> StringScene:
    """abstract_multicross with a half-twist on arc 4 of m: Euler genus 5."""
    s = abstract_multicross()
    s.curves["m"] = s.curves["m"]._replace(twists=(4,))
    s.validate()
    return s


def twisted_double_crossing() -> StringScene:
    """Two abstract curves crossing twice with opposite signs, one arc of a
    twisted: the projective plane, Euler genus 1."""
    s = StringScene()
    s.curves["a"] = Curve("a", None, ("x0", "x1"), twists=(1,))
    s.curves["b"] = Curve("b", None, ("x0", "x1"))
    s.chirality = {"x0": 1, "x1": -1}
    s.validate()
    return s


def escaped_ids() -> StringScene:
    """outerstring_scene with ids that DOT and SVG must escape ('"', '<',
    '&', '>') and a non-ASCII one."""
    return renamed({"a": 'say "hi"', "b": "<b & c>", "c": "\u5f26"}, 'disk "D"')


def backslash_ids() -> StringScene:
    """outerstring_scene with ids that hold backslashes, which no quoted DOT
    id can always carry: one ends in a backslash, one holds a quote after
    one, and one a newline after one, beside '<', '&' and '>'."""
    return renamed({"a": "a\\", "b": 'b\\"c', "c": "<c & d>\\\n"}, "D\\")


def renamed(ids: dict, disk: str) -> StringScene:
    """outerstring_scene with each curve id a renamed to ids[a], and its
    disk renamed to disk."""
    base = outerstring_scene()
    s = StringScene()
    s.disks[disk] = base.disks["D"]._replace(id=disk)
    for cid, curve in base.curves.items():
        s.curves[ids[cid]] = curve._replace(id=ids[cid], grounded=(disk, 0))
    s.validate()
    return s


# fixture scene -> its colouring, or None
FIXTURES = {
    plus_sign: plus_colouring,
    outerstring_scene: outerstring_colouring,
    bigon_scene: None,
    abstract_multicross: abstract_colouring,
    twisted_multicross: abstract_colouring,
    twisted_double_crossing: None,
    escaped_ids: None,
    backslash_ids: None,
}


def segment(cid: str, p: tuple, q: tuple) -> dict:
    """The JSON of a straight curve between two integer points."""
    return {"id": cid, "points": [[[x, 1], [y, 1]] for x, y in (p, q)]}


def polyline(cid: str, *points) -> dict:
    """The JSON of a polyline through points given as ints or Fractions."""
    return {"id": cid, "points": [point_to_json(Point(Fraction(x), Fraction(y)))
                                  for x, y in points]}


# scene JSONs that the arrangement refuses, each for one kind of contact that
# is not a proper crossing, and valid scenes whose numbers an output cannot
# print: a crossing with more digits than Python prints, refused by arrange,
# and a coordinate beyond float range or one whose drawn position is,
# refused by planarise's SVG
DEGENERATE_SCENES = {
    "touch-at-bend": {"curves": [
        segment("a", (0, 0), (4, 0)), polyline("b", (1, 3), (2, 0), (3, 3))]},
    "touch-at-bend-rational": {"curves": [
        polyline("a", (0, 0), (1, Fraction(6, 7))),
        polyline("b", (0, 1), (Fraction(1, 3), Fraction(2, 7)), (1, 1))]},
    "endpoint-on-curve": {"curves": [
        segment("a", (0, 0), (4, 0)), segment("b", (2, 0), (2, 3))]},
    "endpoint-on-curve-rational": {"curves": [
        polyline("a", (Fraction(-1, 3), Fraction(-1, 5)), (1, Fraction(3, 5))),
        polyline("b", (Fraction(1, 3), Fraction(1, 5)), (Fraction(2, 3), -1))]},
    "collinear-overlap": {"curves": [
        segment("a", (0, 0), (4, 0)), segment("b", (2, 0), (6, 0))]},
    "collinear-end-to-end": {"curves": [
        segment("a", (0, 0), (2, 2)), segment("b", (2, 2), (4, 4))]},
    "collinear-end-to-end-rational": {"curves": [
        polyline("a", (Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1)),
        polyline("b", (Fraction(5, 2), Fraction(5, 3)), (Fraction(3, 2), 1))]},
    "triple-point": {"curves": [
        segment("a", (-2, 0), (2, 0)), segment("b", (0, -2), (0, 2)),
        segment("c", (-2, -2), (2, 2))]},
    "self-touching-polyline": {"curves": [
        polyline("a", (0, 0), (4, 0), (4, 2), (2, 2), (2, 0)),
        segment("b", (1, -1), (1, 1))]},
    "unprintable-crossing": {"curves": [
        polyline("a", (0, Fraction(1, 10 ** 2500 + 1)), (5, Fraction(3, 10 ** 2500 + 3))),
        polyline("b", (Fraction(1, 10 ** 2400 + 7), 2), (Fraction(4, 10 ** 2450 + 11), -1))]},
    "beyond-float-range": {"curves": [
        segment("a", (0, 0), (10 ** 400, 0)), segment("b", (1, -1), (1, 1))]},
    "drawn-beyond-float-range": {"curves": [
        segment("a", (0, 0), (10 ** 307, 0)), segment("b", (1, -1), (1, 1))]},
}


# case -> (scene JSON, colouring JSON or None) from a valid scene JSON, and
# the error it must report
MALFORMED = {
    "scene-array": (lambda scene: ([], None), "scene JSON must be an object"),
    "chirality-array": (lambda scene: ({**scene, "chirality": []}, None),
                        "chirality must be an object"),
    "colouring-array": (lambda scene: (scene, []),
                        "colouring JSON must be an object"),
    "duplicate-curve-id": (lambda scene: (
        {**scene, "curves": scene["curves"] + [{**scene["curves"][1], "id": "a"}]},
        None), "duplicate curve id 'a'"),
    "duplicate-disk-id": (lambda scene: (
        {**scene, "disks": scene["disks"] * 2}, None), "duplicate disk id 'D'"),
    "boundary-missing-curve": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "boundary": [["zz", 0]]}]},
        None), "boundary entry ['zz', 0] is not a curve end grounded"),
    "boundary-wrong-end": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "boundary": [["a", 1]]}]},
        None), "boundary entry ['a', 1] is not a curve end grounded"),
    "boundary-repeat": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0],
                             "boundary": [["a", 0], ["b", 0], ["a", 0]]}]},
        None), "boundary entry ['a', 0] repeats"),
    "non-string-curve-id": (lambda scene: (
        {**scene, "curves": scene["curves"] + [{**scene["curves"][1], "id": 1}]},
        None), "curve id 1 is not a string"),
    "non-string-disk-id": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "id": ["D"]}]},
        None), "disk id ['D'] is not a string"),
    "non-string-crossing-id": (lambda scene: (
        {"curves": [{"id": "a", "crossings": [["x"]]}, {"id": "b", "crossings": ["x"]}],
         "chirality": {"x": 1}}, None),
        "curve 'a': crossing id ['x'] is not a string"),
    # a grounded disk id is a string, like every other id
    **{f"grounded-disk-{kind}-{command}": (lambda scene, disk=disk: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": disk, "end": 0}},
                             *scene["curves"][1:]]}, None),
        f"curve 'a': grounded disk id {disk!r} is not a string", command)
       for kind, disk in (("list", ["D"]), ("object", {"id": "D"}))
       for command in ("arrange", "verify")},
    # a crossing sequence is a list, never a string split into characters
    **{f"crossings-string-{command}": (lambda scene: (
        {"curves": [{"id": "a", "crossings": "xy"}, {"id": "b", "crossings": ["x", "y"]}],
         "chirality": {"x": 1, "y": -1}}, None),
        "curve 'a': crossings must be a list of crossing ids", command)
       for command in ("arrange", "verify")},
    "boundary-unhashable-id": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "boundary": [[["a"], 0]]}]},
        None), "boundary entry [['a'], 0] is not a curve end grounded"),
    # integer fields take JSON integers only: no bool, float or string
    "colour-float": (lambda scene: (scene, {"a": 1.9, "b": 2, "c": 1}),
                     "colour of 'a' must be an integer, got 1.9"),
    "colour-string": (lambda scene: (scene, {"a": 1, "b": "2", "c": 1}),
                      "colour of 'b' must be an integer, got '2'"),
    "colour-bool": (lambda scene: (scene, {"a": True, "b": 2, "c": True}),
                    "colour of 'a' must be an integer, got True"),
    "grounded-end-float": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": "D", "end": 0.7}},
                             *scene["curves"][1:]]}, None),
        "curve 'a': grounded end must be an integer, got 0.7"),
    "grounded-end-string": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": "D", "end": "0"}},
                             *scene["curves"][1:]]}, None),
        "curve 'a': grounded end must be an integer, got '0'"),
    "boundary-end-float": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "boundary": [["a", 0.0]]}]},
        None), "disk 'D': boundary end must be an integer, got 0.0"),
    "twist-float": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x"], "twists": [0.5]},
                    {"id": "b", "crossings": ["x"]}], "chirality": {"x": 1}}, None),
        "curve 'a': twist index must be an integer, got 0.5"),
    # a bool is no integer in a coordinate or radius either, even where it
    # would load as the same value
    "point-numerator-bool": (lambda scene: (
        {**scene, "curves": [scene["curves"][0], {**scene["curves"][1], "points": [
            [[False, 1], [True, 1]], *scene["curves"][1]["points"][1:]]},
            *scene["curves"][2:]]}, None),
        "point coordinate must be an integer, got False"),
    "point-denominator-bool": (lambda scene: (
        {**scene, "curves": [scene["curves"][0], {**scene["curves"][1], "points": [
            scene["curves"][1]["points"][0], [[0, True], [3, 2]],
            *scene["curves"][1]["points"][2:]]}, *scene["curves"][2:]]}, None),
        "point coordinate must be an integer, got True"),
    "radius-numerator-bool": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "radius": [True, 1]}]}, None),
        "disk 'D': radius must be an integer, got True"),
    "radius-denominator-bool": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "radius": [1, True]}]}, None),
        "disk 'D': radius must be an integer, got True"),
    "chirality-float": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x"]}, {"id": "b", "crossings": ["x"]}],
         "chirality": {"x": 1.0}}, None),
        "chirality of 'x' must be an integer, got 1.0"),
    # a colouring names only curves of the scene, on every subcommand that
    # reads one; the third entry is the subcommand (default verify)
    **{f"colouring-unknown-curve-{command}": (
        lambda scene: (scene, {"a": 1, "b": 2, "c": 1, "zz": 7}),
        "colouring names curves not in the scene ['zz']", command)
       for command in ("decomp", "model", "outerstring", "planarise", "verify")},
    # the colour cut rejects a colouring under which two crossing curves
    # share a colour, naming both
    **{f"colouring-same-colour-{command}": (
        lambda scene: (scene, {"a": 1, "b": 1, "c": 2}),
        "not an ordered colouring: curves 'a' and 'b' cross and share colour 1",
        command)
       for command in ("decomp", "model", "outerstring", "planarise", "verify")},
    # a geometric curve is grounded on a disk with a centre and a radius:
    # a plus sign far from any disk, "grounded" on an abstract one
    **{f"geometric-curves-abstract-disk-{command}": (lambda scene: (
        {"curves": [{**segment("a", (9, 10), (11, 10)), "grounded": {"disk": "D", "end": 0}},
                    {**segment("b", (10, 9), (10, 11)), "grounded": {"disk": "D", "end": 0}}],
         "disks": [{"id": "D"}]}, None),
        "geometric curves with an abstract disk are not supported", command)
       for command in ("outerstring", "verify")},
    # and an abstract curve on a disk with a centre and a radius: three
    # abstract curves, the path a-b-c, grounded on the unit disk
    **{f"abstract-curves-geometric-disk-{command}": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x"], "grounded": {"disk": "D", "end": 0}},
                    {"id": "b", "crossings": ["x", "y"], "grounded": {"disk": "D", "end": 0}},
                    {"id": "c", "crossings": ["y"], "grounded": {"disk": "D", "end": 1}}],
         "disks": scene["disks"], "chirality": {"x": 1, "y": -1}}, None),
        "abstract curves with a geometric disk are not supported", command)
       for command in ("outerstring", "verify")},
    # localise emits an abstract scene, which cannot hold a curve that
    # crosses nothing
    "isolated-curve-localise": (lambda scene: (
        {"curves": [segment("a", (-1, 0), (1, 0)), segment("b", (0, -1), (0, 1)),
                    segment("c", (5, 5), (6, 5))]}, None),
        "curve 'c' crosses no other curve", "localise"),
    "no-crossing-localise": (lambda scene: (
        {"curves": [segment("a", (-1, 0), (1, 0)), segment("b", (-1, 1), (1, 1))]},
        None), "curve 'a' crosses no other curve", "localise"),
    # crossing ids and curve-end ids name the vertices of C' together: an
    # abstract crossing may not take the id of a curve end
    **{f"crossing-named-like-an-end-{command}": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["e:a:0", "y"]},
                    {"id": "b", "crossings": ["e:a:0", "y"]}],
         "chirality": {"e:a:0": 1, "y": -1}}, None),
        "crossing 'e:a:0' has the id of an end of curve 'a'", command)
       for command in ("planarise", "model", "decomp", "localise", "verify")},
    # curve ids with ':' under which two curve pairs format one crossing id
    **{f"crossing-id-twice-{command}": (lambda scene: (
        {"curves": [segment("a", (-1, 0), (1, 0)), segment("b:c", (0, -1), (0, 1)),
                    segment("a:b", (9, 0), (11, 0)), segment("c", (10, -1), (10, 1))]},
        None), "curve pairs ('a', 'b:c') and ('a:b', 'c') both give crossing id "
               "'x:a:b:c:0'", command)
       for command in ("arrange", "planarise", "model", "decomp", "localise", "verify")},
    # StringScene.validate's refusals, one case each, on the grounded
    # outerstring scene or a small abstract one
    "no-curves": (lambda scene: ({"curves": []}, None), "scene has no curves"),
    "neither-points-nor-crossings": (lambda scene: (
        {**scene, "curves": [{"id": "a"}, *scene["curves"][1:]]}, None),
        "curve 'a': exactly one of points/crossings required"),
    "twists-on-a-polyline": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "twists": [0]}, *scene["curves"][1:]]},
        None), "curve 'a': twists require abstract mode"),
    "grounded-unknown-disk": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": "E", "end": 0}},
                             *scene["curves"][1:]]}, None),
        "curve 'a' grounded on unknown disk 'E'"),
    "grounded-end-2": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": "D", "end": 2}},
                             *scene["curves"][1:]]}, None),
        "curve 'a': grounded end must be 0 or 1"),
    "mixed-geometric-abstract": (lambda scene: (
        {"curves": [segment("a", (0, 0), (1, 0)), {"id": "b", "crossings": ["x"]},
                    {"id": "c", "crossings": ["x"]}], "chirality": {"x": 1}}, None),
        "mixed geometric/abstract curves are not supported"),
    "one-point-polyline": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0],
                              "points": scene["curves"][0]["points"][:1]},
                             *scene["curves"][1:]]}, None),
        "curve 'a': polyline needs at least 2 points"),
    "closed-polyline": (lambda scene: (
        {"curves": [polyline("a", (0, 0), (2, 0), (1, 1), (0, 0)),
                    segment("b", (1, -1), (1, 2))]}, None),
        "curve 'a': endpoints coincide"),
    "repeated-crossing-id": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x", "x"]}, {"id": "b", "crossings": ["x"]}],
         "chirality": {"x": 1}}, None),
        "curve 'a': repeated crossing id in sequence"),
    "empty-crossing-sequence": (lambda scene: (
        {"curves": [{"id": "a", "crossings": []}, {"id": "b", "crossings": ["x"]}],
         "chirality": {"x": 1}}, None),
        "curve 'a': empty crossing sequence"),
    "twist-out-of-range": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x"], "twists": [2]},
                    {"id": "b", "crossings": ["x"]}], "chirality": {"x": 1}}, None),
        "curve 'a': twist index 2 out of range"),
    "crossing-on-one-curve": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x", "y"]}, {"id": "b", "crossings": ["x"]}],
         "chirality": {"x": 1, "y": 1}}, None),
        "crossing 'y' appears on 1 curves, expected 2"),
    "chirality-missing": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x"]}, {"id": "b", "crossings": ["x"]}]},
        None), "crossing 'x': chirality sign missing or not +-1"),
    "overlapping-disks": (lambda scene: (
        {**scene, "disks": scene["disks"] + [
            {"id": "E", "center": [[1, 1], [0, 1]], "radius": [1, 1]}]}, None),
        "disks 'D' and 'E' are not disjoint"),
    "zero-radius": (lambda scene: (
        {**scene, "disks": [{**scene["disks"][0], "radius": [0, 1]}]}, None),
        "disk 'D': radius must be positive"),
    "grounded-end-off-the-boundary": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "grounded": {"disk": "D", "end": 1}},
                             *scene["curves"][1:]]}, None),
        "curve 'a': grounded endpoint not on boundary of disk 'D'"),
    "curve-through-disk": (lambda scene: (
        {**scene, "curves": scene["curves"] + [segment("d", (-2, 0), (2, 0))]}, None),
        "curve 'd' enters interior of disk 'D'"),
    "colouring-misses-a-curve": (lambda scene: (scene, {"a": 1, "b": 2}),
                                 "colouring misses curves ['c']"),
    # localisation is for the plane: two curves crossing twice, one arc of
    # a twisted, lie in the projective plane
    "projective-plane-localise": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x0", "x1"], "twists": [1]},
                    {"id": "b", "crossings": ["x0", "x1"]}],
         "disks": [], "chirality": {"x0": 1, "x1": 1}}, None),
        "localise needs genus 0, got 1", "localise"),
    # an id holding a character XML 1.0 excludes: a lone surrogate, which
    # UTF-8 cannot encode, or a control character, which no SVG may hold
    "curve-id-surrogate": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "id": "a\ud800"}, *scene["curves"][1:]]},
        None), "curve id 'a\\ud800' holds a character no output file can carry"),
    "curve-id-control": (lambda scene: (
        {**scene, "curves": [{**scene["curves"][0], "id": "a\x01"}, *scene["curves"][1:]]},
        None), "curve id 'a\\x01' holds a character no output file can carry"),
    "crossing-id-vertical-tab": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x\x0b"]}, {"id": "b", "crossings": ["x\x0b"]}],
         "chirality": {"x\x0b": 1}}, None),
        "crossing id 'x\\x0b' holds a character no output file can carry"),
    "disk-id-noncharacter": (lambda scene: (
        {"curves": [{**c, "grounded": {"disk": "D\ufffe", "end": 0}} for c in scene["curves"]],
         "disks": [{**scene["disks"][0], "id": "D\ufffe"}]}, None),
        "disk id 'D\\ufffe' holds a character no output file can carry"),
}
