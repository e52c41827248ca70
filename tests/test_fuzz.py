"""Bounded, derandomised fuzzing of the CLI's exit-code contract.

Every run must end in 0 (ok), 1 (a certified check failed) or 2 (invalid
input) with one canonical JSON report on stdout, never in a traceback.
"""

import contextlib
import inspect
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.cli import main
from strandkit.decomp import _BOUNDS
from strandkit.families import gen_grounded
from strandkit.scene import StringScene, dump_scene

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)

SCENE = gen_grounded(6, 0)
CURVES = SCENE.curve_ids()

colours = st.integers(min_value=-2, max_value=10**6)
json_junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                      st.text(max_size=4), st.lists(st.integers(), max_size=2))
colouring_maps = st.one_of(
    # distinct colours: ordered colourings, with t up to 10^6
    st.permutations(range(1, len(CURVES) + 1)).map(lambda c: dict(zip(CURVES, c))),
    st.lists(st.integers(1, 10**6), min_size=len(CURVES), max_size=len(CURVES),
             unique=True).map(lambda c: dict(zip(CURVES, c))),
    st.fixed_dictionaries({cid: st.integers(1, 4) for cid in CURVES}),
    # missing, unknown or non-integer entries, or not an object at all
    st.dictionaries(st.sampled_from(CURVES + ["zz"]),
                    st.one_of(colours, json_junk), max_size=8),
    json_junk,
)

PARAM_NAMES = sorted({"t", "d", "c", "g", "delta", "m", "r", "ltw", "tw", "n",
                      "k", "x"})
param_values = st.one_of(st.integers(-3, 40), st.integers(-10**6, 10**12),
                         st.builds(lambda e: 2 ** e, st.integers(0, 9000)))


def run_cli(argv: list) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    report = json.loads(out.getvalue())
    assert code != 2 or report["kind"] == "invalid-input"
    return code


@FUZZ
@given(command=st.sampled_from(["verify", "model"]), colouring=colouring_maps)
def test_fuzz_colouring_files(command, colouring):
    with tempfile.TemporaryDirectory() as tmp:
        scene, col = Path(tmp) / "scene.json", Path(tmp) / "colouring.json"
        dump_scene(SCENE, scene)
        col.write_text(json.dumps(colouring))
        run_cli([command, "--in", str(scene), "--colouring", str(col)])


def theorem_params(theorem: str):
    """Either a value for each parameter the theorem's formula reads, so that
    the draw reaches evaluation, or any few parameter names."""
    names = (inspect.signature(_BOUNDS[theorem]).parameters if theorem in _BOUNDS
             else PARAM_NAMES)
    return st.one_of(
        st.fixed_dictionaries({name: param_values for name in names}),
        st.dictionaries(st.sampled_from(PARAM_NAMES), param_values, max_size=6))


@FUZZ
@given(theorem=st.sampled_from(sorted(_BOUNDS) + ["no-such-theorem"]), data=st.data())
def test_fuzz_bounds(theorem, data):
    params = data.draw(theorem_params(theorem))
    argv = ["bounds", "--theorem", theorem, "--params"]
    argv += [f"{k}={v}" for k, v in sorted(params.items())]
    assert run_cli(argv) in (0, 2)


# ------------------------------------------------------------ whole scene files

SCENE_COMMANDS = ["arrange", "planarise", "model", "decomp", "outerstring",
                  "localise", "verify"]


def point_json(x, y) -> list:
    return [[x.numerator, x.denominator], [y.numerator, y.denominator]]


@st.composite
def grounded_scenes(draw):
    """2-4 curves rooted on the unit disk, as gen_grounded draws them: a
    riser from a rational point of the upper semicircle to a height of its
    own, a run sideways, and sometimes a hook at a second height."""
    n = draw(st.integers(2, 4))
    heights = draw(st.permutations(range(1, n + 1)))
    curves = []
    for i in range(n):
        u = Fraction(i + 1, n + 2)
        x0, y0 = -(1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
        h = 2 + Fraction(heights[i], n + 1)
        tx = draw(st.integers(-2, 2)) + Fraction(i + 1, 4 * n + 5)
        points = [point_json(x0, y0), point_json(x0, h), point_json(tx, h)]
        if draw(st.booleans()):
            h2 = h + Fraction(draw(st.integers(1, 3)), (n + 1) * (4 * n + 3))
            bx = draw(st.integers(-2, 2)) + Fraction(i + 1, 4 * n + 7)
            points += [point_json(tx, h2), point_json(bx, h2)]
        curves.append({"id": f"s{i}", "points": points,
                       "grounded": {"disk": "D", "end": 0}})
    disk = {"id": "D", "center": point_json(Fraction(0), Fraction(0)),
            "radius": [1, 1]}
    return {"curves": curves, "disks": [disk]}


@st.composite
def abstract_scenes(draw):
    """2-4 curves given by crossing sequences: a path of crossings so that
    no curve is bare, up to 4 more crossings, signs and twists."""
    n = draw(st.integers(2, 4))
    ids = [f"c{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=4))
    seqs: dict = {cid: [] for cid in ids}
    chirality = {}
    for m, (a, b) in enumerate(pairs):
        seqs[ids[a]].append(f"x{m}")
        seqs[ids[b]].append(f"x{m}")
        chirality[f"x{m}"] = draw(st.sampled_from([1, -1]))
    curves = []
    for cid in ids:
        entry = {"id": cid, "crossings": draw(st.permutations(seqs[cid]))}
        twists = draw(st.lists(st.integers(0, len(seqs[cid])), max_size=2, unique=True))
        if twists:
            entry["twists"] = sorted(twists)
        curves.append(entry)
    return {"curves": curves, "disks": [], "chirality": chirality}


def json_paths(value, at=()):
    """Every position in a JSON value, the root included."""
    yield at
    if isinstance(value, dict):
        for key in sorted(value):
            yield from json_paths(value[key], at + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, at + (i,))


def put(value, at, new):
    """A copy of value with the position at replaced by new."""
    if not at:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[at[0]] = put(value[at[0]], at[1:], new)
    return out


any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)


@st.composite
def scene_files(draw):
    """(scene JSON, whether one field was replaced by arbitrary JSON)."""
    scene = draw(grounded_scenes() | abstract_scenes())
    if not draw(st.booleans()):
        return scene, False
    at = draw(st.sampled_from(list(json_paths(scene))))
    return put(scene, at, draw(any_json)), True


@settings(derandomize=True, database=None, deadline=None, max_examples=70)
@given(command=st.sampled_from(SCENE_COMMANDS), drawn=scene_files())
def test_fuzz_scene_files(command, drawn):
    scene, broken = drawn
    if not broken:
        StringScene.from_json(scene).validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(scene))
        argv = [command, "--in", str(path)]
        if command != "verify":
            argv += ["--out", str(Path(tmp) / "out")]
        if command in ("arrange", "planarise", "decomp", "outerstring"):
            argv += ["--format", "json,dot,svg,td"]
        run_cli(argv)
