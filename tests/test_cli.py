import argparse
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import pytest

import strandkit
from strandkit.cli import FAMILIES, main
from strandkit.decomp import _BOUNDS
from strandkit.embedding import EmbeddedGraph
from strandkit.errors import InvariantError
from strandkit.families import gen_grounded
from strandkit.geometry import pt
from strandkit.planarise import endpoint_id
from strandkit.scene import Curve, StringScene, dump_scene, load_scene
from corpus import DEGENERATE_SCENES, MALFORMED, escaped_ids
from reference_json import scene_to_json
from golden_outputs import MANIFEST, gen_key

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scene_file(tmp_path, bigon_scene):
    path = tmp_path / "scene.json"
    dump_scene(bigon_scene, path)
    return str(path)


@pytest.fixture
def grounded_file(tmp_path, outerstring_scene):
    path = tmp_path / "grounded.json"
    dump_scene(outerstring_scene, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_arrange(capsys, scene_file, tmp_path):
    out = tmp_path / "out"
    code, rep = run(capsys, "arrange", "--in", scene_file, "--out", str(out),
                    "--format", "json,dot")
    assert code == 0
    assert rep["curves"] == 5 and rep["events"] == 7
    assert (out / "events.json").exists()
    assert (out / "graph.dot").read_text().startswith("graph")


def test_planarise(capsys, scene_file, tmp_path):
    out = tmp_path / "out"
    code, rep = run(capsys, "planarise", "--in", scene_file, "--out", str(out),
                    "--format", "json,dot,svg")
    assert code == 0
    assert rep["genus"] == 0
    assert (out / "coloured.json").exists()
    assert (out / "scene.svg").read_text().startswith("<svg")


def test_colour(capsys, scene_file):
    code, rep = run(capsys, "colour", "--in", scene_file)
    assert code == 0
    assert set(rep["params"]) == {"t", "d", "k", "r"}


def test_model(capsys, scene_file, tmp_path):
    out = tmp_path / "out"
    code, rep = run(capsys, "model", "--in", scene_file, "--out", str(out))
    assert code == 0
    assert rep["ok"] and rep["check"]["valid"]
    assert (out / "model.json").exists()


def test_custom_colouring(capsys, grounded_file, tmp_path):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"a": 1, "c": 1, "b": 2}))
    code, rep = run(capsys, "outerstring", "--in", grounded_file,
                    "--colouring", str(col), "--out", str(tmp_path / "o"),
                    "--format", "json,td")
    assert code == 0
    assert rep["t"] == 2 and rep["width"] <= rep["bound"]
    pace = (tmp_path / "o" / "td.td").read_text()
    assert pace.startswith("s td ")


def test_decomp(capsys, scene_file, tmp_path):
    code, rep = run(capsys, "decomp", "--in", scene_file,
                    "--out", str(tmp_path / "d"))
    assert code == 0
    assert rep["layered_width"] <= rep["layered_width_bound"]
    assert rep["width"] >= rep["exact_treewidth"]


def test_localise(capsys, monkeypatch, scene_file, tmp_path):
    code, rep = run(capsys, "localise", "--in", scene_file,
                    "--out", str(tmp_path / "l"))
    assert code == 0
    assert rep["crossings_after"] <= rep["crossings_before"]
    assert (tmp_path / "l" / "reduced.json").exists()
    # its output is abstract, so localising it again reads C^phi's genus
    calls = count_stage_calls(monkeypatch)
    code, _ = run(capsys, "localise", "--in", str(tmp_path / "l" / "scene.json"))
    assert code == 0 and calls["coloured_planarisation"] == 1


def test_gen_and_verify(capsys, tmp_path):
    out = tmp_path / "g"
    code, rep = run(capsys, "gen", "--family", "grounded", "--params", "n=5",
                    "--seed", "4", "--out", str(out))
    assert code == 0 and rep["curves"] == 5
    code, rep = run(capsys, "verify", "--in", str(out / "scene.json"))
    assert code == 0
    assert rep["ok"] and rep["checks"]["outerstring"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_gen_family_is_readable(capsys, tmp_path, family):
    """Each family's default gen output is a scene that verify reads."""
    code, rep = run(capsys, "gen", "--family", family, "--out", str(tmp_path))
    assert code == 0 and rep["curves"] >= 1
    code, rep = run(capsys, "verify", "--in", str(tmp_path / "scene.json"))
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("function", [
    *(_BOUNDS[theorem] for theorem in sorted(_BOUNDS)),
    *(FAMILIES[family][0] for family in sorted(FAMILIES))])
def test_parameter_names_read_from_code_match_the_signature(function):
    """bounds reads each formula's parameter names, and gen whether a
    generator takes a seed, from the function's code object: its first
    co_argcount local names, which are the signature's while every
    parameter is positional-or-keyword."""
    code = function.__code__
    parameters = inspect.signature(function).parameters
    assert code.co_varnames[:code.co_argcount] == tuple(parameters)
    assert {p.kind for p in parameters.values()} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("family", ["convex", "rectangles", "grid-disk"])
def test_gen_convex_set_family_exit_2(capsys, tmp_path, family):
    """The convex-set families are test helpers, not gen families."""
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", family, "--out", str(tmp_path / "g")])
    assert info.value.code == 2
    assert f"invalid choice: '{family}'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# gen runs whose stdout and scene.json digests the byte manifest pins
GEN_PINNED = [
    ("segment", "t=1", 0), ("segment", "t=2", 0), ("segment", "t=3", 0),
    ("random", "n=6", 0), ("random", "n=6", 1),
    ("random", "n=8 crossings_per_pair=3", 0),
    ("grounded", "n=6", 0), ("grounded", "n=6", 1),
    ("grounded", "n=24", 0), ("grounded", "n=24", 1),
]


@pytest.mark.parametrize("family, params, seed", sorted(GEN_PINNED),
                         ids=lambda v: str(v).replace(" ", ","))
def test_gen_bytes_pinned(capsys, tmp_path, family, params, seed):
    code = main(["gen", "--family", family, "--params", *params.split(),
                 "--seed", str(seed), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    pinned = json.loads(MANIFEST.read_text())["gen"][gen_key(family, params, seed)]
    assert code == pinned["exit"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned["stdout"]
    assert hashlib.sha256((tmp_path / "scene.json").read_bytes()).hexdigest() \
        == pinned["files"]["scene.json"]


def test_gen_one_curve_exit_2(capsys, tmp_path):
    """One curve crosses nothing, so n < 2 is refused by its own message
    before any candidate is tried."""
    for family in ("grounded", "random"):
        code, rep = run(capsys, "gen", "--family", family, "--params", "n=1",
                        "--out", str(tmp_path / family))
        assert code == 2 and rep == {"error": "need at least 2 curves, got n=1",
                                     "kind": "invalid-input"}
        assert not (tmp_path / family).exists()


def test_bounds_command(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "planar-outerstring",
                    "--params", "t=3", "d=2")
    assert code == 0 and rep["value"] == 23


def test_bad_theorem_exit_2(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "bogus")
    assert code == 2 and rep["kind"] == "invalid-input"


def test_degenerate_scene_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"curves": [
        {"id": "a", "points": [[[0, 1], [0, 1]], [[4, 1], [0, 1]]]},
        {"id": "b", "points": [[[2, 1], [0, 1]], [[2, 1], [3, 1]]]}]}))
    code, rep = run(capsys, "arrange", "--in", str(bad))
    assert code == 2 and rep["kind"] == "invalid-input"


# (scene, argv that cannot print one of its numbers, its error, argv that
# prints the same scene)
UNPRINTABLE = {
    "unprintable-crossing": (["arrange", "--format", "json,dot"],
                             "crossing 'x:a:b:0': its location has more digits "
                             f"than Python prints ({sys.get_int_max_str_digits()})",
                             ["localise"]),
    "beyond-float-range": (["planarise", "--format", "json,svg"],
                           "curve 'a': a coordinate is beyond float range, "
                           "so SVG cannot draw it", ["planarise", "--format", "json"]),
    "drawn-beyond-float-range": (["planarise", "--format", "json,svg"],
                                 "curve 'a': a drawn number is beyond float range, "
                                 "so SVG cannot draw it", ["planarise", "--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(UNPRINTABLE))
def test_unprintable_number_exit_2(capsys, tmp_path, name):
    """An output that cannot print a number of a valid scene refuses it,
    naming the crossing or the curve; other outputs of the scene print."""
    failing, error, printing = UNPRINTABLE[name]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(DEGENERATE_SCENES[name]))
    for argv in ([*failing, "--out", str(tmp_path / "a")], failing):
        code, rep = run(capsys, *argv, "--in", str(path))
        assert (code, rep) == (2, {"error": error, "kind": "invalid-input"})
    code, rep = run(capsys, *printing, "--in", str(path), "--out", str(tmp_path / "b"))
    assert code == 0
    code, rep = run(capsys, "verify", "--in", str(path))
    assert code == 0


def test_missing_file_exit_2(capsys, tmp_path):
    code, rep = run(capsys, "arrange", "--in", str(tmp_path / "nope.json"))
    assert code == 2


def test_missing_colouring_file_exit_2(capsys, grounded_file, tmp_path):
    missing = tmp_path / "nope.json"
    code, rep = run(capsys, "verify", "--in", grounded_file, "--colouring", str(missing))
    assert (code, rep) == (2, {"error": f"colouring file not found: {missing}",
                               "kind": "invalid-input"})


def test_refused_output_writes_no_files(capsys, tmp_path):
    """planarise builds its SVG last; refusing it leaves no --out, not the
    JSON and DOT files built before it."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(DEGENERATE_SCENES["drawn-beyond-float-range"]))
    out = tmp_path / "out"
    code, rep = run(capsys, "planarise", "--in", str(path), "--out", str(out),
                    "--format", "json,svg")
    assert code == 2 and rep["kind"] == "invalid-input"
    assert not out.exists()


def test_failed_check_writes_no_files(capsys, monkeypatch, grounded_file, tmp_path):
    """A check that fails after planarisation.json is built leaves no --out."""
    def broken(original):
        def check(*args):
            raise InvariantError("C^phi lost a level")
        return check

    patch_everywhere(monkeypatch, "check", "check_coloured_planarisation", broken)
    out = tmp_path / "out"
    code, rep = run(capsys, "planarise", "--in", grounded_file, "--out", str(out))
    assert (code, rep) == (1, {"error": "C^phi lost a level", "kind": "check-failure"})
    assert not out.exists()


def test_dot_and_svg_escape_ids(capsys, tmp_path):
    """On ids holding '"', '<', '&' and '>' and a non-ASCII id, each DOT id
    is one quoted string with '\\"' for '"', and scene.svg parses as XML
    with each curve id as the text of its <title>."""
    scene = escaped_ids()
    path = tmp_path / "scene.json"
    dump_scene(scene, path)
    out = tmp_path / "out"
    for command, fmt in [("arrange", "json,dot"), ("planarise", "json,dot,svg")]:
        code, _ = run(capsys, command, "--in", str(path), "--out", str(out), "--format", fmt)
        assert code == 0
    curves = set(scene.curves)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    for name in ("graph.dot", "planarisation.dot", "coloured.dot"):
        text = (out / name).read_text(encoding="utf-8")
        assert '"' not in quoted.sub("", text)
        ids = {s.replace('\\"', '"') for s in quoted.findall(text)}
        if name == "graph.dot":
            assert ids == curves
        else:       # the edge labels and the curve-end vertices
            assert ids > curves | {endpoint_id(cid, end) for cid in curves for end in (0, 1)}
    svg = xml.dom.minidom.parse(str(out / "scene.svg"))
    assert [t.firstChild.data for t in svg.getElementsByTagName("title")] == \
        scene.curve_ids()


def test_failed_invariant_exit_1(capsys, monkeypatch, grounded_file):
    """A stage that finds a broken invariant is a check failure, exit 1."""
    def broken(original):
        def planarise(*args):
            raise InvariantError("planarisation lost a crossing")
        return planarise

    patch_everywhere(monkeypatch, "planarise", "planarise", broken)
    code = main(["planarise", "--in", grounded_file])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"error": "planarisation lost a crossing",
                               "kind": "check-failure"}
    assert "Traceback" not in out + err


def test_invalid_model_exit_1(capsys, monkeypatch, grounded_file):
    """model reports a minor model that fails its check with ok false, exit 1."""
    invalid = {"valid": False, "violated_clause": "branch sets touch"}
    monkeypatch.setattr(strandkit.cli, "verify_model", lambda model, graph: invalid)
    code, rep = run(capsys, "model", "--in", grounded_file)
    assert code == 1
    assert rep["ok"] is False and rep["check"] == invalid


def test_out_is_a_file_exit_2(capsys, grounded_file, tmp_path):
    """An --out path that names an existing file is invalid input, reported
    without a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["arrange", "--in", grounded_file, "--out", str(taken)])
    out, err = capsys.readouterr()
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "invalid-input"
    assert report["error"].startswith("FileExistsError: ")
    assert "Traceback" not in out + err
    assert taken.read_text() == ""


def test_out_target_not_a_file_writes_nothing(capsys, grounded_file, tmp_path):
    """An --out whose graph.json is a directory is invalid input, found
    before the first write: events.json is not written either."""
    out = tmp_path / "o"
    (out / "graph.json").mkdir(parents=True)
    code, rep = run(capsys, "arrange", "--in", grounded_file, "--out", str(out))
    assert (code, rep) == (2, {"error": f"--out target is not a file: {out / 'graph.json'}",
                               "kind": "invalid-input"})
    assert sorted(p.name for p in out.iterdir()) == ["graph.json"]
    assert not (out / "events.json").exists()


# a run that prints its report, and one that prints an error report
REPORT_AND_ERROR = [["bounds", "--theorem", "planar-radius-tw", "--params", "r=1"],
                    ["bounds", "--theorem", "nope"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", REPORT_AND_ERROR)
def test_unwritable_stdout_exit_2(argv, unbuffered):
    """A report, or an error report, that stdout cannot take exits 2 with
    one line on stderr and no traceback.  A block-buffered stdout fails in
    the flush, and the flush at exit must not fail again (exit 120)."""
    src = str(Path(strandkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "strandkit.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "strandkit: cannot write the report: " \
        "[Errno 28] No space left on device\n"


class FullStream(io.StringIO):
    """A block-buffered stdout on a full disk: write takes the text, and
    flush fails."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", REPORT_AND_ERROR)
def test_unwritable_stdout_exit_2_in_process(capsys, monkeypatch, tmp_path, argv):
    """The same refusal with main called in this process, on a stdout
    whose flush fails; its file descriptor then points at the null device."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FullStream(fd))
        assert main(argv) == 2
        assert capsys.readouterr().err == "strandkit: cannot write the report: " \
            "[Errno 28] No space left on device\n"
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_bad_params_exit_2(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "localised",
                    "--params", "delta")
    assert code == 2


@pytest.mark.parametrize("argv", [["bounds", "--theorem", "localised"],
                                  ["gen", "--family", "segment"]])
def test_non_integer_param_exit_2(capsys, argv):
    code, rep = run(capsys, *argv, "--params", "t=abc")
    assert code == 2 and rep == {
        "error": "--params value of 't' must be an integer, got 'abc'",
        "kind": "invalid-input"}


def test_overlong_integer_param_exit_2(capsys):
    """An integer longer than Python's int-from-string limit is named by its
    key, and its digits are not echoed."""
    code, rep = run(capsys, "bounds", "--theorem", "localised",
                    "--params", "delta=" + "1" * 5000)
    assert code == 2 and rep["kind"] == "invalid-input"
    assert rep["error"].startswith("--params value of 'delta' has more digits "
                                   "than Python reads")
    assert len(rep["error"]) < 200


@pytest.mark.parametrize("command", ["arrange", "planarise", "decomp", "outerstring"])
def test_unknown_format_exit_2(capsys, grounded_file, tmp_path, command):
    code, rep = run(capsys, command, "--in", grounded_file,
                    "--out", str(tmp_path / "o"), "--format", "jsn,tdd")
    assert code == 2 and rep == {
        "error": "unknown --format 'jsn'; known: dot, json, svg, td",
        "kind": "invalid-input"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, params, error", [
    ("grounded", ["N=128"], "family 'grounded' takes n, got N"),
    ("random", ["n=4", "cap=1"], "family 'random' takes crossings_per_pair, n, got cap"),
    ("segment", ["t=2", "n=3", "d=1"], "family 'segment' takes t, got d, n"),
    ("random", ["crossings_per_pair=0"], "crossings_per_pair must be >= 1"),
    ("random", ["crossings_per_pair=-1"], "crossings_per_pair must be >= 1"),
], ids=["grounded", "random", "segment", "random-cap-0", "random-cap-negative"])
def test_unknown_gen_param_exit_2(capsys, tmp_path, family, params, error):
    code, rep = run(capsys, "gen", "--family", family, "--params", *params,
                    "--out", str(tmp_path / "g"))
    assert code == 2 and rep == {"error": error, "kind": "invalid-input"}
    assert not (tmp_path / "g").exists()


def test_unread_bound_parameter_exit_2(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "planar-outerstring",
                    "--params", "t=3", "d=2", "g=5")
    assert code == 2 and rep == {
        "error": "theorem 'planar-outerstring' takes d, t, got g",
        "kind": "invalid-input"}


# a file that is not JSON: cut short, not UTF-8, or nested past the parser
@pytest.mark.parametrize("text", [b'{"a": 1', b"\xff{}", b"[" * 100000],
                         ids=["cut-short", "not-utf8", "too-deep"])
@pytest.mark.parametrize("role", ["scene", "colouring"])
def test_file_not_json_exit_2(capsys, grounded_file, tmp_path, role, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    argv = ["verify", "--in", str(bad)] if role == "scene" else \
        ["verify", "--in", grounded_file, "--colouring", str(bad)]
    code, rep = run(capsys, *argv)
    assert code == 2 and rep["kind"] == "invalid-input"
    assert rep["error"].startswith(f"{role} file is not valid JSON: ")


def test_reports_byte_identical(capsys, scene_file, tmp_path):
    code1 = main(["colour", "--in", scene_file])
    out1 = capsys.readouterr().out
    code2 = main(["colour", "--in", scene_file])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_built_once(capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, *a: (
        parsers.append(self) or real(self, *a)))
    assert run(capsys, "bounds", "--theorem", "planar-outerstring",
               "--params", "t=3", "d=2") == (0, {"command": "bounds",
                                                 "theorem": "planar-outerstring",
                                                 "params": {"d": 2, "t": 3},
                                                 "value": 23})
    code, rep = run(capsys, "bounds", "--theorem", "planar-outerstring")
    assert code == 2 and rep["kind"] == "invalid-input"
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["bounds"])
        assert info.value.code == 2
        assert "the following arguments are required: --theorem" in \
            capsys.readouterr().err
    assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)


def test_negative_bound_parameter_exit_2(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "localised",
                    "--params", "delta=-1")
    assert code == 2 and rep["kind"] == "invalid-input"


def test_oversized_bound_exit_2(capsys):
    code, rep = run(capsys, "bounds", "--theorem", "rtw-main",
                    "--params", "r=1000000000", "c=1", "g=0")
    assert code == 2 and rep["kind"] == "invalid-input"
    assert "more than 8192 bits" in rep["error"]


def ladder_scene():
    """a and b horizontal, c vertical across both: c has two smaller-colour
    neighbours under the colouring below."""
    s = StringScene()
    s.curves["a"] = Curve("a", (pt(0, 0), pt(4, 0)))
    s.curves["b"] = Curve("b", (pt(0, 2), pt(4, 2)))
    s.curves["c"] = Curve("c", (pt(2, -1), pt(2, 3)))
    s.validate()
    return s


@pytest.mark.parametrize("command", ["verify", "model", "decomp"])
def test_huge_colour_weak_diameter_exit_2(capsys, tmp_path, command):
    scene = tmp_path / "scene.json"
    dump_scene(ladder_scene(), scene)
    col = tmp_path / "colouring.json"
    col.write_text(json.dumps({"a": 1, "b": 2, "c": 16000}))
    start = time.perf_counter()
    code = main([command, "--in", str(scene), "--colouring", str(col)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "invalid-input"
    assert "'weak-diameter'" in report["error"]
    assert "more than 8192 bits" in report["error"]
    assert "Traceback" not in out + err
    assert elapsed < 1


def patch_everywhere(monkeypatch, home: str, name: str, make) -> None:
    """Replace strandkit.<home>.<name> by make(original) at every strandkit
    module that binds it."""
    original = getattr(importlib.import_module(f"strandkit.{home}"), name)
    wrapper = make(original)
    for info in pkgutil.iter_modules(strandkit.__path__):
        mod = importlib.import_module(f"strandkit.{info.name}")
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


def count_stage_calls(monkeypatch) -> dict:
    """Count calls of the stage builders, patched at every strandkit module
    that binds them."""
    calls = {}
    for home, name in [("arrangement", "compute_arrangement"),
                       ("arrangement", "events_by_curve"),
                       ("colouring", "colour_sections"),
                       ("planarise", "planarise"),
                       ("planarise", "coloured_planarisation"),
                       ("colouring", "compute_params")]:

        def make(original, _name=name):
            def counted(*args, **kwargs):
                calls[_name] += 1
                return original(*args, **kwargs)
            return counted

        calls[name] = 0
        patch_everywhere(monkeypatch, home, name, make)
    return calls


# subcommand -> its --format and the Pipeline stages it reads besides the
# arrangement
SCENE_COMMANDS = {
    "arrange": ("json,dot", set()),
    "planarise": ("json,dot,svg", {"along", "cut", "plan", "cp"}),
    "colour": (None, {"along", "cut", "params"}),
    "model": (None, {"along", "cut", "plan", "cp", "params"}),
    "decomp": ("json,td", {"along", "cut", "plan", "cp", "params"}),
    "outerstring": ("json,td", {"along", "cut", "plan", "cp", "params"}),
    "localise": (None, {"along"}),
    "verify": (None, {"along", "cut", "plan", "cp", "params"}),
}


@pytest.mark.parametrize("command", sorted(SCENE_COMMANDS))
def test_each_stage_built_once(capsys, monkeypatch, grounded_file, tmp_path,
                               command):
    """Each op builds each stage it reads once: one arrangement, one arc
    order along every curve, and one colour cut per curve."""
    fmt, stages = SCENE_COMMANDS[command]
    big = tmp_path / "grounded20.json"
    dump_scene(gen_grounded(20, 1), big)
    for path, curves in [(grounded_file, 3), (str(big), 20)]:
        calls = count_stage_calls(monkeypatch)
        argv = [command, "--in", path]
        if command != "verify":
            argv += ["--out", str(tmp_path / "o")]
        if fmt:
            argv += ["--format", fmt]
        code, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"compute_arrangement": 1,
                         "events_by_curve": int("along" in stages),
                         "colour_sections": curves * ("cut" in stages),
                         "planarise": int("plan" in stages),
                         "coloured_planarisation": int("cp" in stages),
                         "compute_params": int("params" in stages)}
        monkeypatch.undo()


def test_runs_without_networkx(tmp_path):
    """networkx is a test dependency only: with it unimportable, every scene
    subcommand and bounds exit 0 on gen_grounded(12, 1)."""
    script = f"""
import sys
sys.modules["networkx"] = None
from strandkit.cli import main
from strandkit.families import gen_grounded
from strandkit.scene import dump_scene
dump_scene(gen_grounded(12, 1), {str(tmp_path / "scene.json")!r})
codes = {{}}
for command, fmt in {dict((c, f) for c, (f, _) in SCENE_COMMANDS.items())!r}.items():
    argv = [command, "--in", {str(tmp_path / "scene.json")!r}]
    if command != "verify":
        argv += ["--out", {str(tmp_path)!r} + "/" + command]
    codes[command] = main(argv + (["--format", fmt] if fmt else []))
codes["bounds"] = main(["bounds", "--theorem", "planar-outerstring",
                        "--params", "t=3", "d=2"])
print(codes, file=sys.stderr)
sys.exit(any(codes.values()))
"""
    src = str(Path(strandkit.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Traceback" not in done.stderr


def test_files_read_and_written_as_utf8(tmp_path):
    """With an open() that names no encoding made an error, gen and every
    scene subcommand, with --out (verify with --colouring), exit 0 on the
    scene with a non-ASCII id."""
    script = f"""
import sys
from corpus import escaped_ids
from strandkit.cli import main
from strandkit.scene import dump_scene
work = {str(tmp_path)!r}
dump_scene(escaped_ids(), work + "/scene.json")
codes = {{"gen": main(["gen", "--family", "grounded", "--out", work + "/gen"])}}
# colour runs before verify, which reads its colouring.json
for command, fmt in {dict((c, f) for c, (f, _) in SCENE_COMMANDS.items())!r}.items():
    argv = [command, "--in", work + "/scene.json"]
    if command == "verify":
        argv += ["--colouring", work + "/colour/colouring.json"]
    else:
        argv += ["--out", work + "/" + command]
    codes[command] = main(argv + (["--format", fmt] if fmt else []))
print(codes, file=sys.stderr)
sys.exit(any(codes.values()))
"""
    path = os.pathsep.join([str(Path(strandkit.__file__).parents[1]), str(ROOT / "tests")])
    done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Traceback" not in done.stderr


def record_searches(monkeypatch) -> dict:
    """Record every graph search as (graph, sorted sources), every simple
    graph built from an embedding and every face trace as the embedding,
    the embedding of each C' (cprime), each C^phi, and the (graph, BFS tree)
    of each radius decomposition.  Graphs are kept alive, so their ids stay
    distinct."""
    rec = {"bfs": [], "builds": [], "faces": [], "cprime": [], "cphi": [],
           "radius": []}

    def one_source(original):           # bfs_tree(g, root)
        return lambda g, root: rec["bfs"].append((g, (root,))) or original(g, root)

    def many_sources(original):         # bfs_distances, ball_masks (g, sources)
        def search(g, sources):
            sources = list(sources)
            rec["bfs"].append((g, tuple(sorted(set(sources)))))
            return original(g, sources)
        return search

    def built(key):
        def make(original):
            def build(*args):
                result = original(*args)
                rec[key].append(result)
                return result
            return build
        return make

    patch_everywhere(monkeypatch, "graph", "bfs_tree", one_source)
    patch_everywhere(monkeypatch, "graph", "bfs_distances", many_sources)
    patch_everywhere(monkeypatch, "graph", "ball_masks", many_sources)
    patch_everywhere(monkeypatch, "planarise", "planarise", built("cprime"))
    patch_everywhere(monkeypatch, "planarise", "coloured_planarisation", built("cphi"))
    patch_everywhere(monkeypatch, "decomp", "radius_decomposition",
                     lambda original: lambda g, tree: (
                         rec["radius"].append((g, tree)) or original(g, tree)))
    for method, key in [("simple_graph", "builds"), ("trace_faces", "faces")]:
        real = getattr(EmbeddedGraph, method)
        monkeypatch.setattr(EmbeddedGraph, method, lambda self, _real=real, _key=key: (
            rec[_key].append(self) or _real(self)))
    return rec


@pytest.mark.parametrize("command", ["planarise", "model", "decomp", "outerstring",
                                     "verify"])
def test_each_search_made_once(capsys, monkeypatch, grounded_file, tmp_path,
                               command):
    """One search per graph and sources.  The host root in decomp and the
    disk centre w in outerstring and verify are searched from once: the
    connectivity check, the layering and the radius decomposition all read
    that one BFS tree.  The quotient radius is the distance in C^phi from
    the grounded endpoints, searched once, by grounded_distance_check.  The
    simple graph of C^phi is built once, and no other graph is built from
    an embedding.  The genus is read from C^phi, whose faces are traced at
    most once; C''s faces are never traced."""
    rec = record_searches(monkeypatch)
    out = [] if command == "verify" else ["--out", str(tmp_path / "o")]
    code, _ = run(capsys, command, "--in", grounded_file, *out)
    assert code == 0
    searches = [(id(g), sources) for g, sources in rec["bfs"]]
    assert len(searches) == len(set(searches))
    radius = command in ("decomp", "outerstring", "verify")
    assert len(rec["radius"]) == radius
    for g, tree in rec["radius"]:
        root = next(iter(tree))
        assert tree[root] is None and len(g) > 1
        assert [s for h, s in rec["bfs"] if h is g and len(s) == 1] == [(root,)]
    [plan], [cp] = rec["cprime"], rec["cphi"]
    assert [e is cp.embedding for e in rec["builds"]] == [True]
    assert sum(e is cp.embedding for e in rec["faces"]) == (command != "model")
    assert all(e is not plan.embedding for e in rec["faces"])
    scene = load_scene(grounded_file)
    grounded = tuple(sorted(endpoint_id(cid, scene.curves[cid].grounded[1])
                            for cid in scene.curve_ids()))
    assert [s for g, s in rec["bfs"] if g is cp.graph and s == grounded] == \
        [grounded] * (command in ("outerstring", "verify"))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(capsys, tmp_path, outerstring_scene, case):
    make, error, *command = MALFORMED[case]
    scene, colouring = make(scene_to_json(outerstring_scene))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    argv = [*(command or ["verify"]), "--in", str(path)]
    if colouring is not None:
        col = tmp_path / "colouring.json"
        col.write_text(json.dumps(colouring))
        argv += ["--colouring", str(col)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "invalid-input" and error in report["error"]
    assert "Traceback" not in out + err


UNWRITABLE_IDS = ["curve-id-surrogate", "curve-id-control", "crossing-id-vertical-tab",
                  "disk-id-noncharacter"]


@pytest.mark.parametrize("command", sorted(SCENE_COMMANDS))
@pytest.mark.parametrize("case", UNWRITABLE_IDS)
def test_unwritable_id_exit_2(capsys, tmp_path, outerstring_scene, case, command):
    """An id that no output file can carry is refused on loading: every
    scene subcommand, with --out and every format it takes, exits 2 with one
    report on stdout and writes no --out."""
    make, error = MALFORMED[case][:2]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(make(scene_to_json(outerstring_scene))[0]))
    fmt = SCENE_COMMANDS[command][0]
    out = tmp_path / "out"
    argv = [command, "--in", str(path)]
    if command != "verify":
        argv += ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    code = main(argv)
    stdout, stderr = capsys.readouterr()
    assert code == 2
    assert json.loads(stdout) == {"error": error, "kind": "invalid-input"}
    assert stderr == "" and not out.exists()


def without_grounding(curve: dict) -> dict:
    return {k: v for k, v in curve.items() if k != "grounded"}


# scenes outside the outerstring certificate's preconditions, with the error
# of each
NOT_OUTERSTRING = {
    "no-disk": (lambda scene: {
        "curves": [without_grounding(c) for c in scene["curves"]], "disks": []},
        "outerstring pipeline needs exactly 1 disk, got 0"),
    "two-disks": (lambda scene: {
        **scene, "disks": scene["disks"] + [
            {"id": "E", "center": [[10, 1], [10, 1]], "radius": [1, 1]}]},
        "outerstring pipeline needs exactly 1 disk, got 2"),
    "ungrounded-curve": (lambda scene: {
        **scene, "curves": [scene["curves"][0], without_grounding(scene["curves"][1]),
                            scene["curves"][2]]},
        "curve 'b' is not grounded"),
    # two curves crossing twice, one arc of a twisted: a projective plane
    "genus-1": (lambda scene: {
        "curves": [{"id": "a", "crossings": ["x0", "x1"], "twists": [1],
                    "grounded": {"disk": "D", "end": 0}},
                   {"id": "b", "crossings": ["x0", "x1"],
                    "grounded": {"disk": "D", "end": 0}}],
        "disks": [{"id": "D"}], "chirality": {"x0": 1, "x1": 1}},
        "outerstring pipeline needs genus 0, got 1"),
}


@pytest.mark.parametrize("case", sorted(NOT_OUTERSTRING))
def test_outerstring_preconditions(capsys, tmp_path, outerstring_scene, case):
    """outerstring refuses each scene with exit 2 and its message; verify
    passes it and skips the outerstring check."""
    make, error = NOT_OUTERSTRING[case]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(make(scene_to_json(outerstring_scene))))
    code, rep = run(capsys, "outerstring", "--in", str(path))
    assert code == 2 and rep == {"error": error, "kind": "invalid-input"}
    code, rep = run(capsys, "verify", "--in", str(path))
    assert code == 0 and rep["ok"] and "outerstring" not in rep["checks"]


def test_readme_scene_example_verifies(capsys, tmp_path):
    section = (ROOT / "README.md").read_text().split("## Scene format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scene.json"
    path.write_text(block)
    code, rep = run(capsys, "verify", "--in", str(path))
    assert code == 0 and rep["ok"]


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
    assert strandkit.__version__ == version
