import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import strandkit
from strandkit.cli import FAMILIES, main
from strandkit.embedding import EmbeddedGraph
from strandkit.families import gen_grounded
from strandkit.geometry import pt
from strandkit.planarise import endpoint_id
from strandkit.scene import Curve, StringScene, dump_scene, load_scene

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


@pytest.mark.parametrize("family", ["convex", "rectangles", "grid-disk"])
def test_gen_convex_set_family_exit_2(capsys, tmp_path, family):
    """The convex-set families are test helpers, not gen families."""
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", family, "--out", str(tmp_path / "g")])
    assert info.value.code == 2
    assert f"invalid choice: '{family}'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# sha256 of (stdout, scene.json) of gen per (family, --params, --seed)
GEN_DIGESTS = {
    ("segment", "t=1", 0): (
        "6db6935b6dacb66044f45f3d1d3b97f8b5135d199fe8ec628043d4b91a8470ab",
        "baebfc4200d72cd2c1ea74043fc6fa74b018dbcdddb762db4980a03c171e7aa8"),
    ("segment", "t=2", 0): (
        "1d803af8def1d5af166dd6f61bc35e993aad6b6dc9672caf4ce26d7826f52e9e",
        "35c3298e2a7a144202e18af0f82f1bf40689c5488cf25644e38362d57dda811c"),
    ("segment", "t=3", 0): (
        "d8ba70beed4c7ca994ba0f168146d5d0e878175e029fcffa33427ad48149b97f",
        "94d504e1a4e2978f4eda3eb20c2ccc2564f2e76a5fa3b89578ca0b77eaf07f6f"),
    ("random", "n=6", 0): (
        "48d5f9465e714717ec9e9931290c56237355f3d1587e853296082c6827db3693",
        "d19a1134c68cb7e1b9bb5d995894c39927801252c5ed4692eb54d943e06a2718"),
    ("random", "n=6", 1): (
        "9abcf645d93b5e0af71ae488e49fe055d0d73e54a7e1e87758d88793dc8476b3",
        "df6d953f52ce07e8abec7202b056cf8a00a32dc95bd4eac62ee5b4f70d777180"),
    ("random", "n=8 crossings_per_pair=3", 0): (
        "f2838d8b900fb041d63c70f90ea6a0b29280d6da06ad0e4e1d1106129511e48a",
        "c6dcca2adde6532a617c599c4ac52d7fca61e930923b725d33a4688a2152a55d"),
    ("grounded", "n=6", 0): (
        "557ddb371f2219963d15e7c31a3eb5a60c2388f9c37f9dad20d32736008c6ec4",
        "1eef20a5eba60a8509b5455d7c701e145d2d8fac4f4a5017cf79f5214b808629"),
    ("grounded", "n=6", 1): (
        "2e788191746992a96b7a2ccc61f66f7a5f8ef21567e351e416c040ddb00a97eb",
        "ccabe39c6ab2bfff9a10ba2d20dbfd9640432de3b3384c17d6829ea521b12527"),
    ("grounded", "n=24", 0): (
        "01797caa1c78bbb70b77a3b3d5bb6252f3ccca566240e6d651dda86cab4309c1",
        "2a86b5166cb43d087820eb4a612c3123a9fad0140af58fde9b8fe060afb390e2"),
    ("grounded", "n=24", 1): (
        "bcc47d5afb530879efd042c902eff4c7655af4f513ebaac6eadd0065a0e66893",
        "6b531d1001e2300809a65f5db9ddb1761448087e97390b3d220ccef1c9f3d661"),
}


@pytest.mark.parametrize("family, params, seed", sorted(GEN_DIGESTS),
                         ids=lambda v: str(v).replace(" ", ","))
def test_gen_bytes_pinned(capsys, tmp_path, family, params, seed):
    code = main(["gen", "--family", family, "--params", *params.split(),
                 "--seed", str(seed), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256((tmp_path / "scene.json").read_bytes()).hexdigest()) \
        == GEN_DIGESTS[family, params, seed]


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


def test_missing_file_exit_2(capsys, tmp_path):
    code, rep = run(capsys, "arrange", "--in", str(tmp_path / "nope.json"))
    assert code == 2


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


def segment(cid: str, p: tuple, q: tuple) -> dict:
    """The JSON of a straight curve between two integer points."""
    return {"id": cid, "points": [[[x, 1], [y, 1]] for x, y in (p, q)]}


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
    # localisation is for the plane: two curves crossing twice, one arc of
    # a twisted, lie in the projective plane
    "projective-plane-localise": (lambda scene: (
        {"curves": [{"id": "a", "crossings": ["x0", "x1"], "twists": [1]},
                    {"id": "b", "crossings": ["x0", "x1"]}],
         "disks": [], "chirality": {"x0": 1, "x1": 1}}, None),
        "localise needs genus 0, got 1", "localise"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(capsys, tmp_path, outerstring_scene, case):
    make, error, *command = MALFORMED[case]
    scene, colouring = make(outerstring_scene.to_json())
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
    path.write_text(json.dumps(make(outerstring_scene.to_json())))
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
