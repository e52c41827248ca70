"""The byte manifest of the CLI, kept in tests/golden_outputs.json.

For each (scene, command) the manifest holds the exit code and the sha256 of
stdout and of every file the command writes.  Its scenes are:

- the scenes of the gen runs in GEN_RUNS: gen_grounded(n, s) for n in
  {2, 6, 12, 24} and s < 2, the segment family at t = 1-3 and three random
  scenes (the runs that exit 2 give none);
- the fixtures of corpus.py, with and without their colourings;
- the scene that localise writes for each of the above, as "<scene>/localised";
- corpus.DEGENERATE_SCENES, as "degenerate/<name>";
- corpus.MALFORMED, as "malformed/<case>", under its one command.

Every scene runs every subcommand with every format the subcommand takes.
The gen and bounds runs themselves are the pseudo-scenes "gen" and "bounds".
To rewrite the manifest after a change that alters bytes on purpose:

    PYTHONPATH=src python tests/golden_outputs.py

tests/test_golden_outputs.py recomputes the manifest and names the first
(scene, command, file) that differs from the committed one.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import corpus
from reference_json import scene_to_json
from strandkit.cli import main
from strandkit.scene import dump_scene

MANIFEST = Path(__file__).with_name("golden_outputs.json")

# each scene subcommand with every --format it takes, or None
SCENE_COMMANDS = {
    "arrange": "json,dot",
    "planarise": "json,dot,svg",
    "colour": None,
    "model": None,
    "decomp": "json,td",
    "outerstring": "json,td",
    "localise": None,
    "verify": None,
}
TAKES_COLOURING = {"planarise", "model", "decomp", "outerstring", "verify"}

# (family, --params, --seed) of each gen run; the ones that exit 0 give
# scenes of the manifest
GEN_RUNS = [
    *[("grounded", f"n={n}", s) for n in (2, 6, 12, 24) for s in (0, 1)],
    *[("segment", f"t={t}", 0) for t in (1, 2, 3)],
    ("random", "n=6", 0),
    ("random", "n=6", 1),
    ("random", "n=8 crossings_per_pair=3", 0),
    ("grounded", "n=1", 0),
    ("random", "n=1", 0),
    ("random", "n=6 crossings_per_pair=0", 0),
    ("segment", "t=0", 0),
]

# --theorem and --params of each bounds run
BOUNDS_RUNS = [
    "planar-outerstring t=3 d=2",
    "genus-outerstring t=2 c=1 g=1 d=2",
    "outerstring-maxdegree delta=3 c=1 g=0",
    "localised delta=4",
    "ss-crossing m=5",
    "string-rtw g=1 delta=3",
    "ps-maxdegree delta=3",
    "rtw-main r=1 c=1 g=0",
    "ltw-shallow r=9 d=2 g=0",
    "tw-from-ltw r=2 c=3 ltw=4",
    "product-tw tw=3 n=4",
    "planar-radius-tw r=5",
    "weak-diameter k=4 t=3",
    "bogus",
    "planar-outerstring t=3",
    "planar-outerstring t=-1 d=2",
    "planar-outerstring t=3 d=2 x=1",
    "ss-crossing m=100000",
]


def gen_key(family: str, params: str, seed: int) -> str:
    return f"{family} {params} --seed {seed}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, out=None, texts=None, suffix=".json") -> dict:
    """The exit code and the digests of stdout and of every file under out
    of one in-process CLI run.  A list texts receives (argv, "stdout", text)
    and (argv, file name, text) for each file of the given suffix."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    entry = {"exit": code, "stdout": sha(buf.getvalue().encode())}
    if texts is not None:
        texts.append((argv, "stdout", buf.getvalue()))
    if out is not None and out.exists():
        entry["files"] = {p.name: sha(p.read_bytes()) for p in sorted(out.iterdir())}
        if texts is not None:
            texts.extend((argv, p.name, p.read_text(encoding="utf-8"))
                         for p in sorted(out.glob("*" + suffix)))
    return entry


def scene_runs(scene: Path, colouring, work: Path, texts=None, suffix=".json") -> dict:
    """Every subcommand on one scene file, with a colouring file or None;
    texts and suffix as for run."""
    runs = {}
    for command, fmt in SCENE_COMMANDS.items():
        out = work / command
        argv = [command, "--in", str(scene)]
        if command != "verify":
            argv += ["--out", str(out)]
        if fmt:
            argv += ["--format", fmt]
        if colouring is not None and command in TAKES_COLOURING:
            argv += ["--colouring", str(colouring)]
        runs[command] = run(argv, out, texts, suffix)
    return runs


def compute_manifest(texts=None, suffix=".json") -> dict:
    """The manifest; a list texts receives the texts of every run, with
    texts and suffix as for run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = {"gen": {}, "bounds": {}}
        for entry in BOUNDS_RUNS:
            theorem, *params = entry.split()
            manifest["bounds"][entry] = run(
                ["bounds", "--theorem", theorem, "--params", *params], None, texts)

        # scene name -> (scene file, colouring file or None, localise it?)
        scenes = {}
        for family, params, seed in GEN_RUNS:
            name = f"{family}-{params.replace(' ', ',')}-{seed}"
            out = tmp / "gen" / name
            manifest["gen"][gen_key(family, params, seed)] = run(
                ["gen", "--family", family, "--params", *params.split(),
                 "--seed", str(seed), "--out", str(out)], out, texts, suffix)
            if (out / "scene.json").exists():
                scenes[name] = (out / "scene.json", None, True)
        for build, colouring in corpus.FIXTURES.items():
            name = build.__name__
            path = tmp / "fixtures" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            dump_scene(build(), path)
            scenes[name] = (path, None, True)
            if colouring is not None:
                col = path.with_suffix(".colouring.json")
                col.write_text(json.dumps(colouring().to_json()))
                scenes[f"{name}+colouring"] = (path, col, False)
        for name, data in corpus.DEGENERATE_SCENES.items():
            path = tmp / "degenerate" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(data))
            scenes[f"degenerate/{name}"] = (path, None, False)

        for name, (path, colouring, localise) in scenes.items():
            work = tmp / "runs" / name
            manifest[name] = scene_runs(path, colouring, work, texts, suffix)
            localised = work / "localise" / "scene.json"
            if localise and localised.exists():
                manifest[f"{name}/localised"] = scene_runs(
                    localised, None, tmp / "runs" / f"{name}/localised", texts, suffix)

        valid = scene_to_json(corpus.outerstring_scene())
        for case, (make, _, *command) in corpus.MALFORMED.items():
            data, colouring = make(valid)
            path = tmp / "malformed" / case / "scene.json"
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(data))
            command = command[0] if command else "verify"
            argv = [command, "--in", str(path)]
            if colouring is not None:
                col = path.with_name("colouring.json")
                col.write_text(json.dumps(colouring))
                argv += ["--colouring", str(col)]
            manifest[f"malformed/{case}"] = {command: run(argv, None, texts)}
    return manifest


def flatten(manifest: dict) -> dict:
    """(scene, command, file) -> value, where file is "exit", "stdout" or
    the name of a written file."""
    flat = {}
    for scene, runs in manifest.items():
        for command, entry in runs.items():
            flat[scene, command, "exit"] = entry["exit"]
            flat[scene, command, "stdout"] = entry["stdout"]
            for name, digest in entry.get("files", {}).items():
                flat[scene, command, name] = digest
    return flat


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(compute_manifest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
