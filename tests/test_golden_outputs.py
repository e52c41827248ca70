"""The CLI's bytes against the committed manifest (see golden_outputs.py)."""

import json

from golden_outputs import MANIFEST, compute_manifest, flatten
from strandkit.formats import dumps_canonical
from test_emitters import assert_text


def test_every_output_matches_the_manifest():
    want = flatten(json.loads(MANIFEST.read_text()))
    got = flatten(compute_manifest())
    for key in sorted(want.keys() | got.keys()):
        scene, command, file = key
        assert got.get(key) == want.get(key), (
            f"scene {scene!r}, command {command!r}, {file}: got {got.get(key)!r}, "
            f"manifest has {want.get(key)!r}; if the change is meant, rerun "
            "tests/golden_outputs.py and list the entry in CHANGES.md")


def test_every_written_json_is_canonical():
    """Every JSON file and stdout report of the manifest's runs is the
    canonical text of what it holds, whichever writer wrote it."""
    texts: list = []
    compute_manifest(texts)
    for argv, name, text in texts:
        assert_text(text, dumps_canonical(json.loads(text)), (argv, name))
    assert {name for _, name, _ in texts} == {
        "stdout", "scene.json", "events.json", "graph.json", "planarisation.json",
        "coloured.json", "colouring.json", "params.json", "model.json", "td.json",
        "layering.json", "instance.json", "reduced.json"}
