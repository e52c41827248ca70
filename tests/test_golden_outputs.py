"""The CLI's bytes against the committed manifest (see golden_outputs.py)."""

import json

from golden_outputs import MANIFEST, compute_manifest, flatten


def test_every_output_matches_the_manifest():
    want = flatten(json.loads(MANIFEST.read_text()))
    got = flatten(compute_manifest())
    for key in sorted(want.keys() | got.keys()):
        scene, command, file = key
        assert got.get(key) == want.get(key), (
            f"scene {scene!r}, command {command!r}, {file}: got {got.get(key)!r}, "
            f"manifest has {want.get(key)!r}; if the change is meant, rerun "
            "tests/golden_outputs.py and list the entry in CHANGES.md")
