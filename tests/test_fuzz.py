"""Bounded, derandomised fuzzing of the CLI's exit-code contract.

Every run must end in 0 (ok), 1 (a certified check failed) or 2 (invalid
input) with one canonical JSON report on stdout, never in a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.cli import main
from strandkit.decomp import _BOUNDS
from strandkit.families import gen_grounded
from strandkit.scene import dump_scene

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


@FUZZ
@given(theorem=st.sampled_from(sorted(_BOUNDS) + ["no-such-theorem"]),
       params=st.one_of(
           st.fixed_dictionaries({name: param_values for name in PARAM_NAMES}),
           st.dictionaries(st.sampled_from(PARAM_NAMES), param_values,
                           max_size=6)))
def test_fuzz_bounds(theorem, params):
    argv = ["bounds", "--theorem", theorem, "--params"]
    argv += [f"{k}={v}" for k, v in sorted(params.items())]
    assert run_cli(argv) in (0, 2)
