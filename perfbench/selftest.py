"""Self-test of the benchmark itself.

Run from the root of the repository:

    python3 perfbench/selftest.py

1. Runs one op of every workload, untraced and traced, through the real
   command, and checks that every metric is printed by name with its unit
   and that the result line carries exactly the metrics BENCHMARK.json names.
2. Runs one op, alters one byte of one of its artifacts in a temporary copy,
   and checks that the digest gate counts the copy as a failed op, both
   against golden.json and against an earlier pass of the same op.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

errors = []


def check(cond: bool, what: str) -> None:
    if not cond:
        errors.append(what)
        print("FAIL", what)


def one_op_runs() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.CATALOGUE["workloads"]:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(run.GOLDEN_SEED), "--seconds", "0",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=run.ROOT)
            tag = f"{name} trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.splitlines()
            last = json.loads(lines[-1])
            check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result line keys {sorted(last)}")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{tag}: correct {last['correct']}, {last['failed']} failed "
                  f"of {last['attempted']}")
            gated = bench[table]
            check(sorted(last["metrics"]) == sorted(m["name"] for m in gated),
                  f"{tag}: result line metrics differ from BENCHMARK.json")
            for m in gated:
                got = last["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{tag}: {m['name']} is {got}, want a number in {m['unit']}")
            for metric, spec in run.CATALOGUE[table].items():
                printed = [ln for ln in lines[:-1] if ln.startswith(metric + " ")]
                check(len(printed) == 1 and printed[0].split()[2] == spec["unit"],
                      f"{tag}: {metric} not printed once with unit {spec['unit']}")
            print("ok", tag)


def gate_catches_altered_byte() -> None:
    run.import_strandkit()
    from strandkit import cli
    from strandkit.scene import dump_scene
    name = "grounded-cli-mix"
    spec = run.CATALOGUE["workloads"][name]
    op = spec["ops"][0]
    key = run.op_key(0, op)
    golden = json.loads(run.GOLDEN_PATH.read_text())[name]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        scene = tmp / "0.json"
        dump_scene(run.generate(spec, run.GOLDEN_SEED, spec["curves"]), scene)
        out = tmp / "out"
        res = run.run_op(cli, run.op_argv(op, scene, out))
        artifact = sorted(out.iterdir())[0]
        copy = tmp / "copy"
        shutil.copytree(out, copy)
        data = bytearray((copy / artifact.name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (copy / artifact.name).write_bytes(bytes(data))

        for mode, gate in (("golden", run.Gate(golden)), ("repeat", run.Gate())):
            first = run.check_op(gate, key, op["command"], res, out)
            check(first is None, f"{mode} gate rejects the unaltered op: {first}")
            altered = run.Loop()
            problem = run.check_op(gate, key, op["command"], res, copy)
            altered.record(0, key, res.seconds, problem)
            check(len(altered.failures) == 1 and artifact.name in (problem or ""),
                  f"{mode} gate missed one altered byte of {artifact.name}")
            print("ok", mode, "gate counts the altered copy as failed:", problem)


def main() -> int:
    one_op_runs()
    gate_catches_altered_byte()
    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
