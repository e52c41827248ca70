"""End-to-end benchmark of the strandkit CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME[,NAME...]|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a process of its own.  Set-up generates the workload's
scene corpus from the seed with ``strandkit.families``, writes the scene
files and runs one untimed warm-up op per distinct subcommand.  A single
closed-loop client then calls ``strandkit.cli.main(argv)`` in-process, one
subcommand per op, for ``--seconds`` seconds, and checks every op's output.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported.  With ``--trace 1`` each op runs untraced and then again with every
strandkit layer wrapped (see tracer.py), and the per-layer metrics are
reported.

Metric names, units, workloads and the reason for each are in
catalogue.json.  Every metric is printed on its own line; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with a machine record goes to
``perfbench/results/``.

Correctness gate: at seed 0 every op's stdout and artifacts must match the
sha256 digests in golden.json; at any other seed every op's bytes must repeat
exactly whenever the loop passes over the same op again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((HERE / "catalogue.json").read_text())
GOLDEN_PATH = HERE / "golden.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"
GOLDEN_SEED = 0
SETUP_REPEATS = 3


def import_strandkit():
    """Import strandkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import strandkit
    import strandkit.cli
    import strandkit.families
    if Path(strandkit.__file__).resolve().parent != src / "strandkit":
        raise ImportError(f"strandkit imported from {strandkit.__file__}, "
                          f"not from {src}")
    return strandkit


# ------------------------------------------------------------------ set-up

def op_list(spec: dict) -> list:
    """(scene index, op spec) in loop order: each scene through every op."""
    return [(i, op) for i in range(spec["scenes"]) for op in spec["ops"]]


def op_key(i: int, op: dict) -> str:
    return f"{i}:{op['command']}"


def op_argv(op: dict, scene: Path, out: Path) -> list:
    argv = [op["command"], "--in", str(scene)]
    if op["out"]:
        argv += ["--out", str(out)]
    if op["format"]:
        argv += ["--format", op["format"]]
    return argv


def generate(spec: dict, seed: int, size: int):
    from strandkit import families
    if spec["family"] == "grounded":
        return families.gen_grounded(size, seed)
    return families.gen_random(size, 2, seed)


def connected(scene) -> bool:
    """Is the scene's intersection graph connected?"""
    from strandkit.arrangement import compute_arrangement, intersection_graph
    from strandkit.graph import Graph, connected_components
    g = intersection_graph(scene, compute_arrangement(scene))
    return len(connected_components(Graph(g.vertices, g.edge_list()))) == 1


def corpus(spec: dict, seed: int):
    """The workload's scenes, from seeds seed, seed+1, ...

    A grounded scene whose curves do not all cross into one component is
    skipped: decomp and outerstring reject it with exit 2 by design (1 of
    the first 150 20-curve gen_grounded scenes).  gen_random's zigzags
    span the whole arrangement, so its scenes are always connected.
    """
    found, s = 0, seed
    while found < spec["scenes"]:
        scene = generate(spec, s, spec["curves"])
        s += 1
        if spec["family"] != "grounded" or connected(scene):
            found += 1
            yield scene


def set_up(spec: dict, seed: int, work: Path) -> list:
    """Corpus, scene files and warm-ups; returns the scene paths."""
    from strandkit import cli
    from strandkit.scene import dump_scene
    scenes = work / "scenes"
    scenes.mkdir(parents=True)
    paths = []
    for i, scene in enumerate(corpus(spec, seed)):
        path = scenes / f"{i}.json"
        dump_scene(scene, path)
        paths.append(path)
    warm = scenes / "warm-up.json"
    dump_scene(generate(spec, seed, spec["warm_up_curves"]), warm)
    seen = set()
    for op in spec["ops"]:
        if op["command"] not in seen:
            seen.add(op["command"])
            run_op(cli, op_argv(op, warm, work / "warm-up"))
    shutil.rmtree(work / "warm-up", ignore_errors=True)
    return paths


def timed_set_up(name: str, seed: int, work: Path) -> tuple:
    """One set-up in this interpreter, imports included: (seconds, paths)."""
    t0 = time.perf_counter()
    import_strandkit()
    paths = set_up(CATALOGUE["workloads"][name], seed, work)
    return time.perf_counter() - t0, paths


def fresh_set_up(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so imports count every time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------- one op

class OpResult:
    __slots__ = ("rc", "stdout", "stderr", "error", "seconds")


def run_op(cli, argv: list, tracer=None) -> OpResult:
    """Call cli.main(argv) with stdout and stderr captured."""
    res = OpResult()
    out, err = io.StringIO(), io.StringIO()
    caught = None
    res.rc = None
    sid = tracer.begin_op() if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = cli.main(argv)
    except SystemExit as exc:
        res.rc = exc.code
    except Exception as exc:      # an uncaught error is a failed op, not a crash
        caught = exc
    res.seconds = time.perf_counter() - t0
    if tracer:
        tracer.end_op(sid)
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    res.error = "".join(traceback.format_exception(caught)) if caught else None
    return res


def digests(res: OpResult, out: Path) -> dict:
    """sha256 of the stdout report and of every artifact the op wrote."""
    d = {"stdout": hashlib.sha256(res.stdout.encode()).hexdigest()}
    if out.is_dir():
        for f in sorted(out.iterdir()):
            d[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return d


def report_problem(command: str, res: OpResult):
    """Why an op's run failed, before digests are compared; None if it ran."""
    if res.error:
        return "uncaught " + res.error.strip().splitlines()[-1]
    if res.rc != 0:
        return f"exit code {res.rc}"
    if "Traceback" in res.stdout or "Traceback" in res.stderr:
        return "traceback printed"
    try:
        report = json.loads(res.stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict) or report.get("command") != command:
        return "stdout report is not this command's"
    if report.get("ok") is False:
        return '"ok": false'
    return None


class Gate:
    """Digest gate: against golden digests, or against the first pass."""

    def __init__(self, golden=None):
        self.golden = golden
        self.seen: dict = {}

    def check(self, key: str, got: dict):
        if self.golden is not None:
            want = self.golden.get(key)
            if want is None:
                return "no golden digest for this op"
        else:
            want = self.seen.setdefault(key, got)
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return "digest mismatch: " + ", ".join(bad)
        return None


def check_op(gate: Gate, key: str, command: str, res: OpResult, out: Path):
    return report_problem(command, res) or gate.check(key, digests(res, out))


# ----------------------------------------------------------- closed loop

class Loop:
    def __init__(self):
        self.latencies: list = []
        self.failures: list = []
        self.wall = 0.0

    def record(self, k: int, key: str, seconds: float, problem) -> None:
        self.latencies.append(seconds)
        if problem:
            self.failures.append({"op": k, "key": key, "problem": problem})

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - len(self.failures)) / self.wall


def step(cli, k, ops, paths, gate, work, loop, tracer=None) -> None:
    """Run and check op number k of the cycle, recording it in loop."""
    i, op = ops[k % len(ops)]
    out = work / "out" / str(k)
    res = run_op(cli, op_argv(op, paths[i], out), tracer)
    problem = check_op(gate, op_key(i, op), op["command"], res, out)
    shutil.rmtree(out, ignore_errors=True)
    loop.record(k, op_key(i, op), res.seconds, problem)


def closed_loop(cli, ops, paths, gate, work, seconds) -> Loop:
    """Run ops in order, cycling, one at a time, until `seconds` have
    passed; at least one op."""
    loop = Loop()
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < seconds:
        step(cli, k, ops, paths, gate, work, loop)
        k += 1
    loop.wall = time.perf_counter() - t0
    return loop


# ---------------------------------------------------------------- metrics

def tail(latencies: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n <= 10:
        return None
    rank = n - 10                       # 1-based; ten samples lie above it
    return sorted(latencies)[rank - 1], 100.0 * rank / n


def machine_record() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        nx_version = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        nx_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "networkx": nx_version,
            "platform": platform.platform()}


def metric(name: str, value, table="end_to_end", **extra) -> dict:
    return {"value": value, "unit": CATALOGUE[table][name]["unit"], **extra}


def end_to_end(setup_s: float, loop: Loop) -> dict:
    m = {
        "setup_s": metric("setup_s", setup_s),
        "ops_per_s": metric("ops_per_s", loop.ops_per_s),
        "latency_p50_s": metric("latency_p50_s", statistics.median(loop.latencies)),
        "peak_rss_mb": metric(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "fail_ratio": metric("fail_ratio", len(loop.failures) / loop.attempted,
                             failed=len(loop.failures), attempted=loop.attempted),
    }
    t = tail(loop.latencies)
    m["latency_tail_s"] = metric("latency_tail_s", t[0] if t else None,
                                 percentile=t[1] if t else None,
                                 samples=loop.attempted)
    return m


# -------------------------------------------------------------- workload

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = CATALOGUE["workloads"][name]
    load_start = os.getloadavg()[0]
    work = WORK / f"{name}-{os.getpid()}"
    try:
        setup_s, paths = timed_set_up(name, seed, work)
        repeats = 1 if trace else SETUP_REPEATS   # setup_s is untraced only
        setups = [setup_s] + [fresh_set_up(name, seed) for _ in range(repeats - 1)]
        from strandkit import cli
        golden = None
        if seed == GOLDEN_SEED:
            golden = json.loads(GOLDEN_PATH.read_text())[name]
        ops = op_list(spec)
        if not trace:
            loop = closed_loop(cli, ops, paths, Gate(golden), work, seconds)
            loops = [loop]
            metrics = end_to_end(statistics.median(setups), loop)
            spans_file = None
        else:
            metrics, loops, spans_file = traced_run(
                name, seed, cli, ops, paths, golden, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for lp in loops for f in lp.failures]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": spec["inputs"],
        "machine": {**machine_record(), "loadavg_1m_start": load_start,
                    "loadavg_1m_end": os.getloadavg()[0]},
        "setup_s_repeats": setups,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": [lp.latencies for lp in loops],
        "spans_file": spans_file,
        "metrics": metrics,
    }


def traced_run(name, seed, cli, ops, paths, golden, work, seconds):
    """Each op untraced, then again traced, until `seconds` have passed.

    Alternating op by op exposes both runs to the same machine load, so the
    ratio of their op times measures the tracer, not a noisy neighbour.
    """
    import strandkit
    from tracer import Tracer, layer_metrics
    gate = Gate(golden)     # shared, so traced bytes must equal untraced ones
    tracer = Tracer(strandkit)
    plain, traced = Loop(), Loop()
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < seconds:
        step(cli, k, ops, paths, gate, work, plain)
        tracer.install()
        try:
            step(cli, k, ops, paths, gate, work, traced, tracer)
        finally:
            tracer.uninstall()
        k += 1
    values, residual = layer_metrics(tracer.spans, tracer.counts, traced.attempted)
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"{name}-seed{seed}.spans.json.gz"
    tracer.write(spans_file)
    metrics = {k: metric(k, v, "per_layer") for k, v in values.items()}
    metrics["trace.self_residual_s"] = {"value": residual, "unit": "s"}
    return metrics, [plain, traced], str(spans_file.relative_to(ROOT))


# ------------------------------------------------------------------ main

def fmt(name: str, m: dict) -> str:
    if m["value"] is None:
        text = f"{name} n/a {m['unit']}"
    else:
        text = f"{name} {m['value']:.6g} {m['unit']}"
    extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
    if extra:
        text += " (" + ", ".join(f"{k} {v:.4g}" if isinstance(v, float)
                                 else f"{k} {v}" for k, v in extra.items()) + ")"
    return text


def result_line(result: dict, names) -> dict:
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: {"value": result["metrics"][n]["value"],
                            "unit": result["metrics"][n]["unit"]} for n in names}}


def result_names(trace: bool) -> list:
    """The metrics of the result line: the gated end-to-end ones, or every
    per-layer one."""
    if trace:
        return list(CATALOGUE["per_layer"])
    return [n for n, m in CATALOGUE["end_to_end"].items() if m["gated"]]


def main(argv=None) -> int:
    names = list(CATALOGUE["workloads"])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="comma-separated names, or all: " + ", ".join(names))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used by the benchmark)")
    args = p.parse_args(argv)
    chosen = names if args.workload == "all" else args.workload.split(",")
    unknown = set(chosen) - set(names)
    if unknown:
        p.error(f"unknown workload(s): {', '.join(sorted(unknown))}")

    if args.setup_only:
        work = WORK / f"{chosen[0]}-{os.getpid()}"
        try:
            setup_s, _ = timed_set_up(chosen[0], args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if len(chosen) > 1:
        return run_each(chosen, args)

    name = chosen[0]
    result = run_workload(name, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"workload {name} seed {args.seed} trace {args.trace} "
          f"attempted {result['attempted']} failed {result['failed']}")
    for f in result["failures"]:
        print(f"failed op {f['op']} ({f['key']}): {f['problem']}")
    for metric_name, m in result["metrics"].items():
        print(fmt(metric_name, m))
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps(result_line(result, result_names(bool(args.trace)))))
    return 0


def run_each(chosen: list, args) -> int:
    """One child process per workload, so peak memory is not shared."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
