"""Write golden.json: sha256 digests of every op at the golden seed.

Run from the root of the repository:

    python3 perfbench/make_golden.py

For each workload it generates the corpus at the golden seed, runs every op
of the loop once and records the digests of its stdout report and of each
artifact.  It refuses to write when any op fails.  Run it only when a change
alters the CLI's output on purpose, and say so in that change.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_strandkit()
    from strandkit import cli
    golden = {}
    for name, spec in run.CATALOGUE["workloads"].items():
        work = run.WORK / f"golden-{name}-{os.getpid()}"
        try:
            paths = run.set_up(spec, run.GOLDEN_SEED, work)
            golden[name] = {}
            for k, (i, op) in enumerate(run.op_list(spec)):
                out = work / "out" / str(k)
                res = run.run_op(cli, run.op_argv(op, paths[i], out))
                problem = run.report_problem(op["command"], res)
                if problem:
                    print(f"{name} {run.op_key(i, op)}: {problem}", file=sys.stderr)
                    return 1
                golden[name][run.op_key(i, op)] = run.digests(res, out)
                print(f"{name} {run.op_key(i, op)} {res.seconds:.3f} s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
