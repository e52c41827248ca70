"""Every executable line of src/strandkit runs in tier-1, or is allowed here
with a reason.

    python tests/line_coverage.py

installs a line tracer built on the standard library alone (sys.settrace),
then imports strandkit and runs the tier-1 suite in this process.  The
executable lines of a module are those of the co_lines() of its compiled
code objects.  It prints each executable line of the package that never ran
and is not in ALLOWED, and exits 1 if there is one, if an ALLOWED entry
matches no unexecuted line, or if the suite fails.  Tests that run the
package in a subprocess are not seen.

ALLOWED is keyed by module file name and the line's stripped source text,
never by line number, so an entry survives edits elsewhere in the file and
covers every unexecuted line of that text in that module.  Each entry gives
the reason no tier-1 test runs the line.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "strandkit"

ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only under python -m strandkit.cli, which "
        "test_acceptance.py::test_criterion_10_determinism starts in a subprocess",
    ("geometry.py", "return None"):
        "_contact's fall-through, kept explicit as it returns Optional[int]: "
        "segments that _orientations passes as a non-collinear contact meet "
        "where their lines cross, an endpoint the loop above finds",
}


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def install(files: set) -> dict:
    """Start recording, for each file of files, the lines that run; the
    returned dict maps a file to its set of run lines."""
    ran = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(call)
    return ran


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = install(set(files))
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    import pytest
    import strandkit
    assert Path(strandkit.__file__).resolve().parent == PACKAGE, strandkit.__file__
    code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    missed, used = 0, set()
    for name, path in files.items():
        source = path.read_text().splitlines()
        for number in sorted(executable_lines(path) - ran[name]):
            key = (path.name, source[number - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{number}: {key[1]}")
    stale = sorted(set(ALLOWED) - used)
    for name, text in stale:
        print(f"allowed but run or gone: {name}: {text}")
    print(f"{missed} unexecuted lines of src/ outside the allowlist "
          f"({len(used)} allowed, {len(stale)} stale); pytest exit {int(code)}")
    return int(bool(missed or stale or code))


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
