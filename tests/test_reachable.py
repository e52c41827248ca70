"""Every def and class in the package is reachable by name from the entry
points: the CLI's main and the names the benchmark harness imports.

Reachability is by name, an over-approximation: a reached def reaches every
def or class whose name it mentions, as a variable or as an attribute.  The
statements at the top level of each module run on import, so they are
reached, and so are the decorators, bases and defaults of every def, which
run where the def stands; import statements mention no name.  A class
reaches its dunder methods, which Python calls without naming them.

The modules also import each other only at top level, and without a cycle.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strandkit

ROOTS = {"main",                                        # cli.main
         "gen_grounded", "gen_random", "dump_scene",    # perfbench
         "compute_arrangement", "intersection_graph", "Graph",
         "connected_components"}

# Kept for ROADMAP item 2, which edits C^phi in place.
ALLOWED = {"EmbeddedGraph.delete_vertex", "EmbeddedGraph.delete_edge"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentioned(nodes) -> set:
    """Names and attributes in nodes, not looking inside nested defs (which
    are nodes of their own) beyond their decorators and defaults."""
    names = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, DEFS):
            stack.extend(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                stack.extend(node.bases)
            else:
                stack.extend(node.args.defaults + node.args.kw_defaults)
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return {n for n in names if n is not None}


def package_defs() -> tuple:
    """(defs, top): defs maps each def's qualified name to (its name, the
    names its body mentions, its dunder methods if a class); top holds the
    names the modules' top-level statements mention."""
    defs, top = {}, set()

    def visit(node, prefix):
        qual = f"{prefix}{node.name}"
        dunders = set()
        for child in node.body:
            if isinstance(child, DEFS):
                visit(child, f"{qual}.")
                if isinstance(node, ast.ClassDef) and child.name.startswith("__"):
                    dunders.add(f"{qual}.{child.name}")
        defs[qual] = (node.name, mentioned(node.body), dunders)

    for path in sorted(Path(strandkit.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        top |= mentioned(module.body)
        for node in module.body:
            if isinstance(node, DEFS):
                visit(node, f"{path.stem}.")
    return defs, top


def test_every_def_is_reachable_from_the_entry_points():
    defs, top = package_defs()
    by_name: dict = {}
    for qual, (name, _, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    reached, todo = set(), list(ROOTS | top)
    seen_names = set()
    while todo:
        name = todo.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        for qual in by_name.get(name, ()):
            reached.add(qual)
            _, names, dunders = defs[qual]
            todo.extend(names)
            for dunder in dunders:
                reached.add(dunder)
                todo.extend(defs[dunder][1])
    unreached = sorted(q.split(".", 1)[1] for q in set(defs) - reached)
    assert sorted(set(unreached) - ALLOWED) == []
    assert sorted(ALLOWED - set(unreached)) == [], "an allowed def is reached now"



def test_package_imports_are_top_level_and_acyclic():
    """Every import of one strandkit module by another stands at module top
    level, where it runs on import, and the modules import each other
    without a cycle."""
    deps, nested = {}, []
    for path in sorted(Path(strandkit.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        deps[path.stem] = set()
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom):
                name = "." * node.level + (node.module or "")
                names = [f"{name}.{a.name}" if name == "." else name
                         for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            inner = {n.removeprefix("strandkit").lstrip(".").split(".")[0]
                     for n in names if n.startswith((".", "strandkit."))}
            if inner and node not in module.body:
                nested.append(f"{path.stem}:{node.lineno}")
            deps[path.stem] |= inner
    assert nested == []
    try:
        list(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_fresh_import_loads_no_introspection_modules():
    """A fresh interpreter that imports the package, its CLI and its
    generators loads none of dataclasses, inspect, ast or dis, which every
    CLI process would otherwise pay for.  pytest loads them itself, so the
    import runs in a subprocess."""
    src = Path(strandkit.__file__).resolve().parent.parent
    code = ("import sys, strandkit, strandkit.cli, strandkit.families; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
