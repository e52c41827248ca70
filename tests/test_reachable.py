"""Every def and class in the package is reachable by name from the entry
points: the CLI's main and the names the benchmark harness imports.

Reachability is by name, an over-approximation: a reached def reaches every
def or class whose name it mentions, as a variable or as an attribute.  An
attribute of a receiver whose class is known reaches that class's def of
the name alone: self in a class's defs, and a variable x of a def that only
ever binds x = C(...) for one package class C.  Any other receiver, or a
class without a def of the name, reaches every def of that name.  The
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

ALLOWED: set = set()

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(nodes):
    """The nodes of a body, not looking inside nested defs (which are
    nodes of their own) beyond their decorators, bases and defaults."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        yield node
        if isinstance(node, DEFS):
            stack.extend(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                stack.extend(node.bases)
            else:
                stack.extend(node.args.defaults + node.args.kw_defaults)
            continue
        stack.extend(ast.iter_child_nodes(node))


def receivers(nodes, params, classes: dict) -> dict:
    """Variable -> class qualified name, for each variable of the nodes that
    is not one of params and is bound only by x = C(...), for one package
    class C."""
    stores = dict.fromkeys(params, 1)
    made: dict = {}
    for node in own_nodes(nodes):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
        elif isinstance(node, ast.arg):
            stores[node.arg] = stores.get(node.arg, 0) + 1
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)
              and node.value.func.id in classes):
            made.setdefault(node.targets[0].id, []).append(classes[node.value.func.id])
    return {x: cs[0] for x, cs in made.items()
            if len(set(cs)) == 1 and stores[x] == len(cs)}


def mentioned(nodes, params, cls, classes: dict, methods: dict) -> set:
    """Names and attributes in nodes, as bare names, or as qualified names
    (which hold a dot) where the receiver's class defines the attribute.
    params are the def's parameters, and cls is the qualified name of the
    enclosing class, or None."""
    known = receivers(nodes, params, classes)
    if cls is not None:
        known["self"] = cls
    names = set()
    for node in own_nodes(nodes):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = known.get(node.value.id) if isinstance(node.value, ast.Name) else None
            qual = f"{owner}.{node.attr}"
            names.add(qual if qual in methods else node.attr)
    return names


def package_defs() -> tuple:
    """(defs, top): defs maps each def's qualified name to (its name, the
    names its body mentions, its dunder methods if a class); top holds the
    names the modules' top-level statements mention."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(Path(strandkit.__file__).parent.glob("*.py"))}
    classes = {node.name: f"{stem}.{node.name}" for stem, module in modules.items()
               for node in module.body if isinstance(node, ast.ClassDef)}
    methods = {f"{classes[node.name]}.{child.name}" for module in modules.values()
               for node in module.body if isinstance(node, ast.ClassDef)
               for child in node.body if isinstance(child, DEFS)}
    defs, top = {}, set()

    def visit(node, prefix, cls):
        qual = f"{prefix}{node.name}"
        inner = qual if isinstance(node, ast.ClassDef) else cls
        dunders = set()
        for child in node.body:
            if isinstance(child, DEFS):
                visit(child, f"{qual}.", inner)
                if isinstance(node, ast.ClassDef) and child.name.startswith("__"):
                    dunders.add(f"{qual}.{child.name}")
        params = [] if isinstance(node, ast.ClassDef) else \
            [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        defs[qual] = (node.name, mentioned(node.body, params, inner, classes, methods),
                      dunders)

    for stem, module in modules.items():
        top |= mentioned(module.body, [], None, classes, methods)
        for node in module.body:
            if isinstance(node, DEFS):
                visit(node, f"{stem}.", None)
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
        for qual in [name] if "." in name else by_name.get(name, ()):
            reached.add(qual)
            _, names, dunders = defs[qual]
            todo.extend(names)
            for dunder in dunders:
                reached.add(dunder)
                todo.extend(defs[dunder][1])
    unreached = sorted(q.split(".", 1)[1] for q in set(defs) - reached)
    assert sorted(set(unreached) - ALLOWED) == []
    assert sorted(ALLOWED - set(unreached)) == [], "an allowed def is reached now"


RESOLVED = """
class A:
    def f(self):
        self.g()
        self.h()
    def g(self):
        pass

def k(x):
    y = A()
    z = A()
    z = x
    for w in []:
        w = A()
    y.g(), x.g(), z.g(), w.g(), y.f, y.m
"""


def test_receivers_resolve_to_their_class():
    """self and a variable bound only by A(...) reach A's def of the name;
    a parameter, a rebound variable and a loop variable reach every def of
    it; an attribute A does not define stays a bare name."""
    classes, methods = {"A": "m.A"}, {"m.A.f", "m.A.g"}
    cls, k = ast.parse(RESOLVED).body
    assert mentioned(cls.body[0].body, ["self"], "m.A", classes, methods) == \
        {"self", "m.A.g", "h"}
    assert mentioned(k.body, ["x"], None, classes, methods) == \
        {"A", "x", "y", "z", "w", "m.A.g", "g", "m.A.f", "m"}


def package_imports() -> tuple:
    """(deps, nested): deps maps each strandkit module to the modules of the
    package it imports, and nested lists the imports not at top level."""
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
    return deps, nested


def test_package_imports_are_top_level_and_acyclic():
    """Every import of one strandkit module by another stands at module top
    level, where it runs on import, and the modules import each other
    without a cycle."""
    deps, nested = package_imports()
    assert nested == []
    try:
        list(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


CHECKERS = {"verify_td", "verify_layering", "verify_model", "check_coloured_planarisation",
            "walk_weak_diameter", "grounded_distance_check"}


def test_checkers_import_no_builder():
    """check.py imports nothing of the package but errors and graph, and
    every checker is defined there and nowhere else."""
    deps, _ = package_imports()
    assert deps["check"] == {"errors", "graph"}
    defs, _ = package_defs()
    assert {qual for qual, (name, _, _) in defs.items() if name in CHECKERS} == \
        {f"check.{name}" for name in CHECKERS}


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


def is_writer(name: str) -> bool:
    return (name.lstrip("_").startswith("dumps") or name.endswith(("_to_dot", "_to_svg"))
            or name == "td_to_pace")


def test_writers_import_no_builder():
    """formats.py imports nothing of the package but errors, and every
    writer of report and artifact text is defined there: no other module
    defines one, imports json.encoder or imports a private name of formats
    or scene, and no record has a dumps method."""
    deps, _ = package_imports()
    assert deps["formats"] == {"errors"}
    defs, _ = package_defs()
    assert sorted(qual for qual, (name, _, _) in defs.items()
                  if is_writer(name) and not qual.startswith("formats.")) == []
    for record in ("scene.StringScene", "decomp.TreeDecomposition",
                   "decomp.Layering", "product_model.MinorModel"):
        assert record in defs and f"{record}.dumps" not in defs
    for path in sorted(Path(strandkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "json.encoder" not in [a.name for a in node.names], path.stem
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "json.encoder" or path.stem == "formats", path.stem
                if node.module in ("formats", "scene", "strandkit.formats", "strandkit.scene"):
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    assert private == [], (path.stem, node.module, private)
