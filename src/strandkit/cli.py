"""Command-line front-end: reproducible pipelines with JSON reports.

main reads the scene of --in into one Pipeline and runs the subcommand on it
with all checkers enabled.  A subcommand returns its report and the text of
each artifact; main prints the report as canonical JSON to stdout and, only
when the run exits 0, writes the artifacts under --out as UTF-8.  Exit
codes: 0 success, 1 internal check failure (a certified bound or invariant
was violated), 2 invalid input or, after --out is written, an unwritable stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .check import check_coloured_planarisation, verify_model, walk_weak_diameter
from .colouring import OrderedColouring
from .decomp import EXACT_TREEWIDTH_MAX, Pipeline, bounds, exact_treewidth
from .errors import InvariantError, SceneError
from .families import gen_grounded, gen_random, gen_segment_family
from .formats import (coloured_to_dot, dumps_canonical, dumps_coloured, dumps_events,
                      dumps_graph, dumps_instances, dumps_layering, dumps_model,
                      dumps_planarisation, dumps_scene, dumps_td, graph_to_dot,
                      planarisation_to_dot, scene_to_svg, td_to_pace)
from .scene import load_scene, read_json


FORMATS = ("dot", "json", "svg", "td")

# gen --family -> (generator, its --params and their defaults); a generator
# with a seed parameter also gets --seed
FAMILIES = {
    "segment": (gen_segment_family, {"t": 2}),
    "random": (gen_random, {"n": 6, "crossings_per_pair": 2}),
    "grounded": (gen_grounded, {"n": 6}),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        fmts = _formats(args)
        p = None if args.inp is None else Pipeline(load_scene(args.inp))
        report, files = args.func(args, p, fmts)
        code = 0 if report.get("ok", True) else 1
        if args.out is not None and code == 0:
            out = Path(args.out)
            for target in map(out.joinpath, files):
                if target.exists() and not target.is_file():
                    raise SceneError(f"--out target is not a file: {target}")
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
    except SceneError as exc:
        return _emit({"error": str(exc), "kind": "invalid-input"}, 2)
    except InvariantError as exc:
        return _emit({"error": str(exc), "kind": "check-failure"}, 1)
    except OSError as exc:
        return _emit({"error": f"{type(exc).__name__}: {exc}", "kind": "invalid-input"}, 2)
    return _emit(report, code)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="strandkit",
        description="certified combinatorial structure of curve arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, **flags):
        p = sub.add_parser(name)
        p.set_defaults(func=func, inp=None, out=None, colouring=None, format="json")
        if flags.get("inp"):
            p.add_argument("--in", dest="inp", required=True,
                           help="input scene JSON")
        if flags.get("out"):
            p.add_argument("--out", help="output directory for artifacts")
        if flags.get("colouring"):
            p.add_argument("--colouring", help="ordered colouring JSON; "
                           "default: greedy on the reverse degeneracy order")
        if flags.get("fmt"):
            p.add_argument("--format", help="comma-separated: json,dot,svg,td")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0)
        if flags.get("params"):
            p.add_argument("--params", nargs="*", default=[], metavar="K=V")
        return p

    cmd("arrange", _cmd_arrange, inp=True, out=True, fmt=True)
    cmd("planarise", _cmd_planarise, inp=True, out=True, colouring=True, fmt=True)
    cmd("colour", _cmd_colour, inp=True, out=True)
    cmd("model", _cmd_model, inp=True, out=True, colouring=True)
    cmd("decomp", _cmd_decomp, inp=True, out=True, colouring=True, fmt=True)
    cmd("outerstring", _cmd_outerstring, inp=True, out=True, colouring=True,
        fmt=True)
    cmd("localise", _cmd_localise, inp=True, out=True)

    g = cmd("gen", _cmd_gen, out=True, seed=True, params=True)
    g.add_argument("--family", required=True, choices=list(FAMILIES))

    b = cmd("bounds", _cmd_bounds, params=True)
    b.add_argument("--theorem", required=True)

    cmd("verify", _cmd_verify, inp=True, colouring=True)
    return parser


# --------------------------------------------------------------- plumbing

def _emit(obj: dict, code: int) -> int:
    """Print obj as canonical JSON and return code, or 2 when stdout cannot
    be written, with one line on stderr."""
    try:
        sys.stdout.write(dumps_canonical(obj))
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"strandkit: cannot write the report: {exc}\n")
        with open(os.devnull, "wb") as null:  # where the flush at exit goes
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2
    return code


def _formats(args) -> set:
    fmts = set(args.format.split(","))
    unknown = sorted(fmts.difference(FORMATS))
    if unknown:
        raise SceneError(f"unknown --format {unknown[0]!r}; "
                         f"known: {', '.join(FORMATS)}")
    return fmts


def _parse_params(tokens: list) -> dict:
    params = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise SceneError(f"--params entries must be K=V, got {tok!r}")
        try:
            params[key] = int(value)
        except ValueError:
            if re.fullmatch(r"\s*[+-]?\d+\s*", value):   # int() refused its length
                raise SceneError(f"--params value of {key!r} has more digits than "
                                 f"Python reads ({sys.get_int_max_str_digits()})") from None
            raise SceneError(f"--params value of {key!r} must be an integer, "
                             f"got {value!r}") from None
    return params


def _colouring(args, p: Pipeline) -> OrderedColouring:
    """p's colouring stage, checked to be ordered by reading p's colour cut.
    A --colouring file is read here, not up front, so that errors of the
    scene's earlier stages are reported before errors of the file."""
    p.events
    if args.colouring:
        p.given = OrderedColouring.from_json(read_json(args.colouring, "colouring"))
    p.cut
    return p.colouring


# ------------------------------------------------------------- subcommands
# Each takes (args, its Pipeline or None, its --format set) and returns its
# report and a file name -> text map of its artifacts.

def _cmd_arrange(args, p, fmts) -> tuple:
    events, G = p.events, p.graph
    files = {"events.json": dumps_events(events), "graph.json": dumps_graph(G)}
    if "dot" in fmts:
        files["graph.dot"] = graph_to_dot(G)
    return {"command": "arrange", "curves": len(p.scene.curves),
            "events": len(events), "edges": len(G.edge_list())}, files


def _cmd_planarise(args, p, fmts) -> tuple:
    plan = p.plan
    files = {"planarisation.json": dumps_planarisation(plan)}
    if "dot" in fmts:
        files["planarisation.dot"] = planarisation_to_dot(plan)
    colouring = _colouring(args, p)
    cp = p.cp
    check_coloured_planarisation(plan, cp)
    files["coloured.json"] = dumps_coloured(cp)
    if "dot" in fmts:
        files["coloured.dot"] = coloured_to_dot(cp)
    if "svg" in fmts and p.scene.is_geometric:
        files["scene.svg"] = scene_to_svg(p.scene, colouring)
    # contracting the sections keeps the surface, so C' and C^phi have one genus
    return {"command": "planarise", "vertices": len(plan.embedding.rotation),
            "edges": plan.embedding.edge_count(),
            "coloured_vertices": len(cp.embedding.rotation),
            "genus": p.genus, "coloured_genus": p.genus}, files


def _cmd_colour(args, p, fmts) -> tuple:
    colouring = _colouring(args, p).to_json()
    params = p.params.to_json()
    return ({"command": "colour", "colouring": colouring, "params": params},
            {"colouring.json": dumps_canonical(colouring),
             "params.json": dumps_canonical(params)})


def _cmd_model(args, p, fmts) -> tuple:
    _colouring(args, p)
    model, params = p.model, p.params
    check = verify_model(model, p.graph)
    diameters = walk_weak_diameter(p.cp, params)
    return {"command": "model", "ok": check["valid"], "check": check,
            "copies": model.copies, "branch_sets": len(model.mu),
            "max_walk_diameter": max(diameters.values(), default=0),
            "r": params.r}, {"model.json": dumps_model(model)}


def _cmd_decomp(args, p, fmts) -> tuple:
    _colouring(args, p)
    result = p.ltw
    td = result["td"]
    files = {"td.json": dumps_td(td), "layering.json": dumps_layering(result["layering"])}
    if "td" in fmts:
        files["td.td"] = td_to_pace(td, p.graph)
    report = {"command": "decomp", "width": td.width,
              "layered_width": result["layered_width"],
              "layered_width_bound": result["bound"],
              "genus": p.genus, "params": p.params.to_json()}
    if len(p.graph) <= EXACT_TREEWIDTH_MAX:
        report["exact_treewidth"] = exact_treewidth(p.graph)
    return report, files


def _cmd_outerstring(args, p, fmts) -> tuple:
    _colouring(args, p)
    result = p.outerstring
    td = result["td"]
    files = {"td.json": dumps_td(td)}
    if "td" in fmts:
        files["td.td"] = td_to_pace(td, p.graph)
    return {"command": "outerstring", "width": td.width,
            "bound": result["bound"], "ok": True,
            "t": p.params.t, "d": p.params.d,
            "quotient_radius": result["quotient_radius"]}, files


def _cmd_localise(args, p, fmts) -> tuple:
    result = p.localised
    instance, reduced = dumps_instances([result["instance"], result["reduced"]])
    report = {"command": "localise", **{key: result[key] for key in (
        "crossings_before", "crossings_after", "census_before", "census_after")}}
    return report, {"instance.json": instance, "reduced.json": reduced,
                    "scene.json": dumps_scene(result["scene"])}


def _cmd_gen(args, p, fmts) -> tuple:
    params = _parse_params(args.params)
    generator, defaults = FAMILIES[args.family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise SceneError(f"family {args.family!r} takes {', '.join(sorted(defaults))}, "
                         f"got {', '.join(unknown)}")
    kwargs = {**defaults, **params}
    code = generator.__code__
    if "seed" in code.co_varnames[:code.co_argcount]:
        kwargs["seed"] = args.seed
    scene = generator(**kwargs)
    return {"command": "gen", "family": args.family, "seed": args.seed,
            "curves": len(scene.curves)}, {"scene.json": dumps_scene(scene)}


def _cmd_bounds(args, p, fmts) -> tuple:
    params = _parse_params(args.params)
    value = bounds(args.theorem, params)
    return {"command": "bounds", "theorem": args.theorem,
            "params": params, "value": value}, {}


def _cmd_verify(args, p, fmts) -> tuple:
    """Run every applicable checker; ok=false (exit 1) on any failure."""
    checks: dict = {}

    _colouring(args, p)        # reads p.cut, which checks the colouring is ordered
    checks["ordered-colouring"] = True
    params = p.params

    check_coloured_planarisation(p.plan, p.cp)
    checks["coloured-planarisation"] = True
    genus = p.genus

    res = verify_model(p.model, p.graph)
    checks["minor-model"] = res["valid"]

    walk_weak_diameter(p.cp, params)
    checks["walk-weak-diameter"] = True

    scene = p.scene
    if genus == 0 and len(scene.disks) == 1 and scene.grounded_curves() == scene.curve_ids():
        p.outerstring          # checks the grounded distance, then the width
        checks["grounded-distance"] = True
        checks["outerstring"] = True

    ok = all(checks.values())
    return {"command": "verify", "ok": ok, "checks": checks,
            "params": params.to_json(), "genus": genus}, {}


if __name__ == "__main__":
    sys.exit(main())
