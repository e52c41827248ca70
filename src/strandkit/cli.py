"""Command-line front-end: reproducible pipelines with JSON reports.

Every subcommand reads scene/colouring JSON, runs the relevant pipeline with
all checkers enabled, writes canonical (byte-stable) artifacts under --out,
and prints a JSON report to stdout.  Exit codes: 0 success, 1 internal check
failure (a certified bound or invariant was violated), 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import re
import sys
from pathlib import Path

from .arrangement import events_to_json
from .colouring import OrderedColouring
from .decomp import EXACT_TREEWIDTH_MAX, Pipeline, bounds, exact_treewidth, td_to_pace
from .errors import CheckFailure, DegeneracyError, InvariantError, SceneError
from .families import gen_grounded, gen_random, gen_segment_family
from .planarise import (check_coloured_planarisation, coloured_to_dot,
                        coloured_to_json, planarisation_to_dot,
                        planarisation_to_json, scene_to_svg)
from .product_model import verify_model, walk_weak_diameter
from .scene import dumps_canonical, load_scene


FORMATS = ("dot", "json", "svg", "td")

# gen --family -> (generator, its --params and their defaults); a generator
# with a seed parameter also gets --seed
FAMILIES = {
    "segment": (gen_segment_family, {"t": 2}),
    "random": (gen_random, {"n": 6, "crossings_per_pair": 2}),
    "grounded": (gen_grounded, {"n": 6}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (SceneError, DegeneracyError) as exc:
        _emit({"error": str(exc), "kind": "invalid-input"})
        return 2
    except (CheckFailure, InvariantError) as exc:
        _emit({"error": str(exc), "kind": "check-failure"})
        return 1
    except OSError as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}", "kind": "invalid-input"})
        return 2
    _emit(report)
    return 0 if report.get("ok", True) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="strandkit",
        description="certified combinatorial structure of curve arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, **flags):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if flags.get("inp"):
            p.add_argument("--in", dest="inp", required=True,
                           help="input scene JSON")
        if flags.get("out"):
            p.add_argument("--out", help="output directory for artifacts")
        if flags.get("colouring"):
            p.add_argument("--colouring", help="ordered colouring JSON; "
                           "default: greedy on the reverse degeneracy order")
        if flags.get("fmt"):
            p.add_argument("--format", default="json",
                           help="comma-separated: json,dot,svg,td")
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

def _emit(obj: dict) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _write(args, name: str, text: str) -> None:
    if args.out is None:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _write_json(args, name: str, obj) -> None:
    _write(args, name, dumps_canonical(obj))


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
    if getattr(args, "colouring", None):
        try:
            data = json.loads(Path(args.colouring).read_text())
        except (ValueError, RecursionError) as exc:
            raise SceneError(f"colouring file is not valid JSON: {exc}") from exc
        p.given = OrderedColouring.from_json(data)
    p.cut
    return p.colouring


# ------------------------------------------------------------- subcommands

def _cmd_arrange(args) -> dict:
    fmts = _formats(args)
    p = Pipeline(load_scene(args.inp))
    events, G = p.events, p.graph
    _write_json(args, "events.json", events_to_json(events))
    _write_json(args, "graph.json",
                {"vertices": G.vertices, "edges": G.edge_list()})
    if "dot" in fmts:
        lines = ["graph G {"]
        lines += [f'  "{v}";' for v in G.vertices]
        lines += [f'  "{u}" -- "{v}";' for u, v in G.edge_list()]
        lines.append("}")
        _write(args, "graph.dot", "\n".join(lines) + "\n")
    return {"command": "arrange", "curves": len(p.scene.curves),
            "events": len(events), "edges": len(G.edge_list())}


def _cmd_planarise(args) -> dict:
    fmts = _formats(args)
    p = Pipeline(load_scene(args.inp))
    plan = p.plan
    _write_json(args, "planarisation.json", planarisation_to_json(plan))
    if "dot" in fmts:
        _write(args, "planarisation.dot", planarisation_to_dot(plan))
    report = {"command": "planarise",
              "vertices": len(plan.embedding.rotation),
              "edges": plan.embedding.edge_count()}
    colouring = _colouring(args, p)
    cp = p.cp
    check_coloured_planarisation(plan, cp)
    _write_json(args, "coloured.json", coloured_to_json(cp))
    if "dot" in fmts:
        _write(args, "coloured.dot", coloured_to_dot(cp))
    if "svg" in fmts and p.scene.is_geometric:
        _write(args, "scene.svg", scene_to_svg(p.scene, colouring))
    # contract_edge keeps the surface, so C' and C^phi have one genus
    report["coloured_vertices"] = len(cp.embedding.rotation)
    report["genus"] = report["coloured_genus"] = p.genus
    return report


def _cmd_colour(args) -> dict:
    p = Pipeline(load_scene(args.inp))
    colouring = _colouring(args, p)
    params = p.params
    _write_json(args, "colouring.json", colouring.to_json())
    _write_json(args, "params.json", params.to_json())
    return {"command": "colour", "colouring": colouring.to_json(),
            "params": params.to_json()}


def _cmd_model(args) -> dict:
    p = Pipeline(load_scene(args.inp))
    _colouring(args, p)
    model, params = p.model, p.params
    check = verify_model(model, p.graph)
    diameters = walk_weak_diameter(p.cp, params)
    _write_json(args, "model.json", model.to_json())
    return {"command": "model", "ok": check["valid"], "check": check,
            "copies": model.copies, "branch_sets": len(model.mu),
            "max_walk_diameter": max(diameters.values(), default=0),
            "r": params.r}


def _cmd_decomp(args) -> dict:
    fmts = _formats(args)
    p = Pipeline(load_scene(args.inp))
    _colouring(args, p)
    result = p.ltw
    td = result["td"]
    _write_json(args, "td.json", td.to_json())
    _write_json(args, "layering.json", result["layering"].to_json())
    if "td" in fmts:
        _write(args, "td.td", td_to_pace(td, p.graph))
    report = {"command": "decomp", "width": td.width,
              "layered_width": result["layered_width"],
              "layered_width_bound": result["bound"],
              "genus": p.genus, "params": p.params.to_json()}
    if len(p.graph) <= EXACT_TREEWIDTH_MAX:
        report["exact_treewidth"] = exact_treewidth(p.graph)
    return report


def _cmd_outerstring(args) -> dict:
    fmts = _formats(args)
    p = Pipeline(load_scene(args.inp))
    _colouring(args, p)
    result = p.outerstring
    td = result["td"]
    _write_json(args, "td.json", td.to_json())
    if "td" in fmts:
        _write(args, "td.td", td_to_pace(td, p.graph))
    return {"command": "outerstring", "width": td.width,
            "bound": result["bound"], "ok": True,
            "t": p.params.t, "d": p.params.d,
            "quotient_radius": result["quotient_radius"]}


def _cmd_localise(args) -> dict:
    result = Pipeline(load_scene(args.inp)).localised
    for name in ("instance", "reduced", "scene"):
        _write_json(args, f"{name}.json", result[name].to_json())
    return {"command": "localise", **{key: result[key] for key in (
        "crossings_before", "crossings_after", "census_before", "census_after")}}


def _cmd_gen(args) -> dict:
    params = _parse_params(args.params)
    generator, defaults = FAMILIES[args.family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise SceneError(f"family {args.family!r} takes {', '.join(sorted(defaults))}, "
                         f"got {', '.join(unknown)}")
    kwargs = {**defaults, **params}
    if "seed" in inspect.signature(generator).parameters:
        kwargs["seed"] = args.seed
    scene = generator(**kwargs)
    _write_json(args, "scene.json", scene.to_json())
    return {"command": "gen", "family": args.family, "seed": args.seed,
            "curves": len(scene.curves)}


def _cmd_bounds(args) -> dict:
    params = _parse_params(args.params)
    value = bounds(args.theorem, params)
    return {"command": "bounds", "theorem": args.theorem,
            "params": params, "value": value}


def _cmd_verify(args) -> dict:
    """Run every applicable checker; ok=false (exit 1) on any failure."""
    p = Pipeline(load_scene(args.inp))
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
            "params": params.to_json(), "genus": genus}


if __name__ == "__main__":
    sys.exit(main())
