"""The JSON trees that strandkit once built for its artifacts, kept as the
oracles of the writers that replaced them.

strandkit wrote each artifact as dumps_canonical(tree), the tree built by
one of the functions below.  Each record is now written straight to the
same text by a writer of strandkit.formats (dumps_scene, dumps_events,
dumps_graph, dumps_planarisation, dumps_coloured, dumps_model, dumps_td,
dumps_layering and dumps_instances), and test_emitters.py holds every
writer to dumps_canonical of its tree here.  The tests also read these
trees where they compare records or build scene JSON, and point_to_json
where they write a point.  td_to_pace is the PACE writer that
formats.td_to_pace replaced.
"""

import sys

from strandkit.errors import SceneError


def point_to_json(p) -> list:
    return [[p.x.numerator, p.x.denominator], [p.y.numerator, p.y.denominator]]


def scene_to_json(scene) -> dict:
    curves = []
    for cid in sorted(scene.curves):
        c = scene.curves[cid]
        entry: dict = {"id": c.id}
        if c.points is not None:
            entry["points"] = [point_to_json(p) for p in c.points]
        else:
            entry["crossings"] = list(c.crossings)
            if c.twists:
                entry["twists"] = sorted(c.twists)
        if c.grounded is not None:
            entry["grounded"] = {"disk": c.grounded[0], "end": c.grounded[1]}
        curves.append(entry)
    disks = []
    for did in sorted(scene.disks):
        d = scene.disks[did]
        entry = {"id": d.id}
        if d.center is not None:
            entry["center"] = point_to_json(d.center)
            entry["radius"] = [d.radius.numerator, d.radius.denominator]
        if d.boundary is not None:
            entry["boundary"] = [[c, e] for c, e in d.boundary]
        disks.append(entry)
    out: dict = {"curves": curves, "disks": disks}
    if scene.chirality:
        out["chirality"] = {k: scene.chirality[k] for k in sorted(scene.chirality)}
    return out


def events_to_json(events) -> list[dict]:
    """The events in id order as JSON; a location with an integer longer than
    Python prints is a SceneError naming its crossing."""
    limit = sys.get_int_max_str_digits()
    out = []
    for e in sorted(events, key=lambda e: e.id):
        entry = {
            "id": e.id, "curve_a": e.curve_a, "curve_b": e.curve_b,
            "index_in_a": e.index_in_a, "index_in_b": e.index_in_b,
            "chirality": e.chirality,
        }
        if e.location is not None:
            entry["location"] = location = point_to_json(e.location)
            # 2^(3 limit) < 10^limit, so only a longer int can be unprintable
            if limit and any(n.bit_length() > 3 * limit and abs(n) >= 10 ** limit
                             for pair in location for n in pair):
                raise SceneError(f"crossing {e.id!r}: its location has more digits "
                                 f"than Python prints ({limit})")
        out.append(entry)
    return out


def graph_to_json(G) -> dict:
    return {"vertices": G.vertices, "edges": G.edge_list()}


def planarisation_to_json(plan) -> dict:
    g = plan.embedding
    return {
        "vertices": [{"id": v, "kind": plan.kind[v]} for v in g.vertices()],
        "edges": [{"id": eid, "ends": sorted(g.edge_ends[eid]),
                   "curve": g.edge_label.get(eid)}
                  for eid in sorted(g.edge_ends)],
        "curve_paths": {cid: list(p) for cid, p in sorted(plan.curve_paths.items())},
        "rotation": {v: [list(d) for d in g.rotation[v]] for v in g.vertices()},
    }


def coloured_to_json(cp) -> dict:
    g = cp.embedding
    return {
        "vertices": [{"id": v, "level": cp.level[v],
                      "kind": "endpoint" if v in cp.endpoints else "contracted"}
                     for v in g.vertices()],
        "edges": [{"id": eid, "ends": sorted(g.edge_ends[eid]),
                   "curve": g.edge_label.get(eid)}
                  for eid in sorted(g.edge_ends)],
        "psi": {v: cp.psi[v] for v in sorted(cp.psi)},
        "walks": {cid: list(w) for cid, w in sorted(cp.walks.items())},
    }


def model_to_json(model) -> dict:
    return {v: sorted([h, c] for h, c in model.mu[v]) for v in sorted(model.mu)}


def td_to_json(td) -> dict:
    return {
        "nodes": list(td.nodes),
        "edges": [sorted(e) for e in td.edges],
        "bags": {str(n): sorted(str(v) for v in td.bags[n]) for n in td.nodes},
        "width": td.width,
    }


def layering_to_json(layering) -> dict:
    return {"layers": [sorted(str(v) for v in layer) for layer in layering.layers]}


def instance_to_json(inst) -> dict:
    return {
        "H": {"vertices": [list(v) for v in inst.H.vertices],
              "edges": [[list(p), list(q)] for p, q in inst.H.edge_list()]},
        "pieces": {f"{c}:{i}": [list(a), list(b)]
                   for (c, i), (a, b) in sorted(inst.pieces.items())},
        "R": sorted(sorted(f"{c}:{i}" for c, i in pair) for pair in inst.R),
        "sigma": {c: list(v) for c, v in sorted(inst.sigma.items())},
        "drawing": {f"{c}:{i}": list(xs)
                    for (c, i), xs in sorted(inst.drawing.items())},
    }


def td_to_pace(td, G) -> str:
    """PACE-style text: header, bag lines, tree edge lines; bit-exact."""
    verts = G.vertices
    vid = {v: i + 1 for i, v in enumerate(sorted(verts, key=str))}
    nid = {n: i + 1 for i, n in enumerate(sorted(td.nodes, key=str))}
    lines = [f"s td {len(td.nodes)} {td.width + 1} {len(verts)}"]
    for n in sorted(td.nodes, key=str):
        ids = sorted(vid[v] for v in td.bags[n])
        lines.append("b " + " ".join(str(x) for x in [nid[n]] + ids))
    for a, b in sorted((min(nid[a], nid[b]), max(nid[a], nid[b]))
                       for a, b in td.edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
