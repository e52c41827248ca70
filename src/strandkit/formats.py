"""The text of every report and artifact: canonical JSON, DOT, PACE and SVG.

Each writer reads its record by field and returns its text; nothing here
builds a record, and cli.main is the one place that writes a file.  The
canonical JSON writers write what dumps_canonical writes for the record's
JSON tree, with no tree in between.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .errors import SceneError


def dumps_canonical(obj) -> str:
    """Byte-stable JSON of a report or a small artifact.

    The text is json.dumps(obj, sort_keys=True, indent=2) + "\n", written
    directly: json.dumps falls back to its pure-Python chunk generator once
    an indent is set.  Values may be str, int, bool, None, list, tuple or
    dict with str keys; anything else raises TypeError.  The larger artifacts
    write the same text straight from their records, with the helpers below.
    """
    return _canonical(obj, "\n") + "\n"


def _canonical(obj, indent: str) -> str:
    """One value at the given newline-plus-indent, tested in json's order."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_canonical(v, inner) for v in obj])
                + indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _canonical(value, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ------------------------------------------------- canonical text of records
#
# Each record's writer writes what dumps_canonical writes for its JSON tree,
# with no tree: keys in sorted order, written where they stand, and a list
# of ids joined in one call.  depth is the nesting level of the value, and
# the value's items stand at depth + 1.

_NL = tuple("\n" + "  " * k for k in range(12))     # newline and indent at each depth
_SEP = tuple("," + nl for nl in _NL)
_str = encode_basestring_ascii
# _PAIR[depth] % (a, b) is the list [a, b] of two values already written
_PAIR = tuple("[" + b + "%s," + b + "%s" + a + "]" for a, b in zip(_NL, _NL[1:]))


def _list(texts: list, depth: int) -> str:
    """A list of values already written at depth + 1."""
    if not texts:
        return "[]"
    return "[" + _NL[depth + 1] + _SEP[depth + 1].join(texts) + _NL[depth] + "]"


def _object(items: list, depth: int) -> str:
    """An object of (key, value text) pairs, in sorted key order, each value
    written at depth + 1."""
    if not items:
        return "{}"
    sep = _SEP[depth + 1]
    return ("{" + _NL[depth + 1]
            + sep.join([_str(k) + ": " + v for k, v in items])
            + _NL[depth] + "}")


def _strs(items, depth: int) -> str:
    """A list of strings."""
    return _list(list(map(_str, items)), depth)


def _ints(items, depth: int) -> str:
    """A list of ints."""
    return _list(list(map(int.__repr__, items)), depth)


def _pairs(pairs, depth: int) -> str:
    """A list of [a, b] lists of strings."""
    pair = _PAIR[depth + 1]
    return _list([pair % (_str(a), _str(b)) for a, b in pairs], depth)


def _str_lists(lists: dict, depth: int) -> str:
    """An object of lists of strings, in key order."""
    return _object([(k, _strs(v, depth + 1)) for k, v in sorted(lists.items())], depth)


def _point(p, depth: int) -> str:
    """[[x numerator, x denominator], [y numerator, y denominator]]."""
    x, y = p
    pair = _PAIR[depth + 1]
    return _PAIR[depth] % (pair % (x.numerator, x.denominator),
                           pair % (y.numerator, y.denominator))


def dumps_scene(scene) -> str:
    """The scene as canonical JSON: curves and disks in id order, with
    chirality only when there is one."""
    curves = []
    for cid in sorted(scene.curves):
        c = scene.curves[cid]
        entry = []                # (key, text) in key order
        if c.points is None:
            entry.append(("crossings", _strs(c.crossings, 3)))
        if c.grounded is not None:
            disk, end = c.grounded
            entry.append(("grounded", _object([("disk", _str(disk)), ("end", str(end))], 3)))
        entry.append(("id", _str(c.id)))
        if c.points is not None:
            entry.append(("points", _list([_point(p, 4) for p in c.points], 3)))
        elif c.twists:
            entry.append(("twists", _ints(sorted(c.twists), 3)))
        curves.append(_object(entry, 2))
    disks = []
    for did in sorted(scene.disks):
        d = scene.disks[did]
        entry = []
        if d.boundary is not None:
            ends = [_PAIR[4] % (_str(c), e) for c, e in d.boundary]
            entry.append(("boundary", _list(ends, 3)))
        if d.center is not None:
            entry.append(("center", _point(d.center, 3)))
        entry.append(("id", _str(d.id)))
        if d.center is not None:
            entry.append(("radius", _ints((d.radius.numerator, d.radius.denominator), 3)))
        disks.append(_object(entry, 2))
    out = [("curves", _list(curves, 1)), ("disks", _list(disks, 1))]
    if scene.chirality:
        out.insert(0, ("chirality", _object(
            [(k, str(scene.chirality[k])) for k in sorted(scene.chirality)], 1)))
    return _object(out, 0) + "\n"


def dumps_events(events: list) -> str:
    """The events in id order as canonical JSON; a location with an integer
    longer than Python prints is a SceneError naming its crossing."""
    limit = sys.get_int_max_str_digits()
    out = []
    for e in sorted(events, key=attrgetter("id")):
        text = _EVENT % (e.chirality, _str(e.curve_a), _str(e.curve_b), _str(e.id),
                         e.index_in_a, e.index_in_b)
        if e.location is not None:
            x, y = e.location
            # 2^(3 limit) < 10^limit, so only a longer int can be unprintable
            if limit and any(n.bit_length() > 3 * limit and abs(n) >= 10 ** limit
                             for n in (x.numerator, x.denominator,
                                       y.numerator, y.denominator)):
                raise SceneError(f"crossing {e.id!r}: its location has more digits "
                                 f"than Python prints ({limit})")
            text += ',' + _NL[2] + '"location": ' + _point(e.location, 2)
        out.append(text + _NL[1] + "}")
    return _list(out, 0) + "\n"


# an event's keys in sorted order, up to its location
_EVENT = ("{" + _NL[2] + '"chirality": %d,' + _NL[2] + '"curve_a": %s,'
          + _NL[2] + '"curve_b": %s,' + _NL[2] + '"id": %s,'
          + _NL[2] + '"index_in_a": %d,' + _NL[2] + '"index_in_b": %d')


def dumps_graph(G) -> str:
    """The intersection graph as canonical JSON: its edges and vertices."""
    return _object([("edges", _pairs(G.edge_list(), 1)),
                    ("vertices", _strs(G.vertices, 1))], 0) + "\n"


def dumps_planarisation(plan) -> str:
    """C' as canonical JSON: its curve paths, its edges in id order with
    their sorted ends and curve, the rotation at each vertex and each
    vertex's kind."""
    g, kind, dart = plan.embedding, plan.kind, _PAIR[3]
    return _object([
        ("curve_paths", _str_lists(plan.curve_paths, 1)),
        ("edges", _edges(g)),
        ("rotation", _object([(v, _list([dart % (_str(eid), side) for eid, side in rot], 2))
                              for v, rot in sorted(g.rotation.items())], 1)),
        ("vertices", _list([_VERTEX % (_str(v), _str(kind[v])) for v in g.vertices()], 1)),
    ], 0) + "\n"


def dumps_coloured(cp) -> str:
    """C^phi as canonical JSON: its edges as in dumps_planarisation, psi, the
    walks, and each vertex's kind and level."""
    g, psi = cp.embedding, cp.psi
    return _object([
        ("edges", _edges(g)),
        ("psi", _object([(v, _str(psi[v])) for v in sorted(psi)], 1)),
        ("vertices", _list([_LEVELLED % (_str(v), "endpoint" if v in cp.endpoints
                                         else "contracted", cp.level[v])
                            for v in g.vertices()], 1)),
        ("walks", _str_lists(cp.walks, 1)),
    ], 0) + "\n"


def _edges(g) -> str:
    label = g.edge_label
    out = []
    for eid in sorted(g.edge_ends):
        u, v = g.edge_ends[eid]
        curve = label.get(eid)
        out.append(_EDGE % ("null" if curve is None else _str(curve),
                            _str(min(u, v)), _str(max(u, v)), _str(eid)))
    return _list(out, 1)


# an edge and a vertex of "edges" and "vertices"
_EDGE = ("{" + _NL[3] + '"curve": %s,' + _NL[3] + '"ends": [' + _NL[4] + "%s,"
         + _NL[4] + "%s" + _NL[3] + "]," + _NL[3] + '"id": %s' + _NL[2] + "}")
_VERTEX = "{" + _NL[3] + '"id": %s,' + _NL[3] + '"kind": %s' + _NL[2] + "}"
_LEVELLED = ("{" + _NL[3] + '"id": %s,' + _NL[3] + '"kind": "%s",' + _NL[3]
             + '"level": %d' + _NL[2] + "}")


def dumps_model(model) -> str:
    """Canonical JSON: each branch set as its sorted [host vertex, copy]
    pairs, in target vertex order."""
    mu = model.mu
    return _object([(v, _list([_PAIR[2] % (_str(h), c) for h, c in sorted(mu[v])], 1))
                    for v in sorted(mu)], 0) + "\n"


def dumps_td(td) -> str:
    """Canonical JSON: each bag as the sorted str of its vertices, under
    the str of its node, the tree edges and nodes, and the width."""
    bags = [(str(n), _strs(sorted(map(str, td.bags[n])), 2))
            for n in sorted(td.nodes, key=str)]
    return _object([
        ("bags", _object(bags, 1)),
        ("edges", _list([_ints(sorted(e), 2) for e in td.edges], 1)),
        ("nodes", _ints(td.nodes, 1)),
        ("width", str(td.width)),
    ], 0) + "\n"


def dumps_layering(layering) -> str:
    """Canonical JSON: each layer as the sorted str of its vertices."""
    layers = [_strs(sorted(map(str, layer)), 2) for layer in layering.layers]
    return _object([("layers", _list(layers, 1))], 0) + "\n"


def td_to_pace(td, G) -> str:
    """PACE-style text: header, bag lines, tree edge lines; bit-exact."""
    verts = G.vertices
    vid = {v: i + 1 for i, v in enumerate(sorted(verts, key=str))}
    nid = {n: i + 1 for i, n in enumerate(sorted(td.nodes, key=str))}
    lines = [f"s td {len(td.nodes)} {td.width + 1} {len(verts)}"]
    for n in sorted(td.nodes, key=str):
        ids = sorted(map(vid.__getitem__, td.bags[n]))
        lines.append(" ".join(map(str, ["b", nid[n], *ids])))
    for a, b in sorted((min(nid[a], nid[b]), max(nid[a], nid[b]))
                       for a, b in td.edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def dumps_instances(instances: list) -> list[str]:
    """Each auxiliary instance as canonical JSON: H, R, the drawing, the
    pieces and sigma, a piece named <curve>:<i>.  A section equal to the
    one of the instance before is written once: bigon_reduce passes H, the
    pieces and sigma through, copies R, and often keeps the drawing."""
    texts, last = [], {}
    for inst in instances:
        sections = []
        for key, dumps in _SECTIONS:
            value = getattr(inst, key)
            before = last.get(key)
            if before is None or before[0] != value:
                last[key] = before = (value, dumps(value))
            sections.append((key, before[1]))
        texts.append(_object(sections, 0) + "\n")
    return texts


def _dumps_H(H) -> str:
    edges = _list([_pairs(edge, 3) for edge in H.edge_list()], 2)
    return _object([("edges", edges), ("vertices", _pairs(H.vertices, 2))], 1)


def _dumps_R(R: set) -> str:
    return _pairs(sorted(sorted(f"{c}:{i}" for c, i in pair) for pair in R), 1)


def _dumps_drawing(drawing: dict) -> str:
    return _object(sorted((f"{c}:{i}", _strs(xs, 2)) for (c, i), xs in drawing.items()), 1)


def _dumps_pieces(pieces: dict) -> str:
    return _object(sorted((f"{c}:{i}", _pairs(ends, 2))
                          for (c, i), ends in pieces.items()), 1)


def _dumps_sigma(sigma: dict) -> str:
    return _str_lists(sigma, 1)


# the sections of an instance in key order, each with its writer
_SECTIONS = (("H", _dumps_H), ("R", _dumps_R), ("drawing", _dumps_drawing),
             ("pieces", _dumps_pieces), ("sigma", _dumps_sigma))


# ------------------------------------------------------------------ DOT, SVG

def _xml_text(text: str) -> str:
    """text with &, < and > written as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def dot_id(text: str) -> str:
    """text as a DOT id that reads back as text.  A quoted id reads '\\"' as
    '"' and drops a backslash before a newline, so it cannot end in one, and
    text with a backslash is an HTML string, <text> with &, < and > as
    entities.  Other text is quoted, each '"' in it written as '\\"'."""
    if "\\" in text:
        return "<" + _xml_text(text) + ">"
    return '"' + text.replace('"', '\\"') + '"'


def _dot(g, attr) -> str:
    """DOT text of g: each vertex with the attribute text attr(v), each edge
    in id order with its label."""
    lines = ["graph {"]
    lines.extend(f"  {dot_id(v)} [{attr(v)}];" for v in g.vertices())
    for eid in sorted(g.edge_ends):
        u, v = g.edge_ends[eid]
        lines.append(f"  {dot_id(u)} -- {dot_id(v)} "
                     f"[label={dot_id(g.edge_label.get(eid, ''))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(G) -> str:
    lines = ["graph G {"]
    lines += [f"  {dot_id(v)};" for v in G.vertices]
    lines += [f"  {dot_id(u)} -- {dot_id(v)};" for u, v in G.edge_list()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def planarisation_to_dot(plan) -> str:
    return _dot(plan.embedding, lambda v: f'kind="{plan.kind[v]}"')


def coloured_to_dot(cp) -> str:
    return _dot(cp.embedding, lambda v: f"level={cp.level[v]}")


_SVG_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b",
                "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#ff7f0e"]


def scene_to_svg(scene, colouring=None) -> str:
    """Presentation-only SVG of a geometric scene.

    Curves are coloured by their colour class when a colouring is given.
    Never parsed back; a number beyond float range, given or drawn, is a
    SceneError naming its owner.
    """
    if not scene.is_geometric:
        raise SceneError("SVG emission needs a geometric scene")
    phi = colouring.phi if colouring is not None else {}

    def floats(what: str, values) -> list[float]:
        try:
            return [float(v) for v in values]
        except OverflowError:
            raise SceneError(f"{what}: a coordinate is beyond float range, "
                             "so SVG cannot draw it") from None

    def drawn(what: str, values: list) -> list[float]:
        if all(map(math.isfinite, values)):
            return values
        raise SceneError(f"{what}: a drawn number is beyond float range, "
                         "so SVG cannot draw it")

    curves = {cid: floats(f"curve {cid!r}", [v for p in scene.curves[cid].points for v in p])
              for cid in scene.curve_ids()}
    disks = {did: floats(f"disk {did!r}", (*d.center, d.radius))
             for did, d in sorted(scene.disks.items()) if d.center is not None}
    xs = [x for xy in curves.values() for x in xy[::2]]
    ys = [y for xy in curves.values() for y in xy[1::2]]
    pad = 0.5
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) + pad - x0, max(ys) + pad - y0
    scale = 60.0

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (h - (y - y0)) * scale

    points = {cid: drawn(f"curve {cid!r}", [c for x, y in zip(xy[::2], xy[1::2])
                                            for c in (sx(x), sy(y))])
              for cid, xy in curves.items()}
    circles = [drawn(f"disk {did!r}", [sx(x), sy(y), r * scale])
               for did, (x, y, r) in disks.items()]
    width, height = drawn("scene", [w * scale, h * scale])
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for x, y, r in circles:
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" '
                   f'r="{r:.1f}" fill="#eee" stroke="#999"/>')
    for cid, xy in points.items():
        colour = _SVG_PALETTE[(phi.get(cid, 1) - 1) % len(_SVG_PALETTE)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xy[::2], xy[1::2]))
        out.append(f'<polyline points="{path}" fill="none" stroke="{colour}" '
                   f'stroke-width="1.5"><title>{_xml_text(cid)}</title></polyline>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
