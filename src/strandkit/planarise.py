"""Planarisation of a scene, and the coloured planarisation with its levels,
contraction map and per-curve walks.

The planarisation C' replaces every crossing by a degree-4 dummy vertex and
adds the curve endpoints as degree-1 vertices; each curve gamma contributes a
path L_gamma.  Under an ordered colouring, the colour cut
(colouring.colour_sections) splits the dummies of L_gamma into sections at
crossings with smaller-coloured curves.  Contracting every section to a
point yields the coloured planarisation with contraction map psi and walks
W_gamma = psi(L_gamma) with consecutive duplicates merged.

Note on walks: if two curves cross, their walks share a vertex.  The
converse fails: two non-crossing curves that both cross the same section of
a third curve meet at its contracted vertex.  check_coloured_planarisation
asserts only the forward direction.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .embedding import EmbeddedGraph
from .errors import InvariantError, SceneError
from .graph import Graph
from .scene import CrossingEvent, StringScene


def endpoint_id(curve_id: str, end: int) -> str:
    return f"e:{curve_id}:{end}"


def _edge_id(curve_id: str, i: int) -> str:
    return f"c:{curve_id}:{i}"


class Planarisation(NamedTuple):
    embedding: EmbeddedGraph
    kind: dict                 # vertex -> "endpoint" | "dummy"
    curve_paths: dict          # curve id -> list of vertices (L_gamma)
    events: dict               # event id -> CrossingEvent

    def dummies(self) -> list:
        return sorted(v for v, k in self.kind.items() if k == "dummy")


def planarise(scene: StringScene, events: list[CrossingEvent],
              along: dict) -> Planarisation:
    """Build C' with its rotation system (and arc signatures, if twisted)."""
    for cid, mine in along.items():
        if not mine:
            raise SceneError(f"curve {cid!r} crosses no other curve; every curve "
                             "needs a crossing to be planarised")
    # curve ends and crossings are the vertices of C', named in one namespace
    end_of = {endpoint_id(cid, end): cid for cid in along for end in (0, 1)}
    for e in events:
        if e.id in end_of:
            raise SceneError(f"crossing {e.id!r} has the id of an end of curve {end_of[e.id]!r}")

    edge_ids = {cid: [_edge_id(cid, i) for i in range(len(mine) + 1)]
                for cid, mine in along.items()}
    # rotation at each dummy follows the chirality sign: with a the lex-smaller
    # curve, +1 means [a-next, b-next, a-prev, b-prev] (counter-clockwise when
    # a heads east and b north), -1 the mirror order
    at: dict = {}
    for e in events:
        ea, eb = edge_ids[e.curve_a], edge_ids[e.curve_b]
        ja, jb = e.index_in_a, e.index_in_b
        a_prev, a_next = (ea[ja], 1), (ea[ja + 1], 0)
        b_prev, b_next = (eb[jb], 1), (eb[jb + 1], 0)
        at[e.id] = ([a_next, b_next, a_prev, b_prev] if e.chirality == 1
                    else [a_next, b_prev, a_prev, b_next])

    # one pass along the curves: edges by curve and then by index, each
    # vertex's rotation placed where the vertex first appears
    ends, signature, rotation, label = {}, {}, {}, {}
    kind, paths = {}, {}
    for cid, mine in along.items():
        path = [endpoint_id(cid, 0)] + [e.id for e in mine] + [endpoint_id(cid, 1)]
        paths[cid] = path
        kind[path[0]] = kind[path[-1]] = "endpoint"
        eids = edge_ids[cid]
        rotation[path[0]] = [(eids[0], 0)]
        for e in mine:
            kind[e.id] = "dummy"
            rotation[e.id] = at[e.id]
        rotation[path[-1]] = [(eids[-1], 1)]
        twists = set(scene.curves[cid].twists)
        for i, eid in enumerate(eids):
            ends[eid] = (path[i], path[i + 1])
            signature[eid] = -1 if i in twists else 1
            label[eid] = cid
    g = EmbeddedGraph(ends, signature, rotation, label)

    # the edge ids c:<curve>:<i> are distinct, as the text after the last ':'
    # is i; so once check finds each dart listed once at its tail, C' has one
    # vertex per curve end and crossing, one edge per path step, and degrees
    # 1 and 4
    g.check()
    return Planarisation(g, kind, paths, {e.id: e for e in events})


class ColouredPlanarisation:
    def __init__(self, embedding: EmbeddedGraph, level: dict, psi: dict,
                 walks: dict, endpoints: set, sections: dict, phi: dict):
        self.embedding = embedding     # multigraph, for genus
        self.level = level             # C^phi vertex -> level
        self.psi = psi                 # V(C') -> V(C^phi)
        self.walks = walks             # curve id -> walk W_gamma
        self.endpoints = endpoints     # E_C inside C^phi
        self.sections = sections       # representative -> list of C' vertices (fibre)
        self.phi = phi                 # curve id -> colour

    @cached_property
    def graph(self) -> Graph:
        """The simple graph of C^phi, built on first use; read-only."""
        return self.embedding.simple_graph()


def coloured_planarisation(plan: Planarisation, colouring,
                           cut: dict) -> ColouredPlanarisation:
    """Contract every section of C' to a single vertex.

    The sections are the runs of each curve's cut, indexing path[1:-1] of
    L_gamma.  The representative of a section is its first vertex along the
    curve, so single-vertex sections keep their ids and C^phi = C' when
    nothing contracts.  C^phi is psi's image of C', built in one pass that
    leaves C' as it was: its edges are those of C' on no section path, ends
    mapped by psi (parallel edges become loops).  Along a section, each path
    edge's dart is replaced by the next vertex's rotation, read cyclically
    from just after the edge's other dart.  A path edge still twisted after
    the flips before it first flips that vertex: reverses its rotation and
    negates every signature at it.  That is edge contraction, which keeps
    the surface, so Euler genus can still be read off the result.
    """
    phi = dict(colouring.phi)
    secs: dict = {}
    sec_at: dict = {}          # representative -> (curve id, position on L)
    owner: dict = {}
    for cid in sorted(plan.curve_paths):
        path = plan.curve_paths[cid]
        for run in cut[cid][0]:
            sec = path[run.start + 1:run.stop + 1]
            rep = sec[0]
            secs[rep] = sec
            sec_at[rep] = (cid, run.start + 1)
            for v in sec:
                if v in owner:
                    raise InvariantError(
                        f"sections not disjoint: {v!r} in sections of "
                        f"{owner[v]!r} and {cid!r}")
                owner[v] = cid
    for v in plan.dummies():
        if v not in owner:
            raise InvariantError(f"dummy {v!r} lies in no section")

    emb = plan.embedding
    psi = {v: v for v in plan.kind}
    spliced: dict = {}         # representative -> its rotation in C^phi
    path_edges = set()
    negated = []               # each edge once per dart at a flipped vertex
    for rep in sorted(secs):
        sec = secs[rep]
        cid, pos = sec_at[rep]
        spliced[rep] = rot = list(emb.rotation[rep])
        o = 1                  # -1 at each w that contraction flips
        for off, w in enumerate(sec[1:]):
            eid = _edge_id(cid, pos + off)
            path_edges.add(eid)
            o *= emb.signature[eid]
            rw = emb.rotation[w][::o]
            if o == -1:
                negated += [e for e, _ in rw]
            i, j = rw.index((eid, 1)), rot.index((eid, 0))
            rot[j:j + 1] = rw[i + 1:] + rw[:i]
            psi[w] = rep
    ends = {e: (psi[a], psi[b]) for e, (a, b) in emb.edge_ends.items()
            if e not in path_edges}
    sig = {e: emb.signature[e] for e in ends}
    for e in negated:
        if e in ends:
            sig[e] *= -1
    g = EmbeddedGraph(ends, sig,
                      {v: spliced[v] if v in spliced else list(rot)
                       for v, rot in emb.rotation.items() if psi[v] == v},
                      {e: c for e, c in emb.edge_label.items() if e in ends})

    level = {v: 0 if plan.kind[v] == "endpoint" else phi[sec_at[v][0]]
             for v in g.rotation}

    walks = {}
    for cid in sorted(plan.curve_paths):
        walk = []
        for v in plan.curve_paths[cid]:
            x = psi[v]
            if not walk or walk[-1] != x:
                walk.append(x)
        walks[cid] = walk

    cp = ColouredPlanarisation(
        embedding=g, level=level, psi=psi, walks=walks,
        endpoints={v for v, k in plan.kind.items() if k == "endpoint"},
        sections=secs, phi=phi)
    _check_contraction(plan, cp)
    return cp


def _check_contraction(plan: Planarisation, cp: ColouredPlanarisation) -> None:
    shrink = sum(len(s) - 1 for s in cp.sections.values())
    if len(plan.kind) - len(cp.embedding.rotation) != shrink:
        raise InvariantError("contraction count mismatch")
    for v in cp.endpoints:
        if cp.psi[v] != v:
            raise InvariantError(f"psi moved endpoint {v!r}")
    for cid, walk in cp.walks.items():
        for x in walk:
            if cp.level[x] > cp.phi[cid]:
                raise InvariantError(
                    f"walk of {cid!r} visits {x!r} of level {cp.level[x]}")
