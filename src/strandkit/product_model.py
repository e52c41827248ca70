"""Minor models in strong products (C^phi - E_C) x K_{d+1}, with checkers.

The model sends each curve's vertex to the branch set
mu(v) = {(x, lambda_x(v)) : x in W_v \\ E_C} where lambda_x injectively
assigns copies to the curves whose walks visit x; build_model asserts that
each projection is W_v \\ E_C.  The checkers are independent of the builder.
verify_model checks the model clauses on host projections, which the
definition of the strong product allows; the product is never materialised.
The distance checks measure BFS distances on the coloured planarisation
itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError, SceneError
from .graph import Graph, ball_masks, bfs_distances, connected_components
from .planarise import ColouredPlanarisation, endpoint_id
from .scene import _PAIR, _list, _object, _str


class MinorModel(NamedTuple):
    mu: dict              # target vertex -> frozenset of (host vertex, copy)
    host: Graph           # the host graph (first coordinate)
    copies: int           # size of the clique factor

    def projection(self, v) -> set:
        return {h for h, _ in self.mu[v]}

    def dumps(self) -> str:
        """Canonical JSON: each branch set as its sorted [host vertex, copy]
        pairs, in target vertex order."""
        mu = self.mu
        return _object([(v, _list([_PAIR[2] % (_str(h), c) for h, c in sorted(mu[v])], 1))
                        for v in sorted(mu)], 0) + "\n"


def host_without_endpoints(cp: ColouredPlanarisation) -> Graph:
    return cp.graph.subgraph(set(cp.graph.adj) - cp.endpoints)


def build_model(cp: ColouredPlanarisation, params) -> MinorModel:
    """Branch sets B_x with injective copy assignment in curve-id order."""
    d = params.d
    host = host_without_endpoints(cp)
    b: dict = {}
    for cid in sorted(cp.walks):
        for x in cp.walks[cid]:
            if x not in cp.endpoints:
                b.setdefault(x, set()).add(cid)
    lam: dict = {}
    for x in sorted(b):
        if len(b[x]) > d + 1:
            raise InvariantError(f"parameter d understated at vertex {x!r}: "
                                 f"{len(b[x])} curves > d+1 = {d + 1}")
        lam[x] = {cid: i + 1 for i, cid in enumerate(sorted(b[x]))}
    mu = {}
    for cid in sorted(cp.walks):
        mu[cid] = frozenset((x, lam[x][cid]) for x in cp.walks[cid]
                            if x not in cp.endpoints)
    return MinorModel(mu, host, d + 1)


def verify_model(model: MinorModel, G: Graph) -> dict:
    """Check the model clauses independently of the builder.

    In host x K_c, (h, c) and (h', c') are adjacent iff h = h' and c != c',
    or hh' is a host edge.  So a branch set is connected iff its projection
    is connected in the host, and two disjoint branch sets touch iff their
    projections meet or a host edge joins them.  A first coordinate that is
    not a host vertex has no host edges.
    """
    mu = model.mu
    verts = G.vertices
    if sorted(mu) != verts:
        return {"valid": False, "violated_clause": "domain",
                "detail": "branch sets do not cover V(G) exactly"}
    for v in verts:
        if not mu[v]:
            return {"valid": False, "violated_clause": "non-empty", "detail": v}
    seen: dict = {}
    for v in verts:
        for pv in mu[v]:
            if pv in seen:
                return {"valid": False, "violated_clause": "disjoint",
                        "detail": f"{pv} in mu({seen[pv]!r}) and mu({v!r})"}
            seen[pv] = v
    host = model.host
    proj = {v: model.projection(v) for v in verts}
    for v in verts:
        if len(connected_components(host.subgraph(proj[v]))) != 1:
            return {"valid": False, "violated_clause": "connected", "detail": v}
    # the closed host neighbourhood of each projection
    reach = {v: proj[v].union(*(host.adj.get(h, ()) for h in proj[v]))
             for v in verts}
    for v in verts:
        for w in G.neighbours(v):
            if w > v and reach[v].isdisjoint(proj[w]):
                return {"valid": False, "violated_clause": "edge-coverage",
                        "detail": f"{v}{w}"}
    return {"valid": True, "violated_clause": None, "detail": None}


def walk_weak_diameter(cp: ColouredPlanarisation, params) -> dict:
    """Max pairwise distance inside each walk, measured in C^phi.

    Endpoint vertices have degree 1, so distances between non-endpoint
    vertices are the same whether or not E_C is present; the value is
    asserted against the bound r = (2k+1) sum k^j.

    The balls around all inner walk vertices grow together (ball_masks); a
    walk's diameter is the first radius at which each of its vertices
    reaches all of them.  A vertex that reaches its walk keeps reaching it,
    so each walk's sorted inner vertices are popped from the end while the
    last one does.  A walk still short of that at the fixpoint is
    disconnected.
    """
    bit: dict = {}
    short: dict = {}    # curve id -> (inner vertices not yet covering, walk mask)
    for cid in sorted(cp.walks):
        inner = sorted(set(cp.walks[cid]) - cp.endpoints)
        m = 0
        for x in inner:
            m |= 1 << bit.setdefault(x, len(bit))
        short[cid] = (inner, m)
    diam = {cid: 0 for cid, (inner, _) in short.items() if not inner}
    for k, masks in ball_masks(cp.graph, list(bit)):
        for cid, (left, m) in list(short.items()):
            while left and masks[left[-1]] & m == m:
                left.pop()
            if not left:
                diam[cid] = k
                del short[cid]
        if not short:
            break
    for cid in sorted(cp.walks):
        if cid not in diam:
            raise InvariantError(f"walk of {cid!r} disconnected in C^phi")
        if diam[cid] > params.r:
            raise InvariantError(
                f"walk weak diameter of {cid!r} is {diam[cid]} > r = {params.r}")
    return {cid: diam[cid] for cid in sorted(cp.walks)}


def grounded_distance_check(cp: ColouredPlanarisation, Y) -> int:
    """Max over non-endpoint vertices of the distance to Y; asserted <= t-1.

    Y must contain at least one endpoint of every curve.
    """
    Y = set(Y)
    for cid in sorted(cp.walks):
        ends = {endpoint_id(cid, 0), endpoint_id(cid, 1)}
        if not ends & Y:
            raise SceneError(f"curve {cid!r} has no endpoint in Y")
    if not Y <= cp.endpoints:
        raise SceneError("Y contains non-endpoint vertices")
    g = cp.graph
    dist = bfs_distances(g, Y)
    t = max(cp.phi.values())
    worst = 0
    for x in g.vertices:
        if x in cp.endpoints:
            continue
        if x not in dist:
            raise InvariantError(f"vertex {x!r} unreachable from Y")
        worst = max(worst, dist[x])
    if worst > t - 1:
        raise InvariantError(f"grounded distance {worst} exceeds t-1 = {t - 1}")
    return worst
