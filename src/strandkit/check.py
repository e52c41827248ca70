"""Checkers of strandkit's certificates, which import no builder: only the
errors and the graph, reading each record by field.  A failed check raises
InvariantError at its first violated clause; verify_model returns the
verdict that the model report prints.
"""

from __future__ import annotations

from .errors import InvariantError, SceneError
from .graph import Graph, ball_masks, bfs_distances, connected_components


def verify_td(td, G: Graph, name: str) -> None:
    """Check that td is a tree decomposition of G; "<name> invalid: <clause>"
    names the first clause it breaks."""
    def invalid(clause: str) -> InvariantError:
        return InvariantError(f"{name} invalid: {clause}")

    verts = G.vertices
    if sorted(td.bags) != sorted(td.nodes):
        raise invalid("bags/nodes mismatch")
    tree = Graph(vertices=td.nodes, edges=td.edges)
    if len(td.nodes) != len(tree) or (td.nodes and len(connected_components(tree)) != 1):
        raise invalid("tree not connected")
    if len(td.edges) != max(len(td.nodes) - 1, 0):
        raise invalid("tree has a cycle")
    where: dict = {v: set() for v in verts}
    for n in td.nodes:
        for v in td.bags[n]:
            if v not in where:
                raise invalid(f"bag vertex {v!r} not in G")
            where[v].add(n)
    # The tree is a spanning tree by now, so the nodes whose bags hold v
    # induce a forest, connected iff it has one edge fewer than nodes.
    inside = dict.fromkeys(verts, 0)
    for a, b in td.edges:
        for v in frozenset(td.bags[a]).intersection(td.bags[b]):
            inside[v] += 1
    for v in verts:
        if not where[v]:
            raise invalid(f"vertex {v!r} uncovered")
        if len(where[v]) - inside[v] != 1:
            raise invalid(f"bags of {v!r} not connected in tree")
    for u, v in G.edge_list():
        if where[u].isdisjoint(where[v]):
            raise invalid(f"edge {u!r}{v!r} uncovered")


def verify_layering(layering, G: Graph, name: str) -> None:
    """Check that layering partitions V(G) with every edge inside a layer or
    between consecutive ones; raises "<name> invalid: <clause>"."""
    idx = {v: i for i, layer in enumerate(layering.layers) for v in layer}
    if sorted(idx) != G.vertices or sum(map(len, layering.layers)) != len(idx):
        raise InvariantError(f"{name} invalid: layers are not a partition of V(G)")
    for u, v in G.edge_list():
        if abs(idx[u] - idx[v]) > 1:
            raise InvariantError(f"{name} invalid: edge {u!r}{v!r} spans layers "
                                 f"{idx[u]} and {idx[v]}")


def verify_model(model, G: Graph) -> dict:
    """The verdict on a minor model of G in host x K_copies.

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
    proj = {v: {h for h, _ in mu[v]} for v in verts}
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


def check_coloured_planarisation(plan, cp) -> None:
    """Deep invariant audit of a coloured planarisation.

    Raises InvariantError on the first violated clause: the psi-fibre
    partition, uniqueness of the level-defining curve per contracted vertex,
    no consecutive own-level vertices in any walk, and walks of two curves
    sharing a vertex exactly when the curves cross.
    """
    # psi fibres partition V(C')
    fibres: dict = {}
    for v, x in cp.psi.items():
        fibres.setdefault(x, set()).add(v)
    if sum(len(f) for f in fibres.values()) != len(plan.kind):
        raise InvariantError("psi fibres do not cover V(C')")
    for x, fibre in fibres.items():
        if x in cp.endpoints:
            if fibre != {x}:
                raise InvariantError(f"endpoint fibre of {x!r} not a singleton")
        elif fibre != set(cp.sections[x]):
            raise InvariantError(f"fibre of {x!r} is not its section")

    # exactly one curve gamma with phi(gamma) = level(x) and x in W_gamma,
    # and L_gamma contains the whole fibre
    walk_sets = {cid: set(walk) for cid, walk in cp.walks.items()}
    walks_at: dict = {}        # vertex -> the curves whose walks visit it
    for cid, walk in walk_sets.items():
        for x in walk:
            walks_at.setdefault(x, []).append(cid)
    path_sets = {cid: set(path) for cid, path in plan.curve_paths.items()}
    for x in sorted(cp.level):
        if x in cp.endpoints:
            continue
        witnesses = [cid for cid in walks_at.get(x, ())
                     if cp.phi[cid] == cp.level[x]]
        if len(witnesses) != 1:
            raise InvariantError(f"vertex {x!r}: {len(witnesses)} level-defining curves")
        if not path_sets[witnesses[0]].issuperset(cp.sections[x]):
            raise InvariantError(f"fibre of {x!r} escapes L of {witnesses[0]!r}")

    # no two own-level vertices consecutive in a walk
    for cid, walk in cp.walks.items():
        for i in range(len(walk) - 1):
            if cp.level[walk[i]] == cp.phi[cid] == cp.level[walk[i + 1]]:
                raise InvariantError(
                    f"walk of {cid!r}: consecutive level-{cp.phi[cid]} vertices "
                    f"{walk[i]!r}, {walk[i + 1]!r}")

    # crossing curves have intersecting walks (the converse is false: two
    # non-crossing curves may both cross the same section of a third curve
    # and then share its contracted vertex)
    crossing_pairs = set()
    for e in plan.events.values():
        crossing_pairs.add((e.curve_a, e.curve_b))
    for a, b in sorted(crossing_pairs):
        if walk_sets[a].isdisjoint(walk_sets[b]):
            raise InvariantError(f"curves {a!r}, {b!r} cross but walks are disjoint")


def walk_weak_diameter(cp, params) -> dict:
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


def grounded_distance_check(cp, Y) -> int:
    """Max over non-endpoint vertices of the distance to Y; asserted <= t-1.

    Y must contain at least one end of every curve, the first or the last
    vertex of its walk, which psi fixes.
    """
    Y = set(Y)
    for cid in sorted(cp.walks):
        walk = cp.walks[cid]
        if not {walk[0], walk[-1]} & Y:
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
