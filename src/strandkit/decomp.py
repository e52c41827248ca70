"""Tree decompositions, layerings, and the staged pipeline of a scene, whose
last stages are the certificates and the localised scene.

Constructions here are certified: every emitted decomposition is re-checked
by check.verify_td, and pipeline widths are asserted against the closed-form
bounds they are supposed to satisfy.  An exact treewidth oracle (<= 16
vertices) backs decomp's report and the tests.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .arrangement import compute_arrangement, events_by_curve, intersection_graph
from .check import grounded_distance_check, verify_layering, verify_td
from .colouring import (ColouringParams, OrderedColouring, colour_sections,
                        compute_params, degeneracy_order, greedy_colouring)
from .errors import InvariantError, SceneError
from .embedding import EmbeddedGraph, euler_genus, planar_embedding
from .graph import Graph, ball_masks, bfs_tree, connected_components
from .localise import bigon_reduce, build_HR, reassemble, select_crossings
from .planarise import (ColouredPlanarisation, Planarisation,
                        coloured_planarisation, endpoint_id, planarise)
from .product_model import MinorModel, build_model
from .scene import StringScene


class TreeDecomposition(NamedTuple):
    nodes: list                      # node ids
    edges: list                      # tree edges (pairs of node ids)
    bags: dict                       # node id -> frozenset of target vertices

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1


class Layering(NamedTuple):
    layers: list                     # ordered list of vertex lists

    def index(self) -> dict:
        return {v: i for i, layer in enumerate(self.layers) for v in layer}


def bfs_depth(parent: dict) -> dict:
    """The depth of each vertex of a BFS tree (graph.bfs_tree), which lists
    each parent before its children."""
    depth: dict = {}
    for v, p in parent.items():
        depth[v] = 0 if p is None else depth[p] + 1
    return depth


# ------------------------------------------------------- exact treewidth oracle

EXACT_TREEWIDTH_MAX = 16             # vertices; the oracle refuses larger graphs


def exact_treewidth(G: Graph) -> int:
    return exact_treewidth_decomposition(G)[0]


def exact_treewidth_decomposition(G: Graph) -> tuple:
    """Exact treewidth with a witness decomposition, |V| <= EXACT_TREEWIDTH_MAX.

    Branch-and-bound over elimination orders, memoised on the eliminated
    set (Bodlaender et al. 2012); the cost of eliminating v after S is
    |Q(S, v)|, Q(S, v) being the vertices outside S u {v} reachable from v
    through S.  Q(S, v) is v's neighbourhood when the elimination game removes
    v after S (Rose, Tarjan and Lueker 1976), so the witness's bags are the
    best order's Q-sets.
    """
    verts, edges = G.vertices, G.edge_list()
    n = len(verts)
    if n > EXACT_TREEWIDTH_MAX:
        raise SceneError(f"exact treewidth oracle limited to {EXACT_TREEWIDTH_MAX} "
                         f"vertices, got {n}")
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for u, v in edges:
        nbr[idx[u]] |= 1 << idx[v]
        nbr[idx[v]] |= 1 << idx[u]

    def q_set(S: int, v: int) -> int:
        """Vertices outside S u {v} reachable from v through S."""
        reach = 0
        frontier = nbr[v]
        seen = 1 << v
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            seen |= bit
            if S & bit:
                frontier |= nbr[bit.bit_length() - 1] & ~seen
            else:
                reach |= bit
        return reach

    def search(S: int, maxq: int, order: list) -> None:
        nonlocal best, best_order
        if maxq >= best:
            return
        if S == comp:
            best = maxq
            best_order = list(order)
            return
        prev = memo.get(S)
        if prev is not None and prev <= maxq:
            return
        memo[S] = maxq
        cand = []
        for v in (bit.bit_length() - 1 for bit in _bits(comp & ~S)):
            qs = q_set(S, v)
            qn = bin(qs).count("1")
            # a vertex whose q-set is a clique can always go first
            if _is_clique(qs, nbr):
                order.append(v)
                search(S | (1 << v), max(maxq, qn), order)
                order.pop()
                return
            cand.append((qn, v))
        cand.sort()
        for qn, v in cand:
            order.append(v)
            search(S | (1 << v), max(maxq, qn), order)
            order.pop()

    # a Q-set stays in its vertex's component, so each component is searched
    # alone and the best orders are concatenated; a component's order of c
    # vertices has width at most c - 1, so its first leaf is taken
    width, elimination = -1, []
    for members in connected_components(G):
        comp = sum(1 << idx[v] for v in members)
        best, best_order, memo = len(members), [], {}
        search(0, 0, [])
        width = max(width, best)
        elimination += best_order
    # node i holds v_i and Q(S_i, v_i), and joins the node of the first
    # vertex of that Q-set to be eliminated, or node i + 1 if it is empty,
    # which the last vertex of each component is
    pos = {v: i for i, v in enumerate(elimination, 1)}
    bags, tree, S = {}, [], 0
    for i, v in enumerate(elimination, 1):
        qs = q_set(S, v)
        S |= 1 << v
        bags[i] = frozenset(verts[b.bit_length() - 1] for b in _bits(qs | 1 << v))
        if qs:
            tree.append((i, min(pos[b.bit_length() - 1] for b in _bits(qs))))
        elif i < n:
            tree.append((i, i + 1))
    td = TreeDecomposition(list(range(1, n + 1)), tree, bags)
    verify_td(td, G, "oracle witness")
    if td.width != width:
        raise InvariantError(f"oracle witness width {td.width} != treewidth {width}")
    return width, td


def _is_clique(mask: int, nbr: list) -> bool:
    return not any(mask & ~bit & ~nbr[bit.bit_length() - 1] for bit in _bits(mask))


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


# ---------------------------------------------------- planar radius -> treewidth

def radius_decomposition(G: Graph, parent: dict) -> TreeDecomposition:
    """Tree decomposition of a connected planar graph, width <= 3r + 1.

    parent is a BFS tree of G (graph.bfs_tree), and r is the eccentricity
    of its root.  Construction: planar embedding, triangulate every face
    down to <= 3 distinct corners, one bag per face (union of the corners'
    root paths), and the dual spanning tree induced by non-BFS-tree edges
    as the decomposition tree.
    """
    verts = G.vertices
    if len(verts) == 1:
        return TreeDecomposition([1], [], {1: frozenset(verts)})
    if len(parent) != len(G):
        raise SceneError("radius decomposition needs a connected graph")
    # each tree edge is an edge of G, parents come before their children,
    # and no edge of G joins depths more than one apart: so each depth is
    # the distance from the root, and the largest is r
    adj = G.adj
    depth: dict = {}
    for v, p in parent.items():
        if p is None and not depth and v in adj:
            depth[v] = 0
        elif p in depth and v in adj[p]:
            depth[v] = depth[p] + 1
        else:
            break
    if len(depth) != len(G) or any(depth[u] - depth[w] > 1
                                   for u in adj for w in adj[u]):
        raise InvariantError("radius decomposition needs a BFS tree of the graph")
    r = max(depth.values())

    emb = planar_embedding(G)
    _triangulate(emb)
    faces = emb.trace_faces()
    # chords keep V - E + F, and G is connected: plane iff it is 2
    if len(emb.rotation) - len(emb.edge_ends) + len(faces) != 2:
        raise InvariantError("embedding is not plane")
    bags = {}
    for fi, face in enumerate(faces):
        bag = set()
        # climb to the bag, which holds every ancestor of its vertices
        for c in {emb.edge_ends[eid][side] for eid, side in face}:
            while c is not None and c not in bag:
                bag.add(c)
                c = parent[c]
        bags[fi + 1] = frozenset(bag)

    # all-positive plane embedding: every dart lies on exactly one traced face
    face_of = {}
    for fi, face in enumerate(faces):
        for d in face:
            face_of[d] = fi + 1

    tree_pairs = {tuple(sorted((v, p))) for v, p in parent.items() if p is not None}
    chosen = set()     # tree pairs, each taken by its first edge in repr order
    dual_edges = []
    for eid in sorted(emb.edge_ends, key=repr):
        pair = tuple(sorted(emb.edge_ends[eid]))
        if pair in tree_pairs and pair not in chosen:
            chosen.add(pair)
            continue
        dual_edges.append((face_of[eid, 0], face_of[eid, 1]))

    # a dual loop or a wrong dual edge count leaves no tree, which verify_td
    # refuses
    td = TreeDecomposition(list(bags), dual_edges, bags)
    verify_td(td, G, "radius decomposition")
    bound = bounds("planar-radius-tw", {"r": r})
    if td.width > bound:
        raise InvariantError(f"radius decomposition width {td.width} > 3r+1 = {bound}")
    return td


def _triangulate(g: EmbeddedGraph) -> None:
    """Chord faces until every face has at most 3 distinct corners.

    Each face F of the simple plane host is traced once and chorded from
    corner 0 to corner 2 (corner 3 when corner 2 is corner 0 again).  The
    split-off part has at most 3 corners; the rest, [chord] + F[j:], starts
    at the chord dart placed just before F[0], so it is the next face in
    trace order and is chorded the same way.  Faces are listed for plane
    embeddings only: trace_faces raises on a signature -1.
    """
    serial = 0
    ends = g.edge_ends
    for face in g.trace_faces():
        while len({ends[eid][side] for eid, side in face}) > 3:
            j = 3 if g.dart_tail(face[2]) == g.dart_tail(face[0]) else 2
            serial += 1
            g.add_chord(face, 0, j, ("chord", serial))
            face = [(("chord", serial), 0)] + face[j:]


# ------------------------------------------------------------------------ lifts

def minor_lift(td: TreeDecomposition, model: MinorModel) -> TreeDecomposition:
    """Bag-lift a host decomposition through a minor model.

    A vertex joins every bag that meets the projection of its branch set to
    the host.  Every copy the model uses is one of the clique factor's, so
    this is the lift of the host bags multiplied by the copies.
    """
    curves_at: dict = {}
    for v in sorted(model.mu):
        for h in model.projection(v):
            curves_at.setdefault(h, set()).add(v)
    bags = {node: frozenset().union(*(curves_at.get(h, ()) for h in td.bags[node]))
            for node in td.nodes}
    return TreeDecomposition(list(td.nodes), list(td.edges), bags)


# ------------------------------------------------------------ staged pipeline

class Pipeline:
    """The certified chain of one scene, each stage built on first use, once.

    scene -> events -> arc order along each curve (along) -> intersection
    graph -> colouring -> colour cut of each curve (cut, which rejects a
    colouring that is not ordered) -> C' (plan) -> C^phi (cp) -> genus and
    parameters t, d, k, r -> minor model -> the layered-width certificate
    (ltw) and, for a grounded one-disk scene, the outerstring one.  The
    localised scene reads the arc orders, and the genus if it is abstract.
    The colouring stage takes `given`, checked against the scene, or when
    that is None colours greedily on the reverse degeneracy order of the
    intersection graph.
    """

    def __init__(self, scene: StringScene, colouring: OrderedColouring | None = None):
        self.scene = scene
        self.given = colouring

    @cached_property
    def events(self) -> list:
        return compute_arrangement(self.scene)

    @cached_property
    def along(self) -> dict:
        return events_by_curve(self.scene.curve_ids(), self.events)

    @cached_property
    def graph(self) -> Graph:
        return intersection_graph(self.scene, self.events)

    @cached_property
    def colouring(self) -> OrderedColouring:
        colouring = self.given
        if colouring is None:
            colouring = greedy_colouring(self.graph, degeneracy_order(self.graph)[::-1])
        else:
            curves, named = set(self.scene.curves), set(colouring.phi)
            if curves - named:
                raise SceneError(f"colouring misses curves {sorted(curves - named)}")
            if named - curves:
                raise SceneError("colouring names curves not in the scene "
                                 f"{sorted(named - curves)}")
        return colouring

    @cached_property
    def cut(self) -> dict:
        phi = self.colouring.phi
        return {cid: colour_sections(cid, mine, phi) for cid, mine in self.along.items()}

    @cached_property
    def plan(self) -> Planarisation:
        return planarise(self.scene, self.events, self.along)

    @cached_property
    def cp(self) -> ColouredPlanarisation:
        return coloured_planarisation(self.plan, self.colouring, self.cut)

    @cached_property
    def genus(self) -> int:
        return euler_genus(self.cp.embedding, self.cp.graph)

    @cached_property
    def params(self) -> ColouringParams:
        t, d, k = compute_params(self.colouring, self.along, self.cut)
        return ColouringParams(t, d, k, bounds("weak-diameter", {"t": t, "k": k}))

    @cached_property
    def model(self) -> MinorModel:
        return build_model(self.cp, self.params)

    @cached_property
    def ltw(self) -> dict:
        """Layered-width certificate for a genus-0 scene.

        Builds the model in (C^phi - E_C) x K_{d+1}, takes one BFS tree of
        the host from its smallest vertex, decomposes the host by radius and
        layers it by depth in that tree, lifts td and layering through the
        model, and returns the lifted pair with its layered width, asserted
        against 3(4r+1)(d+1).
        """
        genus, params, model = self.genus, self.params, self.model
        host = model.host
        tree = bfs_tree(host, host.vertices[0])
        if len(tree) != len(host):
            raise SceneError("ltw pipeline needs a connected crossing structure")
        if genus != 0:
            raise SceneError(f"ltw pipeline needs genus 0, got {genus}")
        lifted = ltw_lift(radius_decomposition(host, tree), bfs_depth(tree),
                          model, params.r)
        bound = bounds("ltw-shallow", {"r": params.r, "d": params.d, "g": genus})
        if lifted["layered_width"] > bound:
            raise InvariantError(f"lifted layered width {lifted['layered_width']} "
                                 f"> 3(4r+1)(d+1) = {bound}")
        verify_td(lifted["td"], self.graph, "lifted td")
        verify_layering(lifted["layering"], self.graph, "lifted layering")
        lifted["bound"] = bound
        return lifted

    @cached_property
    def outerstring(self) -> dict:
        """Treewidth certificate for a grounded one-disk scene.

        C^phi -> quotient C^phi_0 -> radius decomposition -> bag lift
        through the minor model's projection.  Width asserted
        <= (3t-1)(d+1)-1.  The quotient radius, the distance in C^phi from
        the grounded endpoints, comes from grounded_distance_check (<= t-1);
        it is the disk center's eccentricity in C^phi_0, as every endpoint
        has degree 1.
        """
        if len(self.scene.disks) != 1:
            raise SceneError(f"outerstring pipeline needs exactly 1 disk, "
                             f"got {len(self.scene.disks)}")
        if self.genus != 0:
            raise SceneError(f"outerstring pipeline needs genus 0, got {self.genus}")
        t, d = self.params.t, self.params.d

        quotient, w, grounded = grounded_quotient(self.cp, self.scene)
        radius = grounded_distance_check(self.cp, grounded)
        td = minor_lift(radius_decomposition(quotient, bfs_tree(quotient, w)),
                        self.model)
        verify_td(td, self.graph, "outerstring td")
        bound = bounds("planar-outerstring", {"t": t, "d": d})
        if td.width > bound:
            raise InvariantError(f"outerstring width {td.width} > bound {bound}")
        return {"td": td, "bound": bound, "quotient_radius": radius}

    @cached_property
    def localised(self) -> dict:
        """select -> build -> bigon-reduce -> reassemble, with before/after
        census, on a plane scene whose every curve crosses another (SceneError
        otherwise).  A geometric scene is plane by construction."""
        along = self.along
        for cid, mine in along.items():
            if not mine:
                raise SceneError(f"curve {cid!r} crosses no other curve; every curve "
                                 "needs a crossing to be localised")
        if not self.scene.is_geometric and self.genus != 0:
            raise SceneError(f"localise needs genus 0, got {self.genus}")
        inst = build_HR(along, select_crossings(self.events))
        reduced = bigon_reduce(inst)
        new_scene = reassemble(reduced, along)
        after = {cid: [inst.events[x] for x in c.crossings]
                 for cid, c in new_scene.curves.items()}
        return {"instance": inst, "reduced": reduced, "scene": new_scene,
                "census_before": crossing_census(along),
                "census_after": crossing_census(after),
                "crossings_before": inst.crossing_count(),
                "crossings_after": reduced.crossing_count()}


def crossing_census(along: dict) -> dict:
    """Per-curve crossing involvement vs the localisation bound."""
    out = {}
    for cid, mine in along.items():
        count, deg = len(mine), len({e.other(cid) for e in mine})
        bound = bounds("localised", {"delta": deg})
        out[cid] = {"count": count, "degree": deg, "bound": bound,
                    "within_bound": count <= bound}
    return {"curves": out}


# --------------------------------------------------------- outerstring quotient

def grounded_quotient(cp: ColouredPlanarisation, scene) -> tuple:
    """C^phi_0 of a one-disk scene: identify the grounded endpoints into the
    disk's center w and delete the remaining endpoint vertices.  Returns
    (graph, w, the grounded endpoints).
    """
    w = f"w:{next(iter(scene.disks))}"
    grounded = set()
    for cid in scene.curve_ids():
        gr = scene.curves[cid].grounded
        if gr is None:
            raise SceneError(f"curve {cid!r} is not grounded")
        grounded.add(endpoint_id(cid, gr[1]))
    deleted = cp.endpoints - grounded
    image = dict.fromkeys(grounded, w)
    out = Graph([w] + [v for v in cp.graph.vertices if v not in cp.endpoints],
                [(image.get(u, u), image.get(v, v)) for u, v in cp.graph.edge_list()
                 if u not in deleted and v not in deleted])
    return out, w, grounded


def merge_layers(td: TreeDecomposition, layering: Layering) -> int:
    """Layered width: the most vertices of one bag in one layer."""
    idx = layering.index()
    lw = 0
    for node in td.nodes:
        per: dict = {}
        for v in td.bags[node]:
            per[idx[v]] = per.get(idx[v], 0) + 1
        lw = max(lw, max(per.values(), default=0))
    return lw


def shallow_centers(model: MinorModel, r: int) -> dict:
    """A center for every branch set of a weakly r-shallow model.

    The center of mu(v) is the first member of the sorted branch set whose
    distance in host x K_n to every other member is at most r.  Distances
    come from the host, without building the product: two vertices with
    distinct host coordinates are at the host distance of those
    coordinates, and two distinct copies of one host vertex are adjacent.
    The host balls of radius r around all branch-set vertices come from one
    ball_masks run, which stops at its fixpoint when that comes first.
    """
    hosts = sorted({h for branch in model.mu.values() for h, _ in branch})
    bit = {h: i for i, h in enumerate(hosts)}
    masks: dict = {}
    if r >= 0:
        for k, masks in ball_masks(model.host, hosts):
            if k >= r:
                break
    centers = {}
    for v in sorted(model.mu):
        branch = sorted(model.mu[v])
        need = 0
        for h, _ in branch:
            need |= 1 << bit[h]
        for c in branch:
            # a second copy of c's host vertex is at distance 1
            if masks.get(c[0], 0) & need == need and (r >= 1 or len(branch) == 1):
                centers[v] = c
                break
        else:
            raise InvariantError(f"branch set of {v!r} is not weakly {r}-shallow")
    return centers


def ltw_lift(host_td: TreeDecomposition, host_layer: dict,
             model: MinorModel, r: int) -> dict:
    """Lift a host td and host layering, given as the layer of each host
    vertex, through a weak r-shallow model.

    The G-layer of a vertex is its branch-set center's host layer divided
    into blocks of 2r+1; shallowness makes consecutive centers differ by at
    most one block.
    """
    centers = shallow_centers(model, r)
    td = minor_lift(host_td, model)
    block = {v: host_layer[centers[v][0]] // (2 * r + 1) for v in centers}
    layers: list = [[] for _ in range(max(block.values(), default=0) + 1)]
    for v in sorted(block):
        layers[block[v]].append(v)
    layering = Layering(layers)
    return {"td": td, "layering": layering, "layered_width": merge_layers(td, layering)}


# ------------------------------------------------------------- bound arithmetic

# Largest result bounds() returns, in bits.  A larger value would not print
# as JSON under Python's default 4300-digit int-to-str limit, and a power
# that certainly exceeds it is refused before it is evaluated, so a huge
# exponent costs no time.
MAX_BOUND_BITS = 8192


def _pow(base: int, exp: int) -> int:
    # base >= 2^(b-1) for b = base.bit_length(), so base**exp has more than
    # (b-1)*exp bits
    if (base.bit_length() - 1) * exp >= MAX_BOUND_BITS:
        raise OverflowError(f"{base}**{exp} has more than {MAX_BOUND_BITS} bits")
    return base ** exp


def _geometric_sum(k: int, n: int) -> int:
    """sum(k ** j for j in range(n)), exactly, with one power."""
    return n if k == 1 else (_pow(k, n) - 1) // (k - 1)


def _delta_string(delta: int) -> int:
    # localisation: a degree-D vertex's curve needs at most 2^D (D-1) + 1 crossings
    return _pow(2, delta) * (delta - 1) + 1


# each formula takes its parameters in the order it first reads them
_BOUNDS = {
    "planar-outerstring":
        lambda t, d: (3 * t - 1) * (d + 1) - 1,
    "genus-outerstring":
        lambda t, c, g, d: (2 * t - 1) * c * (2 * g + 3) * (d + 1) - 1,
    "outerstring-maxdegree":
        lambda delta, c, g: (2 * delta + 1) * (delta + 1) * c * (2 * g + 3) - 1,
    "localised": _delta_string,
    "ss-crossing":
        lambda m: _pow(2, m) * m ** 2,
    "string-rtw":
        lambda g, delta: 2 * max(2 * g, 3) * (_delta_string(delta) + 1) ** 2
        * math.comb(2 * (_delta_string(delta) // 2) + 4, 3) - 1,
    "ps-maxdegree":
        lambda delta: 6 * (_delta_string(delta) + 1) ** 2
        * math.comb(2 * (_delta_string(delta) // 2) + 4, 3) - 1,
    "rtw-main":
        lambda r, c, g: (4 * r + 1) * c * ((2 * (8 * r + 1) * c + 3)
            * _pow(2 * g + 7, (6 * r + 2) * (2 * g + 5) - 4) - 1) - 1,
    "ltw-shallow":
        lambda r, d, g: (4 * r + 1) * (d + 1) * (2 * g + 3),
    "tw-from-ltw":
        lambda r, c, ltw: (2 * r + 1) * c * ltw - 1,
    "product-tw":
        lambda tw, n: (tw + 1) * n - 1,
    "planar-radius-tw":
        lambda r: 3 * r + 1,
    "weak-diameter":
        lambda k, t: (2 * k + 1) * _geometric_sum(k, max(t - 1, 0)),
}


def bounds(theorem: str, params: dict) -> int:
    """Exact integer evaluation of a named closed-form bound.

    The parameters are the formula's, non-negative integers, on which every
    bound is an int.  A bound of more than MAX_BOUND_BITS bits is refused with
    SceneError, decided from the exponents before any power is evaluated.
    """
    if theorem not in _BOUNDS:
        raise SceneError(f"unknown theorem id {theorem!r}; known: "
                         f"{', '.join(sorted(_BOUNDS))}")
    formula = _BOUNDS[theorem]
    code = formula.__code__
    names = code.co_varnames[:code.co_argcount]
    unread = sorted(set(params).difference(names))
    if unread:
        raise SceneError(f"theorem {theorem!r} takes {', '.join(sorted(names))}, "
                         f"got {', '.join(unread)}")
    params = {k: int(v) for k, v in params.items()}
    negative = [f"{k}={v}" for k, v in sorted(params.items()) if v < 0]
    if negative:
        raise SceneError(f"theorem {theorem!r} needs non-negative parameters, "
                         f"got {', '.join(negative)}")
    for name in names:
        if name not in params:
            raise SceneError(f"theorem {theorem!r} missing parameter {name!r}")
    try:
        value = formula(**params)
    except OverflowError as exc:
        raise SceneError(f"theorem {theorem!r}: {exc}") from exc
    if value.bit_length() > MAX_BOUND_BITS:
        raise SceneError(f"theorem {theorem!r}: bound has more than "
                         f"{MAX_BOUND_BITS} bits")
    return value
