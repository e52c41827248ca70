"""Combinatorial embeddings: rotation systems with edge signatures.

A multigraph embedding is stored as darts.  Edge e = (u, v) has two darts:
(e, 0) pointing u -> v listed in the rotation at u, and (e, 1) pointing
v -> u listed at v.  Loops contribute both darts to the same rotation.
Signatures of -1 mark orientation-reversing edges, so non-orientable
embeddings (odd Euler genus) are representable.

Faces are listed for plane (all-positive) embeddings only, as orbits of
darts.  The Euler genus follows from Euler's formula per connected
component; a signed embedding's faces are counted, not listed, from the
orbits of its (dart, orientation) states.
"""

from __future__ import annotations

from .errors import InvariantError, SceneError
from .graph import Graph, connected_components

Dart = tuple  # (edge_id, side)


def reverse(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


class EmbeddedGraph:
    """Built whole from its four maps; add_chord is its one edit."""

    def __init__(self, edge_ends: dict, signature: dict, rotation: dict,
                 edge_label: dict):
        # edge id -> (u, v); orientation of the pair fixes which dart is side 0
        self.edge_ends = edge_ends
        self.signature = signature     # edge id -> +1 or -1
        self.rotation = rotation       # vertex -> list of out-darts
        self.edge_label = edge_label   # edge id -> owning curve(s) etc.

    # ------------------------------------------------------------- structure

    def vertices(self) -> list:
        return sorted(self.rotation)

    def edge_count(self) -> int:
        return len(self.edge_ends)

    def dart_tail(self, dart: Dart):
        u, v = self.edge_ends[dart[0]]
        return u if dart[1] == 0 else v

    def simple_graph(self) -> Graph:
        return Graph(self.vertices(), self.edge_ends.values())

    def check(self) -> None:
        darts = [d for v in self.rotation for d in self.rotation[v]]
        if len(darts) != len(set(darts)) or len(darts) != 2 * len(self.edge_ends):
            raise InvariantError("rotation system does not list each dart exactly once")
        ends = self.edge_ends
        for v, rot in self.rotation.items():
            for eid, side in rot:
                if ends[eid][side] != v:
                    raise InvariantError(f"dart {(eid, side)} listed at wrong vertex {v!r}")

    # ------------------------------------------------------------ traversal

    def trace_faces(self) -> list[list[Dart]]:
        """Face boundary walks of an all-positive embedding, one per face.

        A face is an orbit of the permutation d -> the dart after
        reverse(d) in its rotation, and every dart lies on exactly one face,
        so (e, 0) and (e, 1) name the two sides of e.  Faces start at each
        dart not yet traced, in rotation order.  Works for loops and
        parallel edges.  A signature -1 raises: euler_genus counts the
        faces of a signed embedding without listing them.
        """
        if -1 in self.signature.values():
            raise InvariantError("oriented tracing needs all signatures +1")
        # after[reverse(d)] is the dart after d in its rotation
        after = {}
        for rot in self.rotation.values():
            for (eid, side), d in zip(rot, rot[1:] + rot[:1]):
                after[eid, 1 - side] = d
        faces = []
        for rot in self.rotation.values():
            for d in rot:
                if d in after:   # not yet traced
                    face = []
                    while d in after:
                        face.append(d)
                        d = after.pop(d)
                    faces.append(face)
        return faces

    # ----------------------------------------------------------- operations

    def add_chord(self, face: list[Dart], i: int, j: int, eid) -> None:
        """Split a face by a chord between face walk corners i and j.

        Corner i is the vertex entered via face[i - 1] (i.e. the tail of
        face[i]).  Requires an orientable region (all signatures on the face
        +1); used only on genus-0 embeddings.
        """
        vi = self.dart_tail(face[i])
        vj = self.dart_tail(face[j])
        # insert dart vi -> vj right before face[i] at vi, and the reverse
        # dart right after reverse(face[j - 1]) at vj
        self.edge_ends[eid] = (vi, vj)
        self.signature[eid] = 1
        rot_i = self.rotation[vi]
        rot_i.insert(rot_i.index(face[i]), (eid, 0))
        prev_j = face[(j - 1) % len(face)]
        rot_j = self.rotation[vj]
        rot_j.insert(rot_j.index(reverse(prev_j)) + 1, (eid, 1))


def euler_genus(g: EmbeddedGraph, simple: Graph) -> int:
    """Sum over the components of g of 2 - V + E - F.

    simple is g's simple graph (g.simple_graph()), whose components are g's.
    An all-positive g's faces are traced once.  On a signed g a face is two
    orbits of the state map (d, o) -> (the dart at offset o * sig(d) from
    reverse(d) in its rotation, o * sig(d)), mirrors of each other, so F is
    half the number of orbits.
    """
    comps = connected_components(simple)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    v_count = [len(comp) for comp in comps]
    e_count = [0] * len(comps)
    f_count = [0] * len(comps)
    for u, _ in g.edge_ends.values():
        e_count[comp_of[u]] += 1
    if -1 in g.signature.values():
        sig = g.signature
        nxt = {}   # (d, o) -> the next state of its orbit
        for rot in g.rotation.values():
            for i, back in enumerate(rot):   # back = reverse(d)
                for o in (1, -1):
                    o2 = o * sig[back[0]]
                    nxt[reverse(back), o] = (rot[(i + o2) % len(rot)], o2)
        orbits = [0] * len(comps)
        while nxt:
            start, s = nxt.popitem()
            orbits[comp_of[g.dart_tail(start[0])]] += 1
            while s != start:
                s = nxt.pop(s)
        f_count = [n // 2 for n in orbits]
    else:
        for face in g.trace_faces():
            f_count[comp_of[g.dart_tail(face[0])]] += 1
    total = 0
    for i in range(len(comps)):
        # an isolated vertex is a sphere with one face
        faces = f_count[i] if e_count[i] else 1
        genus = 2 - v_count[i] + e_count[i] - faces
        if genus < 0:
            raise InvariantError(f"inconsistent face trace in component {i}")
        total += genus
    return total


# ------------------------------------------------------ left-right planarity
# planar_embedding follows networkx 3.6's check_planarity (the Left-Right
# Planarity Test of U. Brandes, 2009) step by step, so every rotation it
# returns is the one networkx returns on the same vertex and edge order.
# networkx is distributed under the 3-clause BSD licence:
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>, Dan Schult <dschult@colgate.edu>,
#   Pieter Swart <swart@lanl.gov>.  All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are met:
#   * Redistributions of source code must retain the above copyright notice,
#     this list of conditions and the following disclaimer.
#   * Redistributions in binary form must reproduce the above copyright
#     notice, this list of conditions and the following disclaimer in the
#     documentation and/or other materials provided with the distribution.
#   * Neither the name of the NetworkX Developers nor the names of its
#     contributors may be used to endorse or promote products derived from
#     this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
#   IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
#   THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
#   PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR
#   CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
#   EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
#   PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
#   PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
#   LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
#   NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
#   SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

def planar_embedding(g: Graph) -> EmbeddedGraph:
    """A plane rotation system of the simple graph g, by the left-right test.

    Edge ("e", u, v), u < v, has its dart 0 at u.  Raises SceneError if g
    is not planar.  The four phases (DFS orientation, testing, signs,
    embedding) are networkx's; a conflict pair is a list [left low, left
    high, right low, right high] of oriented edges, each pair a new list.
    """
    verts = g.vertices
    edges = g.edge_list()
    if len(verts) > 2 and len(edges) > 3 * len(verts) - 6:
        raise SceneError("graph is not planar")
    # lowpt: oriented edge -> height of its lowest return point; out: each
    # vertex's oriented edges in orientation order
    height, parent_edge, lowpt, lowpt2, nesting = {}, {}, {}, {}, {}
    out: dict = {v: [] for v in verts}
    roots = []

    # orientation: an iterative DFS over sorted neighbour lists
    adjs = {v: sorted(g.adj[v]) for v in verts}
    ind = dict.fromkeys(verts, 0)
    resumed = set()
    for root in verts:
        if root in height:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            for w in adjs[v][ind[v]:]:
                vw = (v, w)
                if vw not in resumed:
                    if vw in lowpt or (w, v) in lowpt:
                        ind[v] += 1
                        continue
                    out[v].append(w)
                    lowpt[vw] = lowpt2[vw] = height[v]
                    if w not in height:   # tree edge
                        parent_edge[w] = vw
                        height[w] = height[v] + 1
                        stack += [v, w]
                        resumed.add(vw)
                        break
                    lowpt[vw] = height[w]   # back edge
                nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
                if e is not None:
                    if lowpt[vw] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lowpt[vw]
                    elif lowpt[vw] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[vw])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                ind[v] += 1

    # testing: a stack of conflict pairs
    ordered = {v: sorted(out[v], key=lambda w: nesting[v, w]) for v in verts}
    ref, side, stack_bottom, lowpt_edge = {}, {}, {}, {}
    S: list = []

    def conflicting(low, high, b) -> bool:
        return not (low is None and high is None) and lowpt[high] > lowpt[b]

    def add_constraints(ei, e) -> bool:
        P = [None, None, None, None]
        while True:   # merge the return edges of ei into P's right interval
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2:] + Q[:2]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P's left
        while conflicting(*S[-1][:2], ei) or conflicting(*S[-1][2:], ei):
            Q = S.pop()
            if conflicting(*Q[2:], ei):
                Q[:] = Q[2:] + Q[:2]
            if conflicting(*Q[2:], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P) -> int:   # the lowest lowpoint of P's non-empty intervals
        return min(lowpt[P[i]] for i in (0, 2) if (P[i], P[i + 1]) != (None, None))

    def remove_back_edges(e) -> None:
        u = e[0]
        while S and lowest(S[-1]) == height[u]:   # pairs returning to u
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:   # trim the next pair's intervals
            P = S[-1]
            while P[1] is not None and P[1][1] == u:
                P[1] = ref.get(P[1])
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and P[3][1] == u:
                P[3] = ref.get(P[3])
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < height[u]:   # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    ind = dict.fromkeys(verts, 0)
    resumed = set()
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            for w in ordered[v][ind[v]:]:
                ei = (v, w)
                if ei not in resumed:
                    stack_bottom[ei] = S[-1] if S else None
                    if ei == parent_edge.get(w):   # tree edge
                        stack += [v, w]
                        resumed.add(ei)
                        break
                    lowpt_edge[ei] = ei   # back edge
                    S.append([None, None, ei, ei])
                if lowpt[ei] < height[v]:
                    if w == ordered[v][0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        raise SceneError("graph is not planar")
                ind[v] += 1
            else:   # v is done
                if e is not None:
                    remove_back_edges(e)

    # signs: each side is relative to its ref chain's; resolve and compress
    for e0 in nesting:
        chain, pending = e0, []
        while ref.get(chain) is not None:
            pending.append(chain)
            ref[chain], chain = None, ref[chain]
        s = side.get(chain, 1)
        for e in reversed(pending):
            s = side[e] = side.get(e, 1) * s
        nesting[e0] *= side.get(e0, 1)

    # embedding: v's neighbours in clockwise cyclic order, from leftmost[v]
    rotation: dict = {v: [] for v in verts}
    leftmost: dict = {}

    def add_half_edge(v, w, cw=None, ccw=None) -> None:
        rot = rotation[v]
        if ccw is not None:
            rot.insert(rot.index(ccw) + 1, w)
        elif cw is not None:
            rot.insert(rot.index(cw), w)
            if cw == leftmost[v]:
                leftmost[v] = w
        else:   # v's first neighbour
            rot.append(w)
            leftmost[v] = w

    for v in verts:
        ordered[v] = sorted(out[v], key=lambda w: nesting[v, w])
        prev = None
        for w in ordered[v]:
            add_half_edge(v, w, ccw=prev)
            prev = w
    ind = dict.fromkeys(verts, 0)
    left_ref: dict = {}
    right_ref: dict = {}
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            for w in ordered[v][ind[v]:]:
                ind[v] += 1
                ei = (v, w)
                if ei == parent_edge.get(w):   # tree edge: v goes leftmost at w
                    add_half_edge(w, v, cw=leftmost.get(w))
                    left_ref[v] = right_ref[v] = w
                    stack += [v, w]
                    break
                if side.get(ei, 1) == 1:
                    add_half_edge(w, v, ccw=right_ref[w])
                else:
                    add_half_edge(w, v, cw=left_ref[w])
                    left_ref[w] = v

    darts: dict = {}
    for v in verts:
        rot = rotation[v]
        i = rot.index(leftmost[v]) if rot else 0
        darts[v] = [(("e", v, w), 0) if v < w else (("e", w, v), 1)
                    for w in rot[i:] + rot[:i]]
    ends = {("e", u, v): (u, v) for u, v in edges}
    emb = EmbeddedGraph(ends, dict.fromkeys(ends, 1), darts, {})
    emb.check()
    return emb
