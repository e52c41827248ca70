"""Combinatorial embeddings: rotation systems with edge signatures.

A multigraph embedding is stored as darts.  Edge e = (u, v) has two darts:
(e, 0) pointing u -> v listed in the rotation at u, and (e, 1) pointing
v -> u listed at v.  Loops contribute both darts to the same rotation.
Signatures of -1 mark orientation-reversing edges, so non-orientable
embeddings (odd Euler genus) are representable.

Faces are traced as orbits: of darts when every signature is +1, of (dart,
orientation) states otherwise.  The Euler genus follows from Euler's formula
per connected component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError
from .graph import Graph

Dart = tuple  # (edge_id, side)


def reverse(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


@dataclass
class EmbeddedGraph:
    # edge id -> (u, v); orientation of the pair fixes which dart is side 0
    edge_ends: dict = field(default_factory=dict)
    signature: dict = field(default_factory=dict)
    rotation: dict = field(default_factory=dict)   # vertex -> list of out-darts
    edge_label: dict = field(default_factory=dict)  # edge id -> owning curve(s) etc.

    # ------------------------------------------------------------- structure

    def add_vertex(self, v) -> None:
        self.rotation.setdefault(v, [])

    def add_edge(self, eid, u, v, sig: int = 1, label=None) -> None:
        """Append an edge; darts are appended at the end of both rotations."""
        if eid in self.edge_ends:
            raise InvariantError(f"duplicate edge id {eid!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        self.edge_ends[eid] = (u, v)
        self.signature[eid] = sig
        if label is not None:
            self.edge_label[eid] = label
        self.rotation[u].append((eid, 0))
        self.rotation[v].append((eid, 1))

    def vertices(self) -> list:
        return sorted(self.rotation)

    def edge_count(self) -> int:
        return len(self.edge_ends)

    def dart_tail(self, dart: Dart):
        u, v = self.edge_ends[dart[0]]
        return u if dart[1] == 0 else v

    def degree(self, v) -> int:
        return len(self.rotation[v])

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
        """Face boundary walks, one representative per face.

        On an all-positive embedding a face is an orbit of the permutation
        d -> the dart after reverse(d) in its rotation, and every dart lies
        on exactly one face, so (e, 0) and (e, 1) name the two sides of e.
        Faces start at each dart not yet traced, in rotation order.  With a
        signature -1 edge, _trace_signed_faces walks (dart, orientation)
        states instead.  Works for loops and parallel edges.
        """
        if -1 in self.signature.values():
            return self._trace_signed_faces()
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

    def _trace_signed_faces(self) -> list[list[Dart]]:
        """trace_faces for signed embeddings: a walk is an orbit of (dart,
        orientation) states.  Starts are taken at each dart in rotation
        order, every orientation +1 start before any -1 start, and the
        mirror traversal of each traced face is suppressed."""
        slot = {d: (rot, i) for rot in self.rotation.values()
                for i, d in enumerate(rot)}
        sig = self.signature
        faces = []
        seen = set()
        for orient0 in (1, -1):
            for d0 in slot:   # every dart, in rotation order
                if (d0, orient0) in seen:
                    continue
                face = []
                d, orient = d0, orient0
                while True:
                    face.append(d)
                    back = reverse(d)
                    seen.add((d, orient))
                    orient *= sig[d[0]]
                    seen.add((back, -orient))  # the mirror state
                    rot, i = slot[back]
                    d = rot[(i + orient) % len(rot)]
                    if d == d0 and orient == orient0:
                        break
                faces.append(face)
        return faces

    def euler_genus(self) -> int:
        """Sum over components of 2 - V + E - F."""
        neighbours: dict = {v: [] for v in self.rotation}
        for u, v in self.edge_ends.values():
            neighbours[u].append(v)
            neighbours[v].append(u)
        # components numbered in the order of their smallest vertices
        comp_of: dict = {}
        n = 0
        for v0 in sorted(self.rotation):
            if v0 in comp_of:
                continue
            comp_of[v0] = n
            stack = [v0]
            while stack:
                for w in neighbours[stack.pop()]:
                    if w not in comp_of:
                        comp_of[w] = n
                        stack.append(w)
            n += 1
        v_count = [0] * n
        e_count = [0] * n
        f_count = [0] * n
        for v in self.rotation:
            v_count[comp_of[v]] += 1
        for u, _ in self.edge_ends.values():
            e_count[comp_of[u]] += 1
        for face in self.trace_faces():
            f_count[comp_of[self.dart_tail(face[0])]] += 1
        # an isolated vertex is a sphere with one face
        for i in range(n):
            if e_count[i] == 0:
                f_count[i] = 1
        total = 0
        for i in range(n):
            genus = 2 - v_count[i] + e_count[i] - f_count[i]
            if genus < 0:
                raise InvariantError(f"inconsistent face trace in component {i}")
            total += genus
        return total

    # ----------------------------------------------------------- operations

    def flip_vertex(self, v) -> None:
        """Local orientation flip: reverses rotation, toggles incident signatures.

        A loop at v lists both of its darts here, so its signature flips twice.
        """
        self.rotation[v] = rot = self.rotation[v][::-1]
        for eid, _ in rot:
            self.signature[eid] = -self.signature[eid]

    def contract_edge(self, eid) -> None:
        """Contract a non-loop edge, keeping the embedding on the same surface.

        The surviving vertex is the tail endpoint; parallel edges become loops.
        """
        u, v = self.edge_ends[eid]
        if u == v:
            raise InvariantError(f"cannot contract loop {eid!r}")
        if self.signature[eid] == -1:
            self.flip_vertex(v)
        assert self.signature[eid] == 1
        rot_u = self.rotation[u]
        rot_v = self.rotation[v]
        du, dv = (eid, 0), (eid, 1)
        iu = rot_u.index(du)
        iv = rot_v.index(dv)
        spliced = rot_v[iv + 1:] + rot_v[:iv]
        self.rotation[u] = rot_u[:iu] + spliced + rot_u[iu + 1:]
        del self.rotation[v]
        del self.edge_ends[eid]
        del self.signature[eid]
        self.edge_label.pop(eid, None)
        for other, _ in spliced:
            a, b = self.edge_ends[other]
            self.edge_ends[other] = (u if a == v else a, u if b == v else b)

    def delete_vertex(self, v) -> None:
        for d in list(self.rotation[v]):
            self.delete_edge(d[0])
        del self.rotation[v]

    def delete_edge(self, eid) -> None:
        u, v = self.edge_ends.pop(eid)
        del self.signature[eid]
        self.edge_label.pop(eid, None)
        for w in {u, v}:
            self.rotation[w] = [d for d in self.rotation[w] if d[0] != eid]

    def add_chord(self, face: list[Dart], i: int, j: int, eid) -> None:
        """Split a face by a chord between face walk corners i and j.

        Corner i is the vertex entered via face[i - 1] (i.e. the tail of
        face[i]).  Requires an orientable region (all signatures on the face
        +1); used only on genus-0 embeddings.
        """
        vi = self.dart_tail(face[i])
        vj = self.dart_tail(face[j])
        if vi == vj:
            raise InvariantError("chord endpoints coincide")
        # insert dart vi -> vj right before face[i] at vi, and the reverse
        # dart right after reverse(face[j - 1]) at vj
        self.edge_ends[eid] = (vi, vj)
        self.signature[eid] = 1
        rot_i = self.rotation[vi]
        rot_i.insert(rot_i.index(face[i]), (eid, 0))
        prev_j = face[(j - 1) % len(face)]
        rot_j = self.rotation[vj]
        rot_j.insert(rot_j.index(reverse(prev_j)) + 1, (eid, 1))

    def copy(self) -> "EmbeddedGraph":
        g = EmbeddedGraph()
        g.edge_ends = dict(self.edge_ends)
        g.signature = dict(self.signature)
        g.rotation = {v: list(r) for v, r in self.rotation.items()}
        g.edge_label = dict(self.edge_label)
        return g
