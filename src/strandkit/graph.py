"""Minimal simple-graph utilities shared across modules.

Vertices are arbitrary hashable, sortable ids.  Every order a caller sees
(vertices, edge_list, neighbours, components) is sorted so downstream
constructions are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


class Graph:
    """Undirected simple graph as dict-of-sets."""

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        adj = self.adj = {v: set() for v in vertices}
        for u, v in edges:
            if u != v:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)

    @property
    def vertices(self) -> list:
        return sorted(self.adj)

    def edge_list(self) -> list[tuple]:
        out = []
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def neighbours(self, v) -> list:
        return sorted(self.adj[v])

    def __len__(self) -> int:
        return len(self.adj)

    def subgraph(self, keep: Iterable) -> "Graph":
        """The subgraph induced by keep, as a new graph."""
        keep = set(keep)
        g = Graph()
        g.adj = {v: self.adj.get(v, set()) & keep for v in sorted(keep)}
        return g


def bfs_distances(g: Graph, sources: Iterable) -> dict:
    """Multi-source BFS distance map; unreachable vertices are absent.

    Neighbours are visited unsorted: distances do not depend on visit order.
    """
    dist = {}
    queue = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        queue.append(s)
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_tree(g: Graph, root) -> dict:
    """The BFS tree of g from root, as a parent map; the root maps to None.

    Neighbours are visited in sorted order.  Keys come in discovery order,
    so by depth, each parent before its children.  Vertices unreachable
    from root are absent.
    """
    parent = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(g.adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def ball_masks(g: Graph, sources: list):
    """Bit-parallel balls of growing radius around every source at once.

    Bit i of a mask stands for sources[i].  Yields (k, masks) for
    k = 0, 1, 2, ...: masks[v] has bit i set iff v is within distance k of
    sources[i].  masks is one dict, updated in place.  A step ORs into each
    neighbour the masks that grew at the step before; a mask that did not
    grow is already held by every neighbour.  The generator ends after the
    last step that grows a mask, so the last masks yielded are the
    fixpoint: the balls of every radius from that k on.
    """
    adj = g.adj
    masks = dict.fromkeys(adj, 0)
    for i, s in enumerate(sources):
        masks[s] |= 1 << i
    frontier = list(dict.fromkeys(sources))
    k = 0
    while frontier:
        yield k, masks
        incoming: dict = {}
        get = incoming.get
        for w in frontier:
            m = masks[w]
            for v in adj[w]:
                incoming[v] = get(v, 0) | m
        frontier = []
        for v, m in incoming.items():
            old = masks[v]
            if m | old != old:
                masks[v] = m | old
                frontier.append(v)
        k += 1


def connected_components(g: Graph) -> list[list]:
    seen: set = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = sorted(bfs_distances(g, [v]))
        seen.update(comp)
        comps.append(comp)
    return comps
