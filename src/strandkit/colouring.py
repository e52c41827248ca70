"""Ordered colourings of curve sets, the colour cut, and the parameters t, d, k, r.

An ordered t-colouring assigns colours {1..t} so that no two crossing curves
share a colour.  The colour cut (`colour_sections`) cuts a curve at its
crossings with smaller-coloured curves into sections, the non-empty runs of
crossings between cuts, each contracted to a point in C^phi; cutting every
curve is also the check that the colouring is ordered.  The parameters:

  d  max, over curves gamma and sections of gamma, of the number of
     distinct higher-colour curves crossing the section,
  k  max, over curves gamma, of the number of distinct smaller-colour curves
     crossing gamma,
  r  (2k + 1) * sum_{j=0}^{t-2} k^j, the walk weak-diameter bound, which
     the pipeline (decomp.Pipeline.params) reads from the bound registry.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import SceneError
from .geometry import _json_int
from .scene import CrossingEvent


class OrderedColouring(NamedTuple):
    phi: dict
    t: int

    def to_json(self) -> dict:
        return {cid: self.phi[cid] for cid in sorted(self.phi)}

    @staticmethod
    def from_json(data: dict) -> "OrderedColouring":
        if not isinstance(data, dict):
            raise SceneError("colouring JSON must be an object of curve id -> colour")
        phi = {str(cid): _json_int(col, f"colour of {cid!r}")
               for cid, col in data.items()}
        for cid, col in phi.items():
            if col < 1:
                raise SceneError(f"colour of {cid!r} must be >= 1, got {col}")
        return OrderedColouring(phi, max(phi.values(), default=0))


class ColouringParams(NamedTuple):
    t: int
    d: int
    k: int
    r: int

    def to_json(self) -> dict:
        return {"t": self.t, "d": self.d, "k": self.k, "r": self.r}


def greedy_colouring(G, order) -> OrderedColouring:
    """First-fit colouring along the given vertex order; t <= max degree + 1."""
    adj = G.adj
    if sorted(order) != sorted(adj):
        raise SceneError("order is not a permutation of the vertices")
    phi: dict = {}
    for v in order:
        used = {phi[u] for u in adj[v] if u in phi}
        col = 1
        while col in used:
            col += 1
        phi[v] = col
    return OrderedColouring(phi, max(phi.values(), default=0))


def degeneracy_order(G) -> list:
    """Repeated minimum-degree removal; ties broken by smallest vertex id.

    A heap holds (degree, id) for every remaining vertex; an entry whose
    degree has since fallen is skipped when popped.  The reverse order has
    back-degree at most the degeneracy of G.
    """
    adj = {v: set(ns) for v, ns in G.adj.items()}
    heap = [(len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        deg, v = heapq.heappop(heap)
        if v not in adj or deg != len(adj[v]):
            continue
        order.append(v)
        for u in adj.pop(v):
            adj[u].discard(v)
            heapq.heappush(heap, (len(adj[u]), u))
    return order


def colour_sections(curve_id: str, crossings: list[CrossingEvent],
                    phi: dict) -> tuple[list[range], set]:
    """The colour cut of a curve, given its crossings in arc order.

    Returns the sections, the maximal non-empty runs of crossings with
    larger-coloured curves, as ranges of positions in `crossings`, and the
    set of smaller-coloured curves that cut the curve.
    """
    my_colour = phi[curve_id]
    runs, cuts, start = [], set(), 0
    for i, e in enumerate(crossings):
        other = e.other(curve_id)
        if phi[other] == my_colour:
            raise SceneError(
                f"not an ordered colouring: curves {curve_id!r} and {other!r} "
                f"cross and share colour {my_colour}")
        if phi[other] < my_colour:
            if i > start:
                runs.append(range(start, i))
            start = i + 1
            cuts.add(other)
    if len(crossings) > start:
        runs.append(range(start, len(crossings)))
    return runs, cuts


def compute_params(colouring: OrderedColouring, along: dict, cut: dict) -> tuple:
    """Exact (t, d, k) from each curve's crossings (along) and their cut."""
    d = k = 0
    for cid, (runs, cuts) in cut.items():
        mine = along[cid]
        k = max(k, len(cuts))
        for run in runs:
            d = max(d, len({mine[i].other(cid) for i in run}))
    return colouring.t, d, k
