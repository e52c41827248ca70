"""Ordered colourings of curve sets and the parameters t, d, k, r.

An ordered t-colouring assigns colours {1..t} so that no two crossing curves
share a colour; the *order* of colours matters downstream (fragments are cut
at smaller-colour crossings).  The parameters:

  d  max, over curves gamma and fragments alpha of gamma, of the number of
     distinct higher-colour curves crossing alpha (fragment-local),
  k  max, over curves gamma, of the number of distinct smaller-colour curves
     crossing gamma,
  r  (2k + 1) * sum_{j=0}^{t-2} k^j, the walk weak-diameter bound, read
     from the bound registry (decomp.bounds), which refuses one of more
     than 8192 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import events_by_curve
from .errors import SceneError
from .geometry import _json_int
from .scene import CrossingEvent, StringScene


@dataclass(frozen=True)
class OrderedColouring:
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


@dataclass(frozen=True)
class ColouringParams:
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

    The reverse order has back-degree at most the degeneracy of G.
    """
    adj = {v: set(ns) for v, ns in G.adj.items()}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        order.append(v)
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
    return order


def degeneracy(G) -> int:
    """Max back-degree along the reverse degeneracy order."""
    order = degeneracy_order(G)
    pos = {v: i for i, v in enumerate(order)}
    adj = G.adj
    return max((sum(1 for u in adj[v] if pos[u] > pos[v]) for v in order), default=0)


def check_ordered(colouring: OrderedColouring, events: list[CrossingEvent]) -> None:
    for e in events:
        if colouring.phi[e.curve_a] == colouring.phi[e.curve_b]:
            raise SceneError(
                f"curves {e.curve_a!r} and {e.curve_b!r} cross but share "
                f"colour {colouring.phi[e.curve_a]}")


def compute_params(scene: StringScene, events: list[CrossingEvent],
                   colouring: OrderedColouring) -> ColouringParams:
    """Exact d, k, r by enumeration over fragments and curves."""
    phi = colouring.phi
    check_ordered(colouring, events)
    d = 0
    k = 0
    for cid, mine in events_by_curve(scene.curve_ids(), events).items():
        my_colour = phi[cid]
        smaller = {e.other(cid) for e in mine if phi[e.other(cid)] < my_colour}
        k = max(k, len(smaller))
        # split the event sequence into fragments at smaller-colour crossings
        frag: set = set()
        for e in mine:
            other = e.other(cid)
            if phi[other] < my_colour:
                d = max(d, len(frag))
                frag = set()
            else:
                frag.add(other)
        d = max(d, len(frag))
    from .decomp import bounds   # decomp imports this module
    t = colouring.t
    return ColouringParams(t, d, k, bounds("weak-diameter", {"t": t, "k": k}))
