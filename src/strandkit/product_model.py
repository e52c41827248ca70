"""Minor models in strong products (C^phi - E_C) x K_{d+1}.

The model sends each curve's vertex to the branch set
mu(v) = {(x, lambda_x(v)) : x in W_v \\ E_C} where lambda_x injectively
assigns copies to the curves whose walks visit x.  check.verify_model checks
it; the product is never materialised.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError
from .graph import Graph
from .planarise import ColouredPlanarisation


class MinorModel(NamedTuple):
    mu: dict              # target vertex -> frozenset of (host vertex, copy)
    host: Graph           # the host graph (first coordinate)
    copies: int           # size of the clique factor

    def projection(self, v) -> set:
        return {h for h, _ in self.mu[v]}


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
