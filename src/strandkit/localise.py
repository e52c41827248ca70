"""Crossing localisation: one selected crossing per intersection-graph edge,
the auxiliary instance (H, R, sigma), bigon reduction, and reassembly.

H has one vertex per edge of G (its selected crossing) and one edge per
piece of a curve between consecutive selected crossings.  R collects the
pairs of H-edges that are allowed to cross, read off the inherited drawing
D0; unselected crossings on the two tail pieces of a curve disappear with
the tails.  Bigon reduction deletes empty bigons (two crossings consecutive
on both participating pieces); it is a heuristic: the census of
decomp.Pipeline.localised reports honestly whether the 2^d (d-1) + 1
per-curve bound is reached.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import intersection_graph
from .errors import InvariantError
from .graph import Graph
from .scene import Curve, CrossingEvent, StringScene


def select_crossings(events: list[CrossingEvent]) -> dict:
    """One crossing per curve pair: the first along the lex-smaller curve."""
    best: dict = {}
    for e in events:
        pair = (e.curve_a, e.curve_b)
        if pair not in best or e.index_in_a < best[pair].index_in_a:
            best[pair] = e
    return best


class AuxiliaryInstance(NamedTuple):
    H: Graph                      # vertices: curve pairs; edges via pieces
    pieces: dict                  # piece id (curve, i) -> (vertex, vertex)
    R: set                        # frozensets of two piece ids allowed to cross
    sigma: dict                   # curve -> neighbour order along the curve
    drawing: dict                 # piece id -> event ids along the piece
    selection: dict               # curve pair -> CrossingEvent
    events: dict                  # event id -> CrossingEvent

    def crossing_count(self) -> int:
        return sum(len(v) for v in self.drawing.values()) // 2


def build_HR(along: dict, selection: dict) -> AuxiliaryInstance:
    """The auxiliary instance with its inherited combinatorial drawing."""
    pieces: dict = {}
    sigma: dict = {}
    drawing: dict = {}
    selected_ids = {e.id for e in selection.values()}
    by_id = {e.id: e for mine in along.values() for e in mine}
    # piece id of the segment of each curve covering a given event position
    piece_at: dict = {}

    for cid, mine in along.items():
        sel_pos = [i for i, e in enumerate(mine) if e.id in selected_ids]
        sigma[cid] = [mine[i].other(cid) for i in sel_pos]
        for j in range(len(sel_pos) - 1):
            lo, hi = sel_pos[j], sel_pos[j + 1]
            e1, e2 = mine[lo], mine[hi]
            va = tuple(sorted((cid, e1.other(cid))))
            vb = tuple(sorted((cid, e2.other(cid))))
            pid = (cid, j)
            pieces[pid] = (va, vb)
            inner = [mine[p].id for p in range(lo + 1, hi)]
            drawing[pid] = inner
            for p in range(lo + 1, hi):
                piece_at[(cid, mine[p].id)] = pid

    # crossings whose both sides lie on interior pieces stay; others vanish
    # with the discarded tails
    R: set = set()
    for pid in sorted(drawing):
        cid = pid[0]
        kept = []
        for xid in drawing[pid]:
            e = by_id[xid]
            other = e.other(cid)
            opid = piece_at.get((other, xid))
            if opid is None:
                continue
            kept.append(xid)
            R.add(frozenset((pid, opid)))
        drawing[pid] = kept

    H = Graph(sorted(selection), pieces.values())
    return AuxiliaryInstance(H, pieces, R, sigma, drawing, dict(selection), by_id)


def bigon_reduce(inst: AuxiliaryInstance) -> AuxiliaryInstance:
    """Remove empty bigons until none remain.

    An empty bigon is a pair of crossings between the same two pieces that
    are consecutive on both; deleting the two crossings redraws the bigon
    away without introducing anything, so the result is still a weak
    realisation of (H, R) with strictly fewer crossings per step.
    """
    drawing = {pid: list(xs) for pid, xs in inst.drawing.items()}
    side: dict = {}
    for pid, xs in drawing.items():
        for x in xs:
            side.setdefault(x, []).append(pid)

    def other_piece(x, pid):
        a, b = side[x]
        return b if a == pid else a

    changed = True
    while changed:
        changed = False
        for pid in sorted(drawing):
            xs = drawing[pid]
            for i in range(len(xs) - 1):
                x, y = xs[i], xs[i + 1]
                opid = other_piece(x, pid)
                if other_piece(y, pid) != opid:
                    continue
                oxs = drawing[opid]
                ix, iy = oxs.index(x), oxs.index(y)
                if abs(ix - iy) != 1:
                    continue
                for pid2 in (pid, opid):
                    drawing[pid2] = [z for z in drawing[pid2] if z not in (x, y)]
                changed = True
                break
            if changed:
                break
    return AuxiliaryInstance(inst.H, inst.pieces, set(inst.R), inst.sigma,
                             drawing, inst.selection, inst.events)


def reassemble(inst: AuxiliaryInstance, along: dict) -> StringScene:
    """Concatenate each curve's pieces, read along the original curve, into
    a new curve alpha_u.

    The new scene is abstract: each alpha_u's crossing sequence keeps the
    selected crossings plus the surviving unselected ones, in arc order.
    The curve set and the intersection graph must be those of the original
    scene under the identity on curve ids (checked; failure means the drawing
    was not a weak realisation).
    """
    surviving = {x for xs in inst.drawing.values() for x in xs}
    selected_ids = {e.id for e in inst.selection.values()}
    events = sorted(inst.events.values(), key=lambda e: e.id)

    new = StringScene()
    for cid, mine in along.items():
        keep = [e.id for e in mine if e.id in selected_ids or e.id in surviving]
        if not keep:
            continue
        new.curves[cid] = Curve(cid, None, tuple(keep))
    for e in events:
        if e.id in selected_ids or e.id in surviving:
            new.chirality[e.id] = e.chirality
    lost = sorted(set(along) - set(new.curves))
    if lost:
        raise InvariantError(f"reassembled scene lost curves {lost}")
    new.validate()

    new_events = [e for e in events
                  if e.id in selected_ids or e.id in surviving]
    got = intersection_graph(new, new_events).edge_list()
    want = sorted(tuple(sorted(p)) for p in inst.selection)
    if got != want:
        raise InvariantError("reassembled scene changed the intersection graph")
    return new
