"""Convex-set scenes for the tests: families, 1-bend drawings and the
convex-polygon predicates they are built on.

No strandkit pipeline reads a scene of convex sets, so this code lives with
the tests that certify its claims: the grid+dominant-disk family's
degeneracy, radius and grid minor (criterion 7), and the 2*Delta^2 per-edge
crossing bound of the 1-bend drawing (criterion 8).  Everything is exact
rational arithmetic on strandkit's Point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from strandkit.errors import InvariantError, SceneError
from strandkit.geometry import Point, pt
from strandkit.graph import Graph
from reference_geometry import SegmentIntersection, cross, intersect_segments


# --------------------------------------------------------- convex polygons

def convex_polygon_contains(poly: list[Point], p: Point, strict: bool = True) -> bool:
    """Point-in-convex-polygon test; polygon given counter-clockwise."""
    for i in range(len(poly)):
        c = cross(poly[i], poly[(i + 1) % len(poly)], p)
        if strict and c <= 0:
            return False
        if not strict and c < 0:
            return False
    return True


def polygon_is_convex_ccw(poly: list[Point]) -> bool:
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], poly[(i + 2) % n]) <= 0:
            return False
    return True


def centroid(points: Iterable[Point]) -> Point:
    pts = list(points)
    n = Fraction(len(pts))
    return Point(sum((p.x for p in pts), Fraction(0)) / n,
                 sum((p.y for p in pts), Fraction(0)) / n)


def clip_convex(subject: list[Point], clipper: list[Point]) -> list[Point]:
    """Sutherland-Hodgman intersection of two CCW convex polygons."""
    output = subject
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        a, b = clipper[i], clipper[(i + 1) % n]
        new_output: list[Point] = []
        m = len(output)
        for j in range(m):
            p, q = output[j], output[(j + 1) % m]
            p_in = cross(a, b, p) > 0
            q_in = cross(a, b, q) > 0
            if p_in:
                new_output.append(p)
            if p_in != q_in:
                # intersection of pq with line ab
                dp = cross(a, b, p)
                dq = cross(a, b, q)
                t = dp / (dp - dq)
                new_output.append(Point(p.x + (q.x - p.x) * t,
                                        p.y + (q.y - p.y) * t))
        # drop duplicates introduced by touching edges
        dedup: list[Point] = []
        for v in new_output:
            if not dedup or dedup[-1] != v:
                dedup.append(v)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        output = dedup
    return output


def _closed_contact(a: list, b: list) -> bool:
    """Do the closed polygons meet at all (boundary touches included)?"""
    for p in a:
        if convex_polygon_contains(b, p, strict=False):
            return True
    for p in b:
        if convex_polygon_contains(a, p, strict=False):
            return True
    for i in range(len(a)):
        for j in range(len(b)):
            res = intersect_segments(a[i], a[(i + 1) % len(a)],
                                     b[j], b[(j + 1) % len(b)])
            if res.kind != SegmentIntersection.DISJOINT:
                return True
    return False


def _polygon_area2(poly: list) -> Fraction:
    """Twice the signed area; zero for degenerate (sub-2D) polygons."""
    total = Fraction(0)
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        total += p.x * q.y - q.x * p.y
    return abs(total)


# ------------------------------------------------------------- convex scenes

@dataclass
class ConvexScene:
    sets: dict                     # id -> CCW convex polygon (list of Points)

    def validate(self) -> None:
        for sid in sorted(self.sets):
            if not polygon_is_convex_ccw(self.sets[sid]):
                raise SceneError(f"set {sid!r} is not a CCW convex polygon")

    def graph(self) -> Graph:
        """Intersection graph; adjacency needs an open (2D) overlap."""
        ids = sorted(self.sets)
        edges = []
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                inter = clip_convex(self.sets[a], self.sets[b])
                if _polygon_area2(inter) > 0:
                    edges.append((a, b))
                elif _closed_contact(self.sets[a], self.sets[b]):
                    raise SceneError(f"sets {a!r} and {b!r} touch tangentially")
        return Graph(ids, edges)


def convex_to_drawing(cs: ConvexScene) -> dict:
    """1-bend drawing of the intersection graph of a convex scene.

    Edge S_a S_b is drawn as p_a - q_ab - p_b with p_a interior to S_a and
    q_ab interior to the overlap; witness points are centroid-based with a
    deterministic jitter sequence until they are pairwise distinct and no
    three are collinear.  Every edge is asserted to carry at most
    2*Delta^2 crossings.
    """
    cs.validate()
    g = cs.graph()
    for attempt in range(32):
        try:
            return _attempt_drawing(cs, g, attempt)
        except _Collision:
            continue
    raise SceneError("could not reach general position for witness points")


class _Collision(Exception):
    pass


def _attempt_drawing(cs: ConvexScene, g: Graph, attempt: int) -> dict:
    rng = random.Random(f"convex-jitter:{attempt}")
    eps = Fraction(1, 1000 * 2 ** attempt)

    def jitter(p: Point, region: list[Point]) -> Point:
        if attempt == 0:
            return p
        q = Point(p.x + rng.randint(-999, 999) * eps,
                  p.y + rng.randint(-999, 999) * eps)
        if not convex_polygon_contains(region, q, strict=True):
            raise _Collision
        return q

    points: dict = {}
    for sid in sorted(cs.sets):
        points[sid] = jitter(centroid(cs.sets[sid]), cs.sets[sid])
    bends: dict = {}
    for (a, b) in g.edge_list():
        overlap = clip_convex(cs.sets[a], cs.sets[b])
        bends[(a, b)] = jitter(centroid(overlap), overlap)

    chosen = list(points.values()) + list(bends.values())
    if len(set(chosen)) != len(chosen):
        raise _Collision
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            for k in range(j + 1, len(chosen)):
                if cross(chosen[i], chosen[j], chosen[k]) == 0:
                    raise _Collision

    # segments per edge: (edge, owning set) so crossings can be audited
    segs = []
    for (a, b) in g.edge_list():
        q = bends[(a, b)]
        segs.append(((a, b), a, points[a], q))
        segs.append(((a, b), b, q, points[b]))
    crossings = {e: 0 for e in g.edge_list()}
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            e1, s1, a1, b1 = segs[i]
            e2, s2, a2, b2 = segs[j]
            if e1 == e2:
                continue
            res = intersect_segments(a1, b1, a2, b2)
            if res.kind == SegmentIntersection.DISJOINT:
                continue
            if res.kind != SegmentIntersection.PROPER:
                shared = {a1, b1} & {a2, b2}
                if res.kind == SegmentIntersection.TOUCH and res.point in shared:
                    continue   # two edges meeting at a common set point
                raise _Collision
            if _polygon_area2(clip_convex(cs.sets[s1], cs.sets[s2])) == 0:
                raise InvariantError(
                    f"crossing between pieces of disjoint sets {s1!r}, {s2!r}")
            crossings[e1] += 1
            crossings[e2] += 1

    delta = max((len(ns) for ns in g.adj.values()), default=0)
    cap = 2 * delta * delta
    for e, c in sorted(crossings.items()):
        if c > cap:
            raise InvariantError(f"edge {e} carries {c} crossings > 2*Delta^2 = {cap}")
    return {"points": points, "bends": bends, "crossings": crossings,
            "max_crossings": max(crossings.values(), default=0), "cap": cap}


# ---------------------------------------------------------------- families

_CIRCLE_PARAMS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                  Fraction(1), Fraction(3, 2), Fraction(3), Fraction(6)]


def _circle_polygon(center: Point, radius: Fraction) -> list[Point]:
    """Convex polygon inscribed in the circle, exact rational vertices."""
    pts = []
    for u in _CIRCLE_PARAMS:
        den = 1 + u * u
        pts.append(Point((1 - u * u) / den, 2 * u / den))
    pts.append(Point(Fraction(-1), Fraction(0)))
    for u in reversed(_CIRCLE_PARAMS[1:]):
        den = 1 + u * u
        pts.append(Point((1 - u * u) / den, -2 * u / den))
    return [Point(center.x + radius * p.x, center.y + radius * p.y) for p in pts]


def gen_grid_disk(t: int) -> ConvexScene:
    """t x t unit disks at spacing 3/2 plus one dominant disk over all."""
    if t < 2:
        raise SceneError("grid size must be >= 2")
    sets = {}
    gap = Fraction(3, 2)
    for i in range(t):
        for j in range(t):
            sets[f"d:{i}:{j}"] = _circle_polygon(Point(i * gap, j * gap), Fraction(1))
    mid = (t - 1) * gap / 2
    big = gap * t + 2
    sets["dom"] = _circle_polygon(Point(mid, mid), big)
    return ConvexScene(sets)


def _rect(x0, y0, x1, y1) -> list[Point]:
    return [pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)]


def gen_rectangle_family(delta: int) -> ConvexScene:
    """delta thin vertical x delta thin horizontal rectangles (K_{d,d})."""
    if delta < 1:
        raise SceneError("delta must be >= 1")
    sets = {}
    w = Fraction(1, 3)
    for i in range(delta):
        sets[f"v:{i}"] = _rect(2 * i, -1, 2 * i + w, 2 * delta)
    for j in range(delta):
        sets[f"h:{j}"] = _rect(-1, 2 * j, 2 * delta, 2 * j + w)
    return ConvexScene(sets)


def gen_random_convex(n: int, seed: int) -> ConvexScene:
    """Random rectangle scene with open pairwise intersections (no tangencies)."""
    if n < 2:
        raise SceneError("need at least 2 sets")
    for attempt in range(200):
        rng = random.Random(f"{seed}:{attempt}")
        sets = {}
        span = 4 * n
        for k in range(n):
            den = 101 + 2 * k
            x0 = Fraction(rng.randint(0, span * den), den)
            y0 = Fraction(rng.randint(0, span * den), den)
            wd = Fraction(rng.randint(2 * den, span * den // 2), den)
            ht = Fraction(rng.randint(2 * den, span * den // 2), den)
            sets[f"r:{k:02d}"] = _rect(x0, y0, x0 + wd, y0 + ht)
        cs = ConvexScene(sets)
        try:
            cs.graph()
        except SceneError:
            continue
        return cs
    raise SceneError(f"no tangency-free convex scene for seed {seed}")
