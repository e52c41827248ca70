"""Example-family generators.

Convex scenes give 1-bend drawings with the 2*Delta^2 per-edge crossing
bound, certified when drawn; the grid+dominant-disk and segment families
realise the claimed degeneracy/radius/minor properties, which the test
suite certifies by direct computation; random generators back the
property-test corpus (deterministic per seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import compute_arrangement
from .errors import CheckFailure, DegeneracyError, SceneError
from .geometry import (Point, centroid, clip_convex, convex_polygon_contains,
                       cross, intersect_segments, polygon_is_convex_ccw, pt,
                       SegmentIntersection)
from .graph import Graph
from .scene import Curve, Disk, StringScene


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

    def to_json(self) -> dict:
        return {"sets": {sid: [p.to_json() for p in self.sets[sid]]
                         for sid in sorted(self.sets)}}

    def graph(self) -> Graph:
        """Intersection graph; adjacency needs an open (2D) overlap."""
        ids = sorted(self.sets)
        g = Graph(vertices=ids)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                inter = clip_convex(self.sets[a], self.sets[b])
                if _polygon_area2(inter) > 0:
                    g.add_edge(a, b)
                elif _closed_contact(self.sets[a], self.sets[b]):
                    raise SceneError(f"sets {a!r} and {b!r} touch tangentially")
        return g


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
                raise CheckFailure(
                    f"crossing between pieces of disjoint sets {s1!r}, {s2!r}")
            crossings[e1] += 1
            crossings[e2] += 1

    delta = g.max_degree()
    cap = 2 * delta * delta
    for e, c in sorted(crossings.items()):
        if c > cap:
            raise CheckFailure(f"edge {e} carries {c} crossings > 2*Delta^2 = {cap}")
    return {"points": points, "bends": bends, "crossings": crossings,
            "max_crossings": max(crossings.values(), default=0), "cap": cap}


# ----------------------------------------------------------- disk polygons

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


# ----------------------------------------------------------- segment family

def gen_segment_family(t: int) -> StringScene:
    """The horizontal/vertical family with 2t^2 + 1 segments.

    gamma runs along y=0 and crosses the verticals gamma_1..gamma_t; each
    alpha_i^j is a short horizontal at height j + i/(4t) crossing gamma_i
    only; each beta_i^j is a short vertical at x = i + 1/2 crossing
    alpha_i^j and alpha_{i+1}^j only.
    """
    if t < 1:
        raise SceneError("t must be >= 1")
    s = StringScene()
    span = Fraction(11, 20)
    s.curves["g"] = Curve("g", (pt(Fraction(1, 5), 0), pt(t + Fraction(4, 5), 0)))
    for i in range(1, t + 1):
        s.curves[f"g{i}"] = Curve(f"g{i}", (pt(i, -1), pt(i, t + 1)))
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            h = j + Fraction(i, 4 * t)
            s.curves[f"a{i}_{j}"] = Curve(
                f"a{i}_{j}", (Point(i - span, h), Point(i + span, h)))
    for i in range(1, t):
        for j in range(1, t + 1):
            lo = j + Fraction(i, 4 * t) - Fraction(1, 8 * t)
            hi = j + Fraction(i + 1, 4 * t) + Fraction(1, 8 * t)
            x = i + Fraction(1, 2)
            s.curves[f"b{i}_{j}"] = Curve(f"b{i}_{j}", (Point(x, lo), Point(x, hi)))
    s.validate()
    return s


# ----------------------------------------------------------- random scenes

def gen_random(n: int, crossings_per_pair: int, seed: int) -> StringScene:
    """Deterministic pseudo-random polyline scene in general position.

    Half the curves are horizontal zigzags at well-separated heights, half
    vertical ones; jitter knots use per-curve denominators so coordinates
    never coincide.  Candidate scenes violating general position or the
    per-pair crossing cap are rejected and regenerated (still a pure
    function of the seed).
    """
    if n < 2:
        raise SceneError("need at least 2 curves")
    cap = max(1, crossings_per_pair)
    for attempt in range(200):
        rng = random.Random(f"{seed}:{attempt}")
        scene = _random_candidate(n, cap, rng)
        try:
            scene.validate()
            events = compute_arrangement(scene)
        except (SceneError, DegeneracyError):
            continue
        per_pair: dict = {}
        crossing = set()
        for e in events:
            key = (e.curve_a, e.curve_b)
            per_pair[key] = per_pair.get(key, 0) + 1
            crossing.update(key)
        if per_pair and max(per_pair.values()) <= cap \
                and crossing == set(scene.curve_ids()):
            return scene
    raise SceneError(f"no valid random scene for seed {seed}")


def _random_candidate(n: int, cap: int, rng: random.Random) -> StringScene:
    scene = StringScene()
    n_h = (n + 1) // 2
    # span wide enough that every curve's base line lies strictly inside the
    # other family's extent, so no curve can miss the whole arrangement
    width = 3 * n_h
    primes = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
              151, 157, 163, 167, 173, 179, 181, 191, 193, 197]
    amp = cap + 1 if cap > 1 else 1
    for k in range(n):
        den = primes[k % len(primes)] * (1 + k // len(primes))
        base = 3 * (k if k < n_h else k - n_h) + Fraction(rng.randint(1, den - 1), den)
        knots = []
        for x in range(width + 1):
            jit = Fraction(rng.randint(-amp * den + 1, amp * den - 1), den * 3)
            knots.append((Fraction(x), base + jit))
        if k < n_h:
            pts = tuple(Point(x, y) for x, y in knots)
        else:
            pts = tuple(Point(y, x) for x, y in knots)
        cid = f"c{k:02d}"
        scene.curves[cid] = Curve(cid, pts)
    return scene


def gen_grounded(n: int, seed: int) -> StringScene:
    """Random grounded scene: n curves rooted on one disk, crossing above it.

    Each curve climbs from its boundary point to a private height, runs
    sideways across other curves' risers, and with probability 1/2 hooks
    back at a second height to cross some of them twice.  All coordinates use distinct
    denominators, so the arrangement is degenerate-free by construction.
    """
    if n < 1:
        raise SceneError("need at least 1 curve")
    for attempt in range(200):
        s = _grounded_candidate(n, random.Random(f"{seed}:{attempt}"))
        try:
            events = compute_arrangement(s)
        except (SceneError, DegeneracyError):
            continue
        crossing = {e.curve_a for e in events} | {e.curve_b for e in events}
        if crossing == set(s.curve_ids()):
            return s
    raise SceneError(f"no isolated-curve-free grounded scene for seed {seed}")


def _grounded_candidate(n: int, rng: random.Random) -> StringScene:
    s = StringScene()
    s.disks["D"] = Disk("D", pt(0, 0), Fraction(1))
    # boundary points on the upper semicircle via the tangent half-angle map
    us = [Fraction(k + 1, n + 2) for k in range(n)]
    xs = []
    for k, u in enumerate(us):
        den = 1 + u * u
        xs.append((-(1 - u * u) / den, 2 * u / den))
    heights = rng.sample(range(1, 4 * n + 1), n)
    order = sorted(range(n), key=lambda k: xs[k][0])
    for rank, k in enumerate(order):
        cid = f"s{rank:02d}"
        x0, y0 = xs[k]
        h1 = 2 + Fraction(heights[k], 4 * n + 1)
        path = [Point(x0, y0), Point(x0, h1)]
        reach = rng.randint(0, n)
        tx = Fraction(2 * reach - n, 1) + Fraction(rank + 1, 4 * n + 5)
        if tx != x0:
            path.append(Point(tx, h1))
            if rng.random() < 0.5:
                h2 = h1 + Fraction(rng.randint(1, 4 * n), (4 * n + 3) ** 2)
                bx = Fraction(2 * rng.randint(0, n) - n, 1) + \
                    Fraction(rank + 1, 4 * n + 7)
                path.append(Point(tx, h2))
                if bx != tx:
                    path.append(Point(bx, h2))
        s.curves[cid] = Curve(cid, tuple(path), grounded=("D", 0))
    s.validate()
    return s

