"""Example-family generators: every one returns a StringScene.

The segment family realises the degeneracy, radius and K_{t,t}-minor
properties the paper claims for it, which the test suite certifies by direct
computation.  The seeded random and grounded generators back the
property-test corpus and the benchmark; each is a pure function of its
arguments.  The convex-set families, which no pipeline reads, live with
their certifiers in tests/convex_sets.py.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from .arrangement import compute_arrangement
from .errors import SceneError
from .geometry import Point, pt
from .scene import Curve, Disk, StringScene


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
        raise SceneError(f"need at least 2 curves, got n={n}")
    if crossings_per_pair < 1:
        raise SceneError("crossings_per_pair must be >= 1")
    cap = crossings_per_pair
    over_cap = 0
    for attempt in range(200):
        rng = random.Random(f"{seed}:{attempt}")
        scene = _random_candidate(n, cap, rng)
        try:
            scene.validate()
            events = compute_arrangement(scene)
        except SceneError:
            continue
        per_pair = Counter((e.curve_a, e.curve_b) for e in events)
        if per_pair and max(per_pair.values()) > cap:
            over_cap += 1
        elif per_pair and {c for pair in per_pair for c in pair} == set(scene.curve_ids()):
            return scene
    raise SceneError(f"no random scene of n={n} curves for seed {seed}: {over_cap} of 200 "
                     f"candidates cross some curve pair more than crossings_per_pair={cap} times")


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
    if n < 2:
        raise SceneError(f"need at least 2 curves, got n={n}")
    for attempt in range(200):
        s = _grounded_candidate(n, random.Random(f"{seed}:{attempt}"))
        try:
            events = compute_arrangement(s)
        except SceneError:
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

