"""Curve collections: the scene model, JSON loading, validation.

A scene is either *geometric* (curves are rational polylines, disks are
centre/radius pairs) or *abstract* (curves are ordered crossing-id sequences
with per-crossing chirality signs, disks are cyclic boundary orders).  The
abstract form is the canonical internal one; geometric scenes compile to it
when the arrangement is computed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import SceneError
from .formats import dumps_scene
from .geometry import Point, _common_denominator, _json_int, _scaled

# the characters XML 1.0 excludes, among them the surrogates, which UTF-8 cannot encode
_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class Curve(NamedTuple):
    id: str
    points: Optional[tuple[Point, ...]] = None
    crossings: Optional[tuple[str, ...]] = None
    grounded: Optional[tuple[str, int]] = None   # (disk id, end 0|1)
    # abstract mode only: arc indices along the curve carrying a half-twist
    # (arc i joins the (i-1)-th and i-th stops of the curve's path); lets a
    # scene live on a non-orientable surface
    twists: tuple[int, ...] = ()

    @property
    def is_geometric(self) -> bool:
        return self.points is not None


class Disk(NamedTuple):
    id: str
    center: Optional[Point] = None
    radius: Optional[Fraction] = None
    # abstract form: cyclic order of grounded endpoints (curve id, end)
    boundary: Optional[tuple[tuple[str, int], ...]] = None

    @property
    def is_geometric(self) -> bool:
        return self.center is not None


class CrossingEvent(NamedTuple):
    """One transversal crossing between two distinct curves.

    curve_a is always the lexicographically smaller curve id.  chirality is
    the sign of the cross product of the tangent of curve_a with the tangent
    of curve_b at the crossing (abstract scenes supply it directly).
    """
    id: str
    curve_a: str
    curve_b: str
    index_in_a: int
    index_in_b: int
    chirality: int
    location: Optional[Point] = None

    def other(self, curve_id: str) -> str:
        return self.curve_b if curve_id == self.curve_a else self.curve_a


class StringScene:
    def __init__(self, curves: dict[str, Curve] | None = None,
                 disks: dict[str, Disk] | None = None,
                 chirality: dict[str, int] | None = None):
        self.curves = {} if curves is None else curves
        self.disks = {} if disks is None else disks
        self.chirality = {} if chirality is None else chirality

    @property
    def is_geometric(self) -> bool:
        return all(c.is_geometric for c in self.curves.values())

    def curve_ids(self) -> list[str]:
        return sorted(self.curves)

    def validate(self) -> None:
        if not self.curves:
            raise SceneError("scene has no curves")
        xs = [*self.chirality, *(x for c in self.curves.values() for x in c.crossings or ())]
        for kind, ids in (("curve", self.curves), ("disk", self.disks), ("crossing", xs)):
            for i in ids:
                if _UNWRITABLE.search(i):
                    raise SceneError(
                        f"{kind} id {i!r} holds a character no output file can carry")
        for cid in self.curves:
            curve = self.curves[cid]
            if (curve.points is None) == (curve.crossings is None):
                raise SceneError(f"curve {cid!r}: exactly one of points/crossings required")
            if curve.points is not None:
                if curve.twists:
                    raise SceneError(f"curve {cid!r}: twists require abstract mode")
                if len(curve.points) < 2:
                    raise SceneError(f"curve {cid!r}: polyline needs at least 2 points")
                if curve.points[0] == curve.points[-1]:
                    raise SceneError(f"curve {cid!r}: endpoints coincide")
            else:
                self._validate_abstract_curve(curve)
            if curve.grounded is not None:
                disk_id, end = curve.grounded
                if disk_id not in self.disks:
                    raise SceneError(f"curve {cid!r} grounded on unknown disk {disk_id!r}")
                if end not in (0, 1):
                    raise SceneError(f"curve {cid!r}: grounded end must be 0 or 1")
        if not self.is_geometric:
            self._validate_abstract_crossings()
        if any(c.is_geometric for c in self.curves.values()) and \
           any(not c.is_geometric for c in self.curves.values()):
            raise SceneError("mixed geometric/abstract curves are not supported")
        if any(c.is_geometric for c in self.curves.values()) and \
           any(not d.is_geometric for d in self.disks.values()):
            raise SceneError("geometric curves with an abstract disk are not supported")
        if any(not c.is_geometric for c in self.curves.values()) and \
           any(d.is_geometric for d in self.disks.values()):
            raise SceneError("abstract curves with a geometric disk are not supported")
        self._validate_disks()
        self._validate_boundaries()

    def _validate_abstract_curve(self, curve: Curve) -> None:
        seq = curve.crossings
        if len(seq) != len(set(seq)):
            raise SceneError(f"curve {curve.id!r}: repeated crossing id in sequence")
        if len(seq) == 0:
            raise SceneError(f"curve {curve.id!r}: empty crossing sequence")
        for arc in curve.twists:
            if not 0 <= arc <= len(seq):
                raise SceneError(f"curve {curve.id!r}: twist index {arc} out of range")

    def _validate_abstract_crossings(self) -> None:
        owners: dict[str, list[str]] = {}
        for cid in sorted(self.curves):
            for x in self.curves[cid].crossings or ():
                owners.setdefault(x, []).append(cid)
        for x, cs in sorted(owners.items()):
            if len(cs) != 2:
                raise SceneError(f"crossing {x!r} appears on {len(cs)} curves, expected 2")
            sign = self.chirality.get(x)
            if sign not in (1, -1):
                raise SceneError(f"crossing {x!r}: chirality sign missing or not +-1")
        unknown = sorted(self.chirality.keys() - owners.keys())
        if unknown:
            raise SceneError(f"chirality names {unknown[0]!r}, a crossing on no curve")

    def _validate_disks(self) -> None:
        geo = [d for d in self.disks.values() if d.is_geometric]
        ids = sorted(d.id for d in geo)
        for i, a_id in enumerate(ids):
            for b_id in ids[i + 1:]:
                a, b = self.disks[a_id], self.disks[b_id]
                dx, dy = a.center.x - b.center.x, a.center.y - b.center.y
                if dx * dx + dy * dy <= (a.radius + b.radius) ** 2:
                    raise SceneError(f"disks {a_id!r} and {b_id!r} are not disjoint")
        for d in geo:
            if d.radius <= 0:
                raise SceneError(f"disk {d.id!r}: radius must be positive")
            # validate has refused abstract curves beside a geometric disk
            for curve in self.curves.values():
                self._check_curve_avoids_disk(curve, d)

    def _validate_boundaries(self) -> None:
        """Each boundary entry names a curve grounded there at that end, once."""
        for did in sorted(self.disks):
            # lists, not sets: a parsed entry may hold an unhashable value
            ends = [(c.id, c.grounded[1]) for c in self.curves.values()
                    if c.grounded is not None and c.grounded[0] == did]
            seen: list = []
            for entry in self.disks[did].boundary or ():
                if entry not in ends:
                    raise SceneError(
                        f"disk {did!r}: boundary entry {list(entry)!r} is not "
                        "a curve end grounded on this disk")
                if entry in seen:
                    raise SceneError(
                        f"disk {did!r}: boundary entry {list(entry)!r} repeats")
                seen.append(entry)

    def _check_curve_avoids_disk(self, curve: Curve, disk: Disk) -> None:
        grounded_here = curve.grounded is not None and curve.grounded[0] == disk.id
        points = (*curve.points, disk.center)
        D = math.lcm(_common_denominator(points), disk.radius.denominator)
        *pts, center = _scaled(points, D)
        r2 = (disk.radius.numerator * (D // disk.radius.denominator)) ** 2
        if grounded_here:
            end = curve.grounded[1]
            ax, ay = pts[0] if end == 0 else pts[-1]
            if (ax - center[0]) ** 2 + (ay - center[1]) ** 2 != r2:
                raise SceneError(
                    f"curve {curve.id!r}: grounded endpoint not on boundary of disk {disk.id!r}")
        for i in range(len(pts) - 1):
            if _segment_enters_open_disk(pts[i], pts[i + 1], center, r2):
                raise SceneError(
                    f"curve {curve.id!r} enters interior of disk {disk.id!r}")

    def grounded_curves(self) -> list[str]:
        return sorted(c for c in self.curves if self.curves[c].grounded is not None)

    @staticmethod
    def from_json(data: dict) -> "StringScene":
        if not isinstance(data, dict):
            raise SceneError("scene JSON must be an object")
        try:
            scene = StringScene()
            for entry in data.get("curves", []):
                cid = entry["id"]
                if not isinstance(cid, str):
                    raise SceneError(f"curve id {cid!r} is not a string")
                if cid in scene.curves:
                    raise SceneError(f"duplicate curve id {cid!r}")
                points = None
                crossings = None
                if "points" in entry:
                    points = tuple(Point.from_json(p) for p in entry["points"])
                if "crossings" in entry:
                    if not isinstance(entry["crossings"], list):
                        raise SceneError(f"curve {cid!r}: crossings must be a "
                                         "list of crossing ids")
                    crossings = tuple(entry["crossings"])
                    for x in crossings:
                        if not isinstance(x, str):
                            raise SceneError(
                                f"curve {cid!r}: crossing id {x!r} is not a string")
                grounded = None
                if "grounded" in entry:
                    disk = entry["grounded"]["disk"]
                    if not isinstance(disk, str):
                        raise SceneError(
                            f"curve {cid!r}: grounded disk id {disk!r} is not a string")
                    grounded = (disk, _json_int(
                        entry["grounded"]["end"], f"curve {cid!r}: grounded end"))
                twists = tuple(_json_int(i, f"curve {cid!r}: twist index")
                               for i in entry.get("twists", ()))
                scene.curves[cid] = Curve(cid, points, crossings, grounded, twists)
            for entry in data.get("disks", []):
                did = entry["id"]
                if not isinstance(did, str):
                    raise SceneError(f"disk id {did!r} is not a string")
                if did in scene.disks:
                    raise SceneError(f"duplicate disk id {did!r}")
                center = radius = boundary = None
                if "center" in entry:
                    center = Point.from_json(entry["center"])
                    rn, rd = entry["radius"]
                    radius = Fraction(_json_int(rn, f"disk {did!r}: radius"),
                                      _json_int(rd, f"disk {did!r}: radius"))
                if "boundary" in entry:
                    boundary = tuple((c, _json_int(e, f"disk {did!r}: boundary end"))
                                     for c, e in entry["boundary"])
                scene.disks[did] = Disk(did, center, radius, boundary)
            chirality = data.get("chirality", {})
            if not isinstance(chirality, dict):
                raise SceneError("chirality must be an object of crossing id -> sign")
            for k, v in chirality.items():
                scene.chirality[k] = _json_int(v, f"chirality of {k!r}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SceneError(f"malformed scene JSON: {exc}") from exc
        return scene


def _segment_enters_open_disk(a: tuple[int, int], b: tuple[int, int],
                              c: tuple[int, int], r2: int) -> bool:
    """Does the closed segment ab meet the open disk of squared radius r2
    around c?  Integer points, so no division: with w = c - a and d = b - a,
    the closest point of ab is a when w.d <= 0, b when w.d >= |d|^2, and
    otherwise at squared distance |w|^2 - (w.d)^2 / |d|^2 from c."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    dx, dy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    dot = wx * dx + wy * dy
    w2 = wx * wx + wy * wy
    if dot <= 0:
        return w2 < r2
    len2 = dx * dx + dy * dy
    if dot >= len2:
        return (cx - bx) ** 2 + (cy - by) ** 2 < r2
    return w2 * len2 - dot * dot < r2 * len2


def read_json(path, role: str):
    """The JSON value of a UTF-8 file, whatever the locale; a missing file,
    or one that is not JSON, is a SceneError naming its role ("scene",
    "colouring")."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SceneError(f"{role} file not found: {path}") from None
    except (ValueError, RecursionError) as exc:    # bad JSON, UTF-8 or nesting
        raise SceneError(f"{role} file is not valid JSON: {exc}") from exc


def load_scene(path) -> StringScene:
    """Load a scene file and validate its structure, grounding and disks.

    Whether segments cross, touch or overlap, a curve's own included, is
    the arrangement's to decide."""
    scene = StringScene.from_json(read_json(path, "scene"))
    scene.validate()
    return scene


def dump_scene(scene: StringScene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scene(scene))
