"""In-memory span tracer for the traced benchmark run.

The tracer wraps strandkit's public functions and the public methods of its
classes from outside the package: nothing under ``src/`` changes.  strandkit
modules bind each other's functions by name (``from .graph import
bfs_distances``), so every binding of a function in every strandkit module is
replaced, not only the one in the module that defines it.

A wrapped call records a span when it crosses into another layer (one layer
per strandkit module), or always for the functions that a per-layer metric
names.  A call that stays inside its caller's layer records no span, so hot
same-layer helpers add no span and their time stays in the caller's layer.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import pkgutil
import importlib
from time import perf_counter_ns

# Functions whose per-layer metric needs a span on every call.
NAMED = {
    "scene.load_scene", "scene.dumps_canonical",
    "geometry.intersect_segments",
    "arrangement.compute_arrangement",
    "colouring.compute_params",
    "planarise.planarise", "planarise.coloured_planarisation",
    "product_model.product_graph", "product_model.walk_weak_diameter",
    "graph.bfs_distances",
    "decomp.ltw_lift", "decomp.radius_decomposition", "decomp.verify_td",
}

# Per-element methods of the container classes.  A span costs more than one
# of these calls, and product_graph alone makes ~10^5 add_edge calls per
# decomp op, so their time is left in the calling layer.
ACCESSORS = {
    "graph.Graph.add_vertex", "graph.Graph.add_edge", "graph.Graph.has_edge",
    "graph.Graph.degree", "graph.Graph.neighbours",
    "graph.Graph.remove_vertex",
    "geometry.Point.scale", "geometry.Point.to_json", "geometry.Point.from_json",
    "embedding.EmbeddedGraph.dart_tail", "embedding.EmbeddedGraph.dart_head",
    "embedding.EmbeddedGraph.degree", "embedding.EmbeddedGraph.neighbours",
    "embedding.EmbeddedGraph.add_vertex", "embedding.EmbeddedGraph.add_edge",
    "product_model.MinorModel.product_adjacent",
    "product_model.MinorModel.projection",
    "scene.CrossingEvent.other", "scene.CrossingEvent.index_on",
    "arrangement.IntersectionGraph.degree",
}

OP_SPAN = "cli.main"     # the span the benchmark opens around each op
# Layers with a self_s metric: every module an op can reach (families, the
# scene generators, is set-up only).
LAYERS = ("scene", "geometry", "arrangement", "colouring", "planarise",
          "embedding", "product_model", "graph", "decomp", "localise", "cli")


def _counters(name, args, result):
    """Counts read from a wrapped call's arguments and return value."""
    if name == "arrangement.compute_arrangement":
        return len(result)
    if name in ("planarise.planarise", "planarise.coloured_planarisation"):
        return len(result.embedding.rotation)
    if name == "product_model.product_graph":
        return len(result)
    if name == "decomp.verify_td":
        return args[0].width
    return None


class Tracer:
    """Wraps strandkit on install(), restores it on uninstall()."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []        # (name, parent sid, op id, t0 ns, t1 ns)
        self.counts: list = []       # (sid, value) from _counters
        self.stack: list = []
        self.layer_stack: list = []
        self.op = -1
        self._restore: list = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        always = name in NAMED
        spans, counts = self.spans, self.counts
        stack, layers = self.stack, self.layer_stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not always and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            layers.append(layer)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                layers.pop()
                spans[sid] = (name, parent, tracer.op, t0, t1)
            value = _counters(name, args, result)
            if value is not None:
                counts.append((sid, value))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = self._modules()
        wrappers: dict = {}           # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__[len(prefix):]
            if short in ("", "cli"):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap_methods(self, cls, qual):
        for attr, raw in list(vars(cls).items()):
            name = f"{qual}.{attr}"
            if attr.startswith("_") or name in ACCESSORS:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- op spans

    def begin_op(self) -> int:
        self.op += 1
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        self.layer_stack.append("cli")
        self._op_t0 = perf_counter_ns()
        return sid

    def end_op(self, sid: int) -> None:
        t1 = perf_counter_ns()
        self.stack.pop()
        self.layer_stack.pop()
        self.spans[sid] = (OP_SPAN, -1, self.op, self._op_t0, t1)

    def write(self, path) -> None:
        """Spans as one JSON object: names table plus rows of
        [name index, parent span, op id, start ns, end ns]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], p, op, t0, t1] for n, p, op, t0, t1 in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "fields": ["name", "parent", "op",
                                                  "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans: list, counts: list, n_ops: int) -> tuple:
    """Per-layer metrics from closed spans, as per-op means unless noted,
    and the largest per-op gap between the op span and the sum of all self
    times under it (zero when every span nests inside its op)."""
    self_ns: dict = {}
    dur_ns: dict = {}
    calls: dict = {}
    child_ns = [0] * len(spans)
    for name, parent, _op, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    per_op_gap: dict = {}
    for sid, (name, parent, op, t0, t1) in enumerate(spans):
        own = t1 - t0 - child_ns[sid]
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + own
        dur_ns[name] = dur_ns.get(name, 0) + t1 - t0
        calls[name] = calls.get(name, 0) + 1
        per_op_gap[op] = per_op_gap.get(op, 0) + own
        if name == OP_SPAN:
            per_op_gap[op] -= t1 - t0
    residual = max((abs(v) for v in per_op_gap.values()), default=0)

    # intersect_segments calls made inside compute_arrangement, for pair_yield
    inside = [False] * len(spans)
    arrangement_tests = 0
    for sid, (name, parent, *_rest) in enumerate(spans):
        inside[sid] = name == "arrangement.compute_arrangement" or \
            (parent >= 0 and inside[parent])
        if name == "geometry.intersect_segments" and inside[sid]:
            arrangement_tests += 1
    values: dict = {}
    for sid, value in counts:
        values.setdefault(spans[sid][0], []).append(value)

    def seconds(name):          # inclusive time in `name` spans, per op
        return dur_ns.get(name, 0) * 1e-9 / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def mean(name):             # mean counter value per call of `name`
        v = values.get(name, [])
        return sum(v) / len(v) if v else 0.0

    events = sum(values.get("arrangement.compute_arrangement", []))
    m = {
        "scene.load_s": seconds("scene.load_scene"),
        "scene.dumps_s": seconds("scene.dumps_canonical"),
        "geometry.intersect_segments.calls": per_op("geometry.intersect_segments"),
        "arrangement.calls_per_op": per_op("arrangement.compute_arrangement"),
        "arrangement.events": mean("arrangement.compute_arrangement"),
        "arrangement.pair_yield":
            events / arrangement_tests if arrangement_tests else 0.0,
        "colouring.calls_per_op": per_op("colouring.compute_params"),
        "planarise.calls_per_op": per_op("planarise.planarise"),
        "planarise.cprime_vertices": mean("planarise.planarise"),
        "planarise.cphi_vertices": mean("planarise.coloured_planarisation"),
        "product_model.product_graph_s": seconds("product_model.product_graph"),
        "product_model.product_graph_vertices": mean("product_model.product_graph"),
        "product_model.walk_weak_diameter_s":
            seconds("product_model.walk_weak_diameter"),
        "graph.bfs_distances.calls": per_op("graph.bfs_distances"),
        "graph.bfs_distances_s": seconds("graph.bfs_distances"),
        "decomp.ltw_lift_s": seconds("decomp.ltw_lift"),
        "decomp.radius_decomposition_s": seconds("decomp.radius_decomposition"),
        "decomp.verify_td_s": seconds("decomp.verify_td"),
        "decomp.td_width": mean("decomp.verify_td"),
        "trace.op_s": seconds(OP_SPAN),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_ns.get(layer, 0) * 1e-9 / n_ops
    return m, residual * 1e-9
