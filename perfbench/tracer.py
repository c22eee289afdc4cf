"""Per-layer spans, recorded from outside the library.

``Tracer.install`` replaces each function listed in ``LAYERS``, in every
``ehrhart.*`` module namespace that binds it, with a wrapper that counts
calls, measures inclusive and self time, and records the layer's work
counts. The library itself is not changed: modules that import a
function by name, modules that reach it as a module attribute, and the
claim table of ``ehrhart.cli`` all see the wrapper until ``uninstall``.

A span's self time is its duration minus the part its child spans
cover, so the self times of nested layers add up to at most the traced
wall time; their sum over that wall time is the trace coverage.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Layer:
    module: str  # ehrhart submodule that defines the function
    function: str
    counts: tuple[str, ...]  # work counts beyond calls and self_s
    moves: str  # end-to-end metric and workload this layer should move


LAYERS = (
    Layer("polytope", "from_vertices", ("points",),
          "wall_ref_s on hull-faces and verify-p2; barely count-deep"),
    Layer("polytope", "faces", (),
          "wall_ref_s on hull-faces and verify-p2; barely count-deep"),
    Layer("linalg", "min_dilate_with_lattice_point", (),
          "wall_ref_s on hull-faces and verify-p2 (mcmullen claim)"),
    Layer("indices", "index_sequence", (),
          "wall_ref_s on hull-faces and verify-p2 (mcmullen claim)"),
    Layer("counting", "count_convex", ("box_points",),
          "wall_ref_s and task_tail_ref_s on count-deep; not hull-faces"),
    Layer("counting", "count_union", ("box_points",),
          "wall_ref_s and task_tail_ref_s on count-deep; not hull-faces"),
    Layer("quasipoly", "fit",
          ("interp_samples", "verify_samples", "interp_count_s", "verify_count_s"),
          "wall_ref_s on verify-p2 only"),
    Layer("series", "from_quasipolynomial", (), "nothing measurable"),
    Layer("series", "series_equivalent", (), "nothing measurable"),
    Layer("pte", "verify", (), "nothing measurable"),
)

# count_box spans are split by the dimension of the box; d4 also carries
# most of verify-p2's counting
KERNEL_DIMS = (1, 2, 3, 4, 5)
KERNEL_MOVES = "wall_ref_s and task_tail_ref_s on count-deep (d4 also verify-p2); not hull-faces"
KERNEL_MODULES = ("_enum_py", "_enum_cy")

CLAIMS = (
    "pentagon-equivalence",
    "heptagon",
    "pyramid-equivalence",
    "prism-identity",
    "sn-pn-equivalence",
    "decomposition",
    "hn-periods",
    "barn-periods",
    "mcmullen",
    "pte-table",
    "product-identity",
)


def moves(metric: str) -> str:
    """The end-to-end metric and workload a per-layer metric should move."""
    for layer in LAYERS:
        if metric.startswith(f"{layer.module}.{layer.function}."):
            return layer.moves
    if metric.startswith("kernel."):
        return KERNEL_MOVES
    if metric.startswith("cli.claim."):
        return "breakdown of wall_ref_s on verify-p2"
    return "how far the layer metrics can be trusted"


def _unit(count: str) -> str:
    return "s" if count.endswith("_s") else "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        prefix = f"{layer.module}.{layer.function}"
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        for count in layer.counts:
            units[f"{prefix}.{count}"] = _unit(count)
    for name in [f"kernel.count_box.d{d}" for d in KERNEL_DIMS] + ["kernel.count_box_union"]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for claim in CLAIMS:
        units[f"cli.claim.{claim}.s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, count: str, value: float) -> None:
        self.counts[count] = self.counts.get(count, 0) + value


def _box_points(vertex_sets, k: int) -> int:
    """Points of the integer bounding box of ``k`` times the vertex sets."""
    vertices = [v for vs in vertex_sets for v in vs]
    size = 1
    for j in range(len(vertices[0])):
        coords = [v[j] * k for v in vertices]
        size *= max(0, math.floor(max(coords)) - math.ceil(min(coords)) + 1)
    return size


class Tracer:
    """Spans kept in memory; ``clock`` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []  # child time covered, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn: Callable, args, kwargs):
        stat = self.stats.setdefault(name, Stat())
        self._children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - children

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as the span ``name``."""

        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    # -- layer-specific wrappers: work counts come from the call's arguments

    def _wrap_layer(self, layer: Layer, fn: Callable) -> Callable:
        name = f"{layer.module}.{layer.function}"
        if layer.function == "from_vertices":
            def traced(points, *args, **kwargs):
                points = list(points)
                self.stats.setdefault(name, Stat()).add("points", len(points))
                return self._record(name, fn, (points, *args), kwargs)
        elif layer.function == "count_convex":
            def traced(poly, k, *args, **kwargs):
                self.stats.setdefault(name, Stat()).add("box_points", _box_points([poly.vertices], k))
                return self._record(name, fn, (poly, k, *args), kwargs)
        elif layer.function == "count_union":
            def traced(union, k, *args, **kwargs):
                pieces = [p.vertices for p in union.pieces]
                self.stats.setdefault(name, Stat()).add("box_points", _box_points(pieces, k))
                return self._record(name, fn, (union, k, *args), kwargs)
        elif layer.function == "fit":
            def traced(counter, degree, modulus, *args, **kwargs):
                stat = self.stats.setdefault(name, Stat())
                top = (degree + 1) * modulus  # last dilate of the interpolation window

                def timed_counter(k):
                    phase = "interp" if k <= top else "verify"
                    start = self.clock()
                    try:
                        return counter(k)
                    finally:
                        stat.add(f"{phase}_count_s", self.clock() - start)
                        stat.add(f"{phase}_samples", 1)

                return self._record(name, fn, (timed_counter, degree, modulus, *args), kwargs)
        else:
            return self.wrap(name, fn)
        return traced

    def _wrap_kernel(self, fn: Callable, union: bool) -> Callable:
        if union:
            return self.wrap("kernel.count_box_union", fn)

        def traced(lo, *args, **kwargs):
            return self._record(f"kernel.count_box.d{len(lo)}", fn, (lo, *args), kwargs)

        return traced

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ehrhart" or mod_name.startswith("ehrhart.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function wherever an ``ehrhart`` module binds it."""
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"ehrhart.{layer.module}")
            original = getattr(module, layer.function)
            self._rebind(original, self._wrap_layer(layer, original))
        for mod_name in KERNEL_MODULES:
            try:
                module = importlib.import_module(f"ehrhart.{mod_name}")
            except ImportError:
                continue  # the compiled kernel is optional
            for fn_name, union in (("count_box", False), ("count_box_union", True)):
                original = getattr(module, fn_name, None)
                if original is not None:
                    self._rebind(original, self._wrap_kernel(original, union))
        cli = importlib.import_module("ehrhart.cli")
        table = cli._CLAIM_FUNCS
        for claim, original in list(table.items()):
            self._undo.append((table, claim, original))
            table[claim] = self.wrap(f"cli.claim.{claim}", original)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics; claims are a breakdown of verify-p2, not layers."""
        out = {}
        covered = 0.0
        for name, unit in metric_units().items():
            if name.startswith("trace."):
                continue
            if name.startswith("cli.claim."):
                stat = self.stats.get(name[: -len(".s")], Stat())
                out[name] = stat.total_s
                continue
            prefix, _, metric = name.rpartition(".")
            stat = self.stats.get(prefix, Stat())
            if metric == "calls":
                out[name] = stat.calls
            elif metric == "self_s":
                out[name] = stat.self_s
            else:
                out[name] = stat.counts.get(metric, 0)
        for name, stat in self.stats.items():
            if not name.startswith("cli.claim."):
                covered += stat.self_s
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out
