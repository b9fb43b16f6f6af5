"""Per-layer tracing of polysweep from outside the package.

``Tracer.installed()`` replaces every public module-level function of
the layer modules with a timing wrapper, in every module namespace that
holds it (``from .sweep import vertex_figure`` in ``toric`` makes
``polysweep.toric.vertex_figure`` a separate lookup), and restores the
originals on exit.  Calls between layers therefore pass through a
wrapper; calls a module makes to its own private helpers and methods on
``FaceLattice`` or ``CDPolynomial`` objects do not, so that time counts
toward the calling layer.

Each wrapped call is a span (name, start, end, parent, job) kept in
memory.  The ``exactnum`` functions are called hundreds of thousands of
times per hull, so they are aggregated instead: their outermost calls
are timed and charged to the enclosing span as child time, and every
call is counted, but no span is stored.

A layer's self time is the time of its spans minus the time covered by
their children.  Because one thread runs each job, the children of a
span never overlap, so covered time is the sum of child durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import types
from collections import Counter
from time import perf_counter

LAYERS = ("exactnum", "polytope", "flagvec", "sweep", "toric", "truncpartition", "cli")
AGGREGATED = "exactnum"


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("polysweep")] + [
            importlib.import_module(f"polysweep.{name}") for name in LAYERS
        ]
        self.job = -1
        self.spans: list[tuple] = []  # (id, name, job, parent id, start, end)
        self.next_id = 0
        self.stack: list[list] = []  # [span id, start, child time]
        self.self_s = Counter()  # layer or function name -> seconds
        self.busy_s = Counter()  # function name or layer -> outermost seconds
        self.calls = Counter()  # function name -> calls
        self.counts = Counter()  # work counts from hooks
        self._depth = Counter()  # function name or layer -> active calls
        self.distinct: dict[str, set] = {}  # per job: name -> call keys
        self._wrappers = self._build_wrappers()

    # -- job boundaries ----------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.distinct = {"sweep.vertex_figure": set(), "sweep.sweep_section": set()}

    def end_job(self) -> None:
        for name, keys in self.distinct.items():
            self.counts[f"{name}.distinct"] += len(keys)
        self.distinct = {}

    # -- wrapping ----------------------------------------------------------

    def _build_wrappers(self) -> dict:
        """original function -> (wrapper, [(module, attribute)])"""
        wrappers: dict = {}
        for mod in self.modules:
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or not fn.__module__.startswith("polysweep.")
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.split(".")[1]
                    name = f"{layer}.{fn.__name__}"
                    make = self._aggregated if layer == AGGREGATED else self._spanned
                    wrappers[fn] = (make(fn, name, layer), [])
                wrappers[fn][1].append((mod, attr))
        return wrappers

    @contextlib.contextmanager
    def installed(self):
        for wrapper, sites in self._wrappers.values():
            for mod, attr in sites:
                setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for fn, (_, sites) in self._wrappers.items():
                for mod, attr in sites:
                    setattr(mod, attr, fn)

    def _aggregated(self, fn, name, layer):
        calls, depth, stack = self.calls, self._depth, self.stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[layer] = 0
                self.self_s[layer] += dt
                self.busy_s[layer] += dt
                if stack:
                    stack[-1][2] += dt

        return functools.wraps(fn)(wrapper)

    def _spanned(self, fn, name, layer):
        hook = HOOKS.get(name)
        calls, depth, stack = self.calls, self._depth, self.stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span_id = self.next_id
            self.next_id += 1
            outer_fn = not depth[name]
            outer_layer = not depth[layer]
            depth[name] += 1
            depth[layer] += 1
            frame = [span_id, perf_counter(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                dur = end - frame[1]
                self.self_s[layer] += dur - frame[2]
                self.self_s[name] += dur - frame[2]
                if outer_fn:
                    self.busy_s[name] += dur
                if outer_layer:
                    self.busy_s[layer] += dur
                if stack:
                    stack[-1][2] += dur
                self.spans.append((span_id, name, self.job, parent, frame[1], end))
                if hook is not None:
                    hook(self, args, result)

        return functools.wraps(fn)(wrapper)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order spans ended; ids number
        the spans in the order they started."""
        keys = ("id", "name", "job", "parent", "start", "end")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# Work counts, taken from the arguments and results of wrapped calls.


def _hull(tr: Tracer, args, lat) -> None:
    vrep = args[0]
    if vrep.dim >= 1:
        tr.counts["polytope.hull.subsets"] += math.comb(len(vrep.vertices), vrep.dim)
    if lat is not None:
        tr.counts["polytope.hull.facets"] += len(lat.by_dim.get(lat.dim - 1, ()))
        tr.counts["polytope.hull.faces"] += len(lat.masks)


def _figure_key(name):
    def hook(tr: Tracer, args, result) -> None:
        lat, s, vi = args[:3]
        tr.distinct[name].add((lat.coords, s, vi))
    return hook


def _chains(tr: Tracer, args, chains) -> None:
    if chains is not None:
        tr.counts["truncpartition.chains"] += len(chains)


def _blocks(tr: Tracer, args, blocks) -> None:
    if blocks is not None:
        tr.counts["truncpartition.blocks"] += len(blocks)


HOOKS = {
    "polytope.hull_lattice": _hull,
    "sweep.vertex_figure": _figure_key("sweep.vertex_figure"),
    "sweep.sweep_section": _figure_key("sweep.sweep_section"),
    "truncpartition.enumerate_chains": _chains,
    "truncpartition.build_partition": _blocks,
}
