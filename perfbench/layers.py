"""Per-layer tracing of fibspec from outside the package.

Each module of ``src/fibspec`` is a layer.  ``Tracer.install`` wraps the
module's public functions (plus a few named methods) and patches every
wrapper into each ``fibspec`` module that imported the name, so calls
between modules pass through it.  A wrapper records a span on a stack; a
layer's self time is the duration of its spans minus the time of the
child spans they cover.  Counts are derived from the wrapped call's
arguments and result, so they repeat exactly for a deterministic
program.  ``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "spectrum", "intervals", "sumset", "dimension",
          "hamiltonian", "ifs", "periodic", "tracemap")

# Methods wrapped besides the modules' public functions.
METHODS = {
    "intervals": ("IntervalSet", ("from_arrays", "union", "dilate",
                                  "contains_points", "covers")),
    "hamiltonian": ("TridiagonalMatrix", ("count_below",)),
}

COUNTS = ("spectrum.hierarchy_calls", "spectrum.levels_built",
          "spectrum.bands_out", "intervals.endpoints_in",
          "sumset.pairs_formed", "sumset.components_out",
          "dimension.components_counted", "hamiltonian.sturm_calls",
          "hamiltonian.sturm_site_updates")


def _count_hierarchy(c, args, kwargs, levels):
    c["spectrum.hierarchy_calls"] += 1
    c["spectrum.levels_built"] += len(levels)
    c["spectrum.bands_out"] += sum(len(s) for s in levels)


def _count_from_arrays(c, args, kwargs, result):
    # args = (cls, lo, hi); union and dilate normalize through here.
    c["intervals.endpoints_in"] += len(args[1])


def _count_minkowski(c, args, kwargs, result):
    c["sumset.pairs_formed"] += len(args[0]) * len(args[1])
    c["sumset.components_out"] += len(result)


def _count_box(c, args, kwargs, result):
    c["dimension.components_counted"] += len(args[0])


def _count_sturm(c, args, kwargs, result):
    c["hamiltonian.sturm_calls"] += 1
    c["hamiltonian.sturm_site_updates"] += args[0].n * int(np.size(args[1]))


COUNTERS = {
    ("spectrum", "band_hierarchy"): _count_hierarchy,
    ("intervals", "from_arrays"): _count_from_arrays,
    ("sumset", "minkowski_sum"): _count_minkowski,
    ("dimension", "box_count"): _count_box,
    ("hamiltonian", "count_below"): _count_sturm,
}


class Tracer:
    """Span and count recorder; one instance per traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.to_json_s = 0.0
        self.csv_s = 0.0
        self.csv_discarded_s = 0.0
        self.csv_requested = False
        self._stack: list[list[float]] = []
        self._in_json = False
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _span(self, layer: str, name: str, fn, counter=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += dur
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _to_json(self, fn):
        """``to_json`` recurses through its module global; only the
        outermost call is a span."""
        span = self._span("cli", "to_json", fn)

        @functools.wraps(fn)
        def wrapper(obj):
            if self._in_json:
                return fn(obj)
            self._in_json = True
            t0 = time.perf_counter()
            try:
                return span(obj)
            finally:
                self.to_json_s += time.perf_counter() - t0
                self._in_json = False

        return wrapper

    def _csv_table(self, fn):
        """Time spent rendering CSV, split by whether it was requested."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.csv_s += dur
                if not self.csv_requested:
                    self.csv_discarded_s += dur

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fibspec"
                                   or mod_name.startswith("fibspec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions and the METHODS above."""
        for layer in LAYERS:
            mod = sys.modules[f"fibspec.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if (layer, name) == ("cli", "to_json"):
                    wrapped = self._to_json(obj)
                else:
                    wrapped = self._span(layer, name, obj,
                                         COUNTERS.get((layer, name)))
                self._patch_everywhere(obj, wrapped)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for name in methods:
                    raw = cls.__dict__.get(name)
                    if raw is None:
                        continue
                    counter = COUNTERS.get((layer, name))
                    if isinstance(raw, classmethod):
                        new = classmethod(self._span(layer, name,
                                                     raw.__func__, counter))
                    else:
                        new = self._span(layer, name, raw, counter)
                    self._undo.append((cls, name, raw))
                    setattr(cls, name, new)
        cli = sys.modules["fibspec.cli"]
        csv_table = getattr(cli, "_csv_table", None)
        if csv_table is not None:
            self._undo.append((cli, "_csv_table", csv_table))
            cli._csv_table = self._csv_table(csv_table)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything recorded."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["cli.to_json_s"] = self.to_json_s
        out["cli.csv_s"] = self.csv_s
        out["cli.csv_discarded_s"] = self.csv_discarded_s
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out
