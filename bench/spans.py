"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a module holds the original, since modules
look names up in their own namespace: ``gram`` binds ``kernel_values``
and ``marginal_matrix`` through ``from .kernels import``, ``certify``
calls ``meets_every_progression`` and ``certify_circle`` by their global
names, and ``cli`` reaches ``eval_kernel`` and ``sample_config`` directly
(``cert_mod.*`` and ``gram_mod.*`` go through the patched modules).

A span has a name, a start, an end, a parent span and an operation id.
Self time (duration minus the time of direct children) and the counters
are aggregated as spans close, so they are exact however many spans run;
the span records themselves are kept up to ``MAX_SPANS`` and written out
by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "spdkernels"
LAYERS = ("cli", "certify", "supportsets", "orthopoly", "kernels", "geometry", "gram")
MAX_SPANS = 200_000
TABLES = ("orthopoly.circle_table", "orthopoly.gegenbauer_table", "orthopoly.jacobi_table")
WITNESSES = ("gram.witness_parity_sphere", "gram.witness_progression_circle", "gram.witness_product")


class Tracer:
    """Spans and per-function aggregates of the layer calls made while installed."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # open spans: [span index or -1 when not kept, name, child time]
        self._stack: list[list] = []
        self._witness_depth = 0
        self._restore: list[tuple[types.ModuleType, str, object]] = []
        # id(original) -> (original, wrapper), built on the first install
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in every module that holds a wrapped function."""
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        if not self._wrappers:
            for layer, mod in modules.items():
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        is_witness = name in WITNESSES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
            frame = [index, name, 0.0]
            stack.append(frame)
            if is_witness:
                self._witness_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_witness:
                    self._witness_depth -= 1
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    self.spans[index] = (name_id, start, end, parent[0] if parent else -1, self.op_id)
            self._count(name, parent, args, result)
            return result

        return traced

    def _count(self, name: str, parent, args, result) -> None:
        layer = name.split(".", 1)[0]
        if layer == "certify" and hasattr(result, "trace"):
            if parent is None or not parent[1].startswith("certify."):
                self.counts["certify.trace_entries"] += len(result.trace)
        elif name in TABLES:
            self.counts["orthopoly.table_entries"] += result.size
        elif name == "kernels.kernel_values":
            spec = args[0]
            pairs = np.size(args[1])
            if spec.space.is_product:
                self.counts["kernels.contraction_flops"] += 2 * pairs * (spec.kmax + 1) * (spec.lmax + 1)
            else:
                self.counts["kernels.contraction_flops"] += 2 * pairs * (spec.axis_cap + 1)
        elif name == "gram.gram_matrix":
            n = len(args[1])
            self.counts["gram.gram_entries"] += n * (n + 1) // 2
            if self._witness_depth:
                self.counts["gram.witness_gram_calls"] += 1
        elif name in WITNESSES and self._witness_depth == 0:
            self.counts["gram.witness_reports"] += 1
            self.counts["gram.witness_searched"] += result.kind == "searched"

    # -- results ----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({
                "names": self.names,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "dropped": self.dropped,
            }, f)
