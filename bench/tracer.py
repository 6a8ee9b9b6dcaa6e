"""Span tracing of pfcircuit's layers from outside the package.

Each public function of a layer module is replaced by a wrapper that records
a span (name, start, end, parent span, op id).  The wrapper is installed in
the defining module and under every other name that holds the same function
object: ``from x import f`` bindings in other modules and module-level dicts
such as the CLI's command table.  ``install``/``uninstall`` swap the objects,
so untraced ops run the original functions.

Per-element helpers are not wrapped: with about a million calls per simulate
op the trace would measure the wrapper.  Their time lands in the self time of
the caller.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("params", "liouvillian", "pfalgebra", "basis", "linalg",
          "dynamics", "observables", "heisenberg", "cli")
#: private functions traced under a name of their own
PRIVATE_SPANS = {"cli._plot_data_text": "cli.plot_data", "cli._write": "cli.write"}
#: per-element helpers left unwrapped
HELPERS = {"dynamics.format_float", "linalg.as_square", "linalg.as_vector"}


def _rk4_steps(fn, args, kwargs) -> int:
    """RK4 steps evolve_rk4 will take, from the grid and substeps passed in."""
    from pfcircuit.dynamics import RK4_DEFAULT_STEP

    bound = inspect.signature(fn).bind(*args, **kwargs)
    tau = [float(t) for t in bound.arguments["tau_grid"]]
    substeps = bound.arguments.get("substeps")
    spans = [b - a for a, b in zip(tau, tau[1:])]
    if substeps is not None:
        return substeps * len(spans)
    return sum(max(1, round(span / RK4_DEFAULT_STEP)) for span in spans)


def _bytes_written(fn, args, kwargs) -> int:
    # the CLI writes ASCII text, so characters equal bytes
    return len(inspect.signature(fn).bind(*args, **kwargs).arguments["text"])


#: counters computed from a call's arguments before its span starts
COUNTERS = {"dynamics.evolve_rk4": ("dynamics.rk4_steps", _rk4_steps),
            "cli.write": ("cli.bytes_written", _bytes_written)}


class Tracer:
    """Swaps span-recording wrappers in and out of the pfcircuit modules."""

    def __init__(self) -> None:
        modules = [importlib.import_module(f"pfcircuit.{name}") for name in LAYERS]
        names = {}  # original function -> span name
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                qual = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and qual not in HELPERS
                        and (not attr.startswith("_") or qual in PRIVATE_SPANS)):
                    names[obj] = PRIVATE_SPANS.get(qual, qual)
        self._wrappers = {fn: self._wrap(fn, span) for fn, span in names.items()}
        self._sites = []  # (namespace, key, original)
        for module in [importlib.import_module("pfcircuit"), *modules]:
            for namespace in [vars(module)] + [v for v in vars(module).values()
                                               if isinstance(v, dict)]:
                for key, obj in namespace.items():
                    if inspect.isfunction(obj) and obj in self._wrappers:
                        self._sites.append((namespace, key, obj))
        self._stack: list[list] = []
        self.spans: list[tuple] | None = None
        self._op = 0

    def install(self) -> None:
        for namespace, key, fn in self._sites:
            namespace[key] = self._wrappers[fn]

    def uninstall(self) -> None:
        for namespace, key, fn in self._sites:
            namespace[key] = fn

    def begin_op(self, op: int, keep_spans: bool) -> None:
        """Start a fresh root frame; ``keep_spans`` also keeps every raw span."""
        self._op = op
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.spans = [] if keep_spans else None
        self._stack = [[0.0, -1]]  # [child time, span id] of the root

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counters[counter[0]] += counter[1](fn, args, kwargs)
            spans = self.spans
            sid = len(spans) if spans is not None else -1
            if spans is not None:
                spans.append(None)
            frame = [0.0, sid]
            parent = self._stack[-1]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                parent[0] += duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
                if spans is not None:
                    spans[sid] = (name, start, end, parent[1], self._op)

        return wrapper
