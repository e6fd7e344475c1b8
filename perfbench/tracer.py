"""Per-layer tracing by patching the program's module attributes from outside.

The layers are the modules of `pairrules`.  `Tracer.install` replaces every
public function of each layer, plus `reciprocity._polish`, with a wrapper,
in the defining module and in every module that bound the same function
with `from ... import`.  Hot leaf functions only count their calls; all
others record a span (id, parent id, name, start, end).  Spans stay in
memory until `write` is called.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import math
import time

LAYERS = ("pairs", "associativity", "regrading", "born", "reciprocity", "sequences", "cli")

# Private functions worth a span of their own.
EXTRA = ("reciprocity._polish",)

# Called up to millions of times per operation: counted, never timed, so the
# wrapper costs one counter increment.  Their time stays in the caller's span.
COUNT_ONLY = frozenset({
    "pairs.pair_add",
    "pairs.pair_sub",
    "pairs.scalar_mul",
    "pairs.bilinear_mul",
    "pairs.complex_mul",
    "pairs.commutator",
    "born.h_eval",
    "born.multiplicativity_residual",
    "born.solution_family_for",
    "associativity.assoc_residual",
    "associativity.twelve_equations",
    "regrading.apply_to_pair",
    "regrading.transform_gamma",
    "reciprocity.rev_pair",
    "reciprocity.antihom_residual",
    "reciprocity.repeated_measurement_pair",
})

_OPERATOR_NAMES = {
    (1.0, 0.0, 0.0, 1.0): "identity",
    (1.0, 0.0, 0.0, -1.0): "conjugation",
    (0.0, 1.0, 1.0, 0.0): "swap",
    (1.0, 0.0, 0.0, 0.0): "projection",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: collections.Counter = collections.Counter()
        self.totals: collections.Counter = collections.Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "reciprocity.implication_residual": self._on_residual,
            "reciprocity.eliminate": self._on_eliminate,
            "regrading.reduce_to_standard": self._on_reduce,
            "sequences.amplitude": self._on_amplitude,
            "sequences.sequences_from_json": self._on_sequences,
        }

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        package = importlib.import_module("pairrules")
        modules = [package] + [importlib.import_module(f"pairrules.{m}") for m in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") or name in EXTRA
                if not (public and inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._patched.append((target, key, fn))
                            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._patched):
            setattr(target, key, fn)
        self._patched.clear()

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        hook = self._hooks.get(name)
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else (-1, "")
            stack.append((sid, name))
            counts[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent[0], name, start, end))
            if hook is not None:
                hook(parent[1], args, result, end - start)
            return result

        return traced

    # ---------------------------------------------------------- hooks

    def _on_residual(self, parent: str, args, result, seconds: float) -> None:
        if parent == "reciprocity.eliminate":
            self.totals["grid_points"] += 1
            if result is not None and result < 1e-6:
                self.totals["grid_hits"] += 1
        elif parent == "reciprocity._polish":
            self.totals["polish_steps"] += 1

    def _on_eliminate(self, parent: str, args, result, seconds: float) -> None:
        form, op = args[0], args[1]
        cell = f"{form.value}-{_OPERATOR_NAMES.get(op.as_tuple(), 'custom')}"
        self.totals[f"eliminate_s.{cell}"] += seconds

    def _on_reduce(self, parent: str, args, result, seconds: float) -> None:
        if type(result).__name__ == "Inadmissible":
            self.totals["inadmissible"] += 1

    def _on_amplitude(self, parent: str, args, result, seconds: float) -> None:
        self.totals["paths"] += math.prod(len(o.labels) for o in args[0].outcomes)
        if not any(name == "sequences.normalization_check" for _, name in self._stack):
            self.totals["sequence_amplitudes"] += 1

    def _on_sequences(self, parent: str, args, result, seconds: float) -> None:
        self.totals["sequences"] += len(result)

    # ---------------------------------------------------------- results

    def busy(self, name: str) -> float:
        """Total time inside spans of `name`."""
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the time its child spans cover."""
        child = collections.Counter()
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out: collections.Counter = collections.Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                        for s in sorted(self.spans)
                    ],
                    "counts": dict(self.counts),
                    "totals": dict(self.totals),
                },
                fh,
            )
