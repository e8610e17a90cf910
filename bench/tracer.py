"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
every namespace that binds it: its own module, the modules that import it
(so intra-package calls are traced too), the ``bosonctx`` package namespace
and, for methods, the class.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

A wrapper records a span (function, start, end, parent span) in memory.  At
the end of each op ``finish_op`` turns that op's spans into calls and self
time (span duration minus the part its child spans cover) and keeps the
spans of the first round for ``write_spans``, which writes them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import tracemalloc
from time import perf_counter

TARGETS = {
    "fock": ("fock_basis", "pure_state"),
    "optics": ("permanent", "scattering_amplitude", "apply_interferometer",
               "pair_outcome_distribution", "single_outcome_distribution"),
    "experiment": ("run_context", "full_table", "parse_table", "OutcomeTable.to_json",
                   "OutcomeTable.to_csv", "OutcomeTable.validate", "check_no_disturbance",
                   "check_indistinguishability"),
    "contextuality": ("sweep_eta", "inequality_sum", "event_probability", "derive_exclusivity",
                      "independence_number", "fractional_packing_max", "noncontextual_max"),
    "cli": ("build_parser", "main"),
}
LAYERS = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)

# The JSON-lines file keeps the spans of the first round of ops, but no more
# ops than fit in this many spans (one eta_sweep op alone makes about 36,000).
SPAN_FILE_LIMIT = 50_000


class Tracer:
    def __init__(self, kept_ops: int) -> None:
        self.kept_ops = kept_ops
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.gray_steps = 0
        self.parse_bytes = 0
        self.packing_peak_bytes = 0
        self.ops = 0
        self.kept: list[dict] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"bosonctx.{module}")
            for name in names:
                layer = f"{module}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                    self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr]))
                else:
                    fn = getattr(mod, name)
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bosonctx" and not mod_name.startswith("bosonctx."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, layer: str, fn):
        spans, stack = self._spans, self._stack
        inner = self._measured(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        return wrapper

    def _measured(self, layer: str, fn):
        """The extra counters of three layers, taken inside their span."""
        if layer == "optics.permanent":
            def permanent(matrix, *args, **kwargs):
                self.gray_steps += (1 << len(matrix)) - 1  # computed from the size
                return fn(matrix, *args, **kwargs)
            return permanent
        if layer == "experiment.parse_table":
            def parse_table(text, *args, **kwargs):
                self.parse_bytes += len(text.encode())
                return fn(text, *args, **kwargs)
            return parse_table
        if layer == "contextuality.fractional_packing_max":
            def fractional_packing_max(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.packing_peak_bytes = max(self.packing_peak_bytes, peak)
            return fractional_packing_max
        return fn

    # -- per-op accounting ------------------------------------------------

    def finish_op(self) -> None:
        """Fold the spans of the op that just ended into calls and self time."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (layer, start, end, parent), child in zip(spans, covered):
            self.calls[layer] += 1
            self.self_s[layer] += end - start - child
        if self.ops < self.kept_ops and (
                not self.kept or len(self.kept) + len(spans) <= SPAN_FILE_LIMIT):
            self.kept.extend({"op": self.ops, "id": i, "parent": parent, "name": layer,
                              "start": start, "end": end}
                             for i, (layer, start, end, parent) in enumerate(spans))
        spans.clear()
        self.ops += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.kept:
                handle.write(json.dumps(span) + "\n")
