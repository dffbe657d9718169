"""Spans and counters recorded around contextqm's public entry points.

The program itself is not modified.  ``Tracer.install`` rebinds each
traced function in every ``contextqm`` module namespace that holds it, each
traced method on its class, each CLI command callback, and
``numpy.linalg.eigh`` / ``eigvalsh`` (counted, not spanned);
``Tracer.uninstall`` puts the originals back.  A workload must be built
after ``install`` so that it looks up the traced entry points.

Functions called more than about 1e5 times in a traced pass are not
spanned, because the wrapper's own cost would distort the profile; the
oscillator's ``two_point`` kernel is the case in point, so the pairing-term
count is derived from ``wick_green``'s input instead.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

SPANNED_FUNCTIONS = (
    # (span name, module, attribute)
    ("algebra.spectral_decomposition", "contextqm.algebra", "spectral_decomposition"),
    ("algebra.element_fingerprint", "contextqm.algebra", "element_fingerprint"),
    ("contexts.contains", "contextqm.contexts", "contains"),
    ("contexts.canonical_basis", "contextqm.contexts", "canonical_basis"),
    ("measurement.measure", "contextqm.measurement", "measure"),
    ("measurement.ks_search", "contextqm.measurement", "ks_noncontextual_search"),
    ("ensembles.ensemble_average", "contextqm.ensembles", "ensemble_average"),
    ("gns.build_gns", "contextqm.gns", "build_gns"),
    ("gns.compression_identity_check", "contextqm.gns", "compression_identity_check"),
    ("oscillator.wick_green", "contextqm.oscillator", "wick_green"),
    ("oscillator.fock_oracle_green", "contextqm.oscillator", "fock_oracle_green"),
    ("reports.render", "contextqm.reports", "render_json"),
    ("reports.render", "contextqm.reports", "render_csv"),
)
SPANNED_METHODS = (
    ("contexts.register", "contextqm.contexts", "ContextRegistry", "register"),
    ("states.ensure_layer", "contextqm.states", "ElementaryState", "ensure_layer"),
    ("gns.represent", "contextqm.gns", "GnsSpace", "represent"),
)
CLI_COMMANDS = ("spin-demo", "ks-search", "green", "gns-check")

# per-layer metrics in report order: (name, unit)
LAYER_METRICS = (
    ("algebra.spectral_decomposition.calls", "count"),
    ("algebra.spectral_decomposition.self_s", "s"),
    ("algebra.element_fingerprint.calls", "count"),
    ("algebra.element_fingerprint.self_s", "s"),
    ("algebra.eigensolves", "count"),
    ("contexts.contains.calls", "count"),
    ("contexts.contains.self_s", "s"),
    ("contexts.register.calls", "count"),
    ("contexts.register.self_s", "s"),
    ("contexts.register.hit_ratio", "ratio"),
    ("contexts.registered", "count"),
    ("contexts.canonical_basis.self_s", "s"),
    ("states.ensure_layer.calls", "count"),
    ("states.ensure_layer.self_s", "s"),
    ("states.ensure_layer.draws", "count"),
    ("measurement.measure.calls", "count"),
    ("measurement.measure.self_s", "s"),
    ("measurement.measure.distinct_observable_ratio", "ratio"),
    ("measurement.ks_search.self_s", "s"),
    ("measurement.ks_search.nodes", "count"),
    ("ensembles.ensemble_average.calls", "count"),
    ("ensembles.ensemble_average.self_s", "s"),
    ("gns.build_gns.calls", "count"),
    ("gns.build_gns.self_s", "s"),
    ("gns.represent.calls", "count"),
    ("gns.represent.self_s", "s"),
    ("gns.compression_identity_check.self_s", "s"),
    ("oscillator.wick_green.calls", "count"),
    ("oscillator.wick_green.self_s", "s"),
    ("oscillator.pairing_terms", "count"),
    ("oscillator.fock_oracle_green.self_s", "s"),
    ("reports.render.self_s", "s"),
    ("reports.bytes", "bytes"),
) + tuple((f"cli.{command}.self_s", "s") for command in CLI_COMMANDS)


class Tracer:
    """In-memory recorder of nested spans and work counters.

    A span is ``(name id, start, end, parent span index or -1)`` with
    ``time.perf_counter`` seconds.  Self time (duration minus the time
    covered by child spans) is accumulated per name as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.observables: set[bytes] = set()
        self._replaced: list[tuple] = []

    def wrap(self, name, fn, before=None, after=None):
        """Span ``fn`` under ``name``.

        ``before(args, kwargs)`` runs just ahead of the call and its result
        is handed to ``after(token, args, kwargs, result)`` once the call
        returns; both run outside the span.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks deriving work counters from inputs and results ---------------

    def _registry_size(self, args, kwargs):
        return len(args[0])

    def _registered(self, size_before, args, kwargs, result):
        key = "contexts.registered" if len(args[0]) > size_before else "contexts.register.hits"
        self.counts[key] += 1

    def _layer_present(self, args, kwargs):
        return args[1].id in args[0].layers

    def _layer_drawn(self, present, args, kwargs, result):
        if not present:
            self.counts["states.ensure_layer.draws"] += 1

    def _observable(self, args, kwargs):
        element = args[2] if len(args) > 2 else kwargs["element"]
        self.observables.add(element.matrix.tobytes())

    def _pairings(self, args, kwargs):
        n = len(args[0] if args else kwargs["times"])
        if n >= 2 and n % 2 == 0:
            self.counts["oscillator.pairing_terms"] += math.prod(range(n - 1, 0, -2))

    def _nodes(self, token, args, kwargs, result):
        self.counts["measurement.ks_search.nodes"] += result.nodes

    def _rendered(self, token, args, kwargs, result):
        self.counts["reports.bytes"] += len(result.encode("utf-8"))

    # -- install and report ---------------------------------------------------

    def _rebind(self, owner, attribute, value):
        self._replaced.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Rebind every traced entry point; ``uninstall`` restores them."""
        import sys

        import numpy as np

        import contextqm.cli  # imports every traced module

        hooks = {
            "contexts.register": (self._registry_size, self._registered),
            "states.ensure_layer": (self._layer_present, self._layer_drawn),
            "measurement.measure": (self._observable, None),
            "oscillator.wick_green": (self._pairings, None),
            "measurement.ks_search": (None, self._nodes),
            "reports.render": (None, self._rendered),
        }
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "contextqm"]
        for name, module_name, attribute in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            traced = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, traced)
        for name, module_name, class_name, attribute in SPANNED_METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            traced = self.wrap(name, getattr(cls, attribute), *hooks.get(name, (None, None)))
            self._rebind(cls, attribute, traced)
        for command in CLI_COMMANDS:
            cmd = contextqm.cli.main.commands[command]
            self._rebind(cmd, "callback", self.wrap(f"cli.{command}", cmd.callback))
        for solver in ("eigh", "eigvalsh"):
            counted = self.count_calls("algebra.eigensolves", getattr(np.linalg, solver))
            self._rebind(np.linalg, solver, counted)

    def uninstall(self):
        while self._replaced:
            owner, attribute, original = self._replaced.pop()
            setattr(owner, attribute, original)

    def layer_metrics(self) -> dict:
        """Every metric of ``LAYER_METRICS`` as a number."""
        values = {}
        for name, calls in self.calls.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self.self_s[name]
        values.update(self.counts)
        register_calls = self.calls["contexts.register"]
        values["contexts.register.hit_ratio"] = (
            self.counts["contexts.register.hits"] / register_calls if register_calls else 0.0
        )
        measure_calls = self.calls["measurement.measure"]
        values["measurement.measure.distinct_observable_ratio"] = (
            len(self.observables) / measure_calls if measure_calls else 0.0
        )
        return {name: values.get(name, 0) for name, _ in LAYER_METRICS}

    def dump(self, path):
        """Write every recorded span (times in microseconds) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_us", "end_us", "parent"],
            "names": self.names,
            "spans": [
                [n, round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), p]
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
