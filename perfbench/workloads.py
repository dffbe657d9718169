"""The benchmark's three workloads.

Each workload is a closed loop with one client: operation ``i`` starts when
operation ``i - 1`` has returned.  Its inputs are a pure function of the
workload seed, the round ``r`` and ``i``; the program sees only those
generated inputs.
``run_op(i, r)`` performs operation ``i`` of round ``r``, checks its
outputs with checks the seed fixes (never a statistical band), and returns
``(ok, payload)``, where ``payload`` is the bytes the output digest covers.

A timed run repeats the same operation positions in several rounds and gives
each operation the fastest latency among its repeats: the operations at
positions ``i`` and ``j`` of any round, where ``i % period == j % period``.
Repeats must cost the same work.  Where repeating identical inputs would let a cache that keys
on content skip work a fresh run would do, a round gets its own inputs of the
same shape.

A round is operations 0 .. ``fixed_ops - 1`` in order; a workload may keep
state between the operations of a round.  ``fixed_ops`` is at least 100, so
that ten or more latencies lie beyond the 90th percentile.  The output digest
covers the first round.

Contextqm is imported inside ``__init__``, so a workload built after the
tracer is installed calls the traced entry points.
"""

from __future__ import annotations

import json
import math


class MeasureSeq:
    """Acceptance criterion 4's eight-step plan, one sequence per operation.

    A 3-dim algebra, two contexts, three instruments, a shared observable
    and an attached random vector.  The same three observables repeat in
    every sequence, so this is where a per-observable memo or a measurement
    path without eigensolves would act.
    """

    fixed_ops = period = 500

    def __init__(self, seed: int):
        import numpy as np

        from contextqm.algebra import AlgebraDescriptor, AlgebraElement
        from contextqm.contexts import ContextRegistry, context_from_observable
        from contextqm.measurement import Instrument, measure
        from contextqm.states import ElementaryState, is_stable

        self.np, self.seed = np, seed
        self.measure, self.is_stable, self.state = measure, is_stable, ElementaryState
        registry = ContextRegistry()
        alg = AlgebraDescriptor(3)
        self.gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        gen2 = AlgebraElement(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), alg
        )
        ctx1 = context_from_observable(self.gen1, registry)
        ctx2 = context_from_observable(gen2, registry)
        self.shared = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)
        self.inst1 = Instrument(ctx1, "first")
        self.inst1b = Instrument(ctx1, "first-twin")
        self.inst2 = Instrument(ctx2, "second")

    def run_op(self, i: int, r: int):
        # identical inputs in every round: all sequences share the same three
        # observables, so a repeat warms nothing a new sequence finds cold
        np, measure, shared, gen1 = self.np, self.measure, self.shared, self.gen1
        inst1 = self.inst1
        rng = np.random.default_rng([self.seed, i])
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = self.state(rng=rng, attached_vector=raw / np.linalg.norm(raw))
        v1, phi = measure(phi, inst1, shared, rng=rng)
        v2, phi = measure(phi, inst1, shared, rng=rng)
        stable = self.is_stable(phi, shared)
        v3, phi = measure(phi, self.inst2, shared, rng=rng)
        v4, phi = measure(phi, self.inst1b, shared, rng=rng)
        a1, phi = measure(phi, inst1, gen1, rng=rng)
        b1, phi = measure(phi, inst1, shared, rng=rng)
        a2, phi = measure(phi, inst1, gen1, rng=rng)
        b2, phi = measure(phi, inst1, shared, rng=rng)
        ok = v1 == v2 and stable and v3 == v1 and v4 == v1 and a1 == a2 and b1 == b2
        layers = sorted((cid, layer.index) for cid, layer in phi.layers.items())
        payload = repr((v1, v2, v3, v4, a1, b1, a2, b2, layers)).encode()
        return ok, payload + phi.attached_vector.tobytes()


class ContextSweep:
    """An interpolation sweep cos(a) A1 + sin(a) A2 over 400 angles.

    A1 and A2 are random 6x6 Hermitian matrices.  Every generator is new,
    so each operation registers a fresh context (the registry scan grows
    with the sweep), reads it back, draws one layer on a state that keeps
    every layer, and averages over 2000 samples.  ``measure`` is never
    called, so per-observable caches are bypassed.  Each round is one sweep
    with a fresh registry and state.
    """

    # 400 angles keep a round near one second, so each position gets many
    # repeats spread over a run, while registry scans still take over half
    # the time (three quarters at 1000 angles)
    fixed_ops = period = 400
    samples = 2000

    def __init__(self, seed: int):
        import numpy as np

        from contextqm.algebra import AlgebraDescriptor, AlgebraElement
        from contextqm.contexts import (
            ContextRegistry,
            context_from_observable,
            interpolated_generator,
        )
        from contextqm.ensembles import QuantumState, ensemble_average
        from contextqm.states import ElementaryState

        self.np, self.seed = np, seed
        self.registry_type, self.state = ContextRegistry, ElementaryState
        self.context_from_observable = context_from_observable
        self.interpolated_generator = interpolated_generator
        self.ensemble_average = ensemble_average
        rng = np.random.default_rng([seed, 0])
        alg = AlgebraDescriptor(6)

        def hermitian():
            raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            return AlgebraElement(0.5 * (raw + raw.conj().T), alg)

        self.a1, self.a2 = hermitian(), hermitian()
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        self.psi = QuantumState(raw / np.linalg.norm(raw), alg)

    def _start_sweep(self, r: int):
        self.rng = self.np.random.default_rng([self.seed, 1, r])
        self.angles = self.rng.uniform(0.0, math.pi, size=self.fixed_ops)
        self.registry = self.registry_type()
        self.phi = self.state(rng=self.rng, attached_vector=self.psi.vector)

    def run_op(self, i: int, r: int):
        # each round sweeps its own angles: the cost of position i is set by
        # the i contexts already registered, not by the angle
        if i == 0:
            self._start_sweep(r)
        g = self.interpolated_generator(self.a1, self.a2, self.angles[i])
        ctx = self.context_from_observable(g, self.registry)
        again = self.context_from_observable(g, self.registry)
        layer = self.phi.ensure_layer(ctx)
        report = self.ensemble_average(self.psi, g, ctx, self.samples, self.rng)
        # the layer's value is an eigenvalue of g: its basis vector witnesses it
        value = layer.value(g)
        vector = ctx.vector(layer.index)
        residual = float(self.np.linalg.norm(g.matrix @ vector - value * vector))
        scale = max(1.0, float(self.np.abs(g.matrix).max()))
        ok = (
            again is ctx
            and residual <= 1e-9 * scale
            and sum(report.histogram.values()) == self.samples
        )
        return ok, f"{ctx.id},{layer.index},{value!r},".encode() + report.to_json().encode()


class CliSuite:
    """The CLI's seven user-facing invocations, one command per operation.

    Driven in-process through ``contextqm.cli.main``: a fresh interpreter
    costs more than most of these commands.  Each invocation gets its own
    ``--seed``; stdout is captured and stderr discarded.  This is where the
    oscillator (``wick_green``) and GNS layers do their work.
    """

    commands = (
        ("spin-demo",),
        ("ks-search",),
        ("ks-search", "--no-pair-rule"),
        ("green", "--n", "12"),
        ("green", "--n", "10"),
        ("gns-check",),
        ("gns-check", "--n", "6"),
    )
    # every invocation of a command does the same work whatever its seed
    period = len(commands)
    fixed_ops = 15 * period
    green_threshold = 1e-8

    def __init__(self, seed: int):
        import numpy as np
        from click.testing import CliRunner

        from contextqm.cli import main
        from contextqm.measurement import peres33_rays

        self.seed, self.main, self.runner = seed, main, CliRunner()
        # complete orthogonal triads of the bundled rays, to check a SAT answer
        rays = peres33_rays()
        orthogonal = np.abs(rays @ rays.T) <= 1e-9
        m = len(rays)
        self.triads = [
            (a, b, c)
            for a in range(m)
            for b in range(a + 1, m)
            for c in range(b + 1, m)
            if orthogonal[a, b] and orthogonal[a, c] and orthogonal[b, c]
        ]
        self.band_violations = 0

    def run_op(self, i: int, r: int):
        seed = (self.seed * 100 + r) * 1_000_000 + i
        args = list(self.commands[i % self.period]) + ["--seed", str(seed)]
        result = self.runner.invoke(self.main, args)
        return self._check(args, result), result.stdout.encode()

    def _check(self, args, result) -> bool:
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return False
        try:
            doc = json.loads(result.stdout)
        except ValueError:
            return False
        if doc.get("command") != args[0]:
            return False
        res = doc["results"]
        if args[0] == "spin-demo":
            # the 4-standard-error band is statistical and may fail on a fresh
            # seed; check what the seed fixes: exact probabilities, and that the
            # verdict and exit code follow from the report
            misses = sum(not angle["within_band"] for angle in res["angles"])
            self.band_violations += misses
            exact = all(
                abs(a["exact_probability_plus"] - math.cos(a["theta"] / 2) ** 2) <= 1e-12
                for a in res["angles"]
            )
            return exact and res["violations"] == misses and result.exit_code == (1 if misses else 0)
        if result.exit_code != 0:
            return False
        if args[0] == "ks-search":
            if "--no-pair-rule" not in args:
                return not res["satisfiable"] and res["exhausted"] and res["nodes"] == 28
            values = {int(k): v for k, v in (res["assignment"] or {}).items()}
            return (
                res["satisfiable"]
                and len(values) == res["ray_count"]
                and all(sum(values[r] == 0 for r in t) == 1 for t in self.triads)
            )
        if args[0] == "green":
            return res["abs_difference"] <= self.green_threshold
        return res["ok"] is True


WORKLOADS = {
    "measure_seq": MeasureSeq,
    "context_sweep": ContextSweep,
    "cli_suite": CliSuite,
}
