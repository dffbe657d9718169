"""Layer-by-layer timings of the context sweep's and the GNS check's primitives.

Tier-1 runs each case once (``--benchmark-disable`` in ``addopts``) and
checks its result; ``python -m pytest tests/test_layer_bench.py
--benchmark-enable`` times them.
"""

import numpy as np
import pytest

from contextqm.algebra import AlgebraDescriptor
from contextqm.contexts import (
    ContextRegistry,
    canonical_basis,
    context_from_observable,
    interpolated_generator,
)
from contextqm.ensembles import QuantumState, ensemble_average
from contextqm.gns import StateFunctional, build_gns, vacuum_expectation
from conftest import random_element, random_hermitian, random_unit_vector


def _sweep(seed=7, n=6):
    rng = np.random.default_rng(seed)
    return rng, random_hermitian(n, rng), random_hermitian(n, rng)


def test_context_from_observable_fresh(benchmark):
    rng, a1, a2 = _sweep()

    def fresh():
        g = interpolated_generator(a1, a2, rng.uniform(0.0, np.pi))
        return (g, ContextRegistry()), {}

    ctx = benchmark.pedantic(context_from_observable, setup=fresh, rounds=200)
    assert ctx.id == "ctx-0"


def test_context_from_observable_re_registered(benchmark):
    _, a1, a2 = _sweep()
    registry = ContextRegistry()
    g = interpolated_generator(a1, a2, 0.4)
    ctx = context_from_observable(g, registry)
    assert benchmark(context_from_observable, g, registry) is ctx


def test_register_miss_among_400_contexts(benchmark):
    rng, a1, a2 = _sweep()
    registry = ContextRegistry()
    for alpha in rng.uniform(0.0, np.pi, 400):
        context_from_observable(interpolated_generator(a1, a2, alpha), registry)
    assert len(registry) == 400

    def unseen():
        g = interpolated_generator(a1, a2, rng.uniform(0.0, np.pi))
        return (canonical_basis(np.linalg.eigh(g.matrix)[1], [g]), g.algebra), {}

    ctx = benchmark.pedantic(registry.register, setup=unseen, rounds=200)
    assert ctx.id == f"ctx-{len(registry) - 1}"  # the last call created it


def test_ensemble_average_2000_samples(benchmark):
    rng, a1, a2 = _sweep()
    g = interpolated_generator(a1, a2, 0.4)
    ctx = context_from_observable(g, ContextRegistry())
    psi = QuantumState(random_unit_vector(6, rng), g.algebra)
    report = benchmark(ensemble_average, psi, g, ctx, 2000, rng)
    assert report.sample_count == 2000
    assert sum(report.histogram.values()) == 2000
    assert report.exact_mean == float(np.real(psi.expectation(g)))


# n = 3 and n = 6 are the two sizes the benchmark's cli_suite checks
@pytest.mark.parametrize("n", [3, 6])
def test_pure_functional_and_build_gns(benchmark, n):
    rng = np.random.default_rng(7)
    algebra = AlgebraDescriptor(n)
    vector = random_unit_vector(n, rng)

    def pure_space():
        return build_gns(StateFunctional.from_vector(vector, algebra))

    space = benchmark(pure_space)
    assert space.rank == n
    element = random_element(n, rng)
    expected = np.vdot(vector, element.matrix @ vector)
    assert abs(vacuum_expectation(space, element) - expected) <= 1e-12


@pytest.mark.parametrize("n", [3, 6])
def test_represent_on_tracial_space(benchmark, n):
    rng = np.random.default_rng(7)
    space = build_gns(StateFunctional.tracial(AlgebraDescriptor(n)))
    element = random_element(n, rng)
    operator = benchmark(space.represent, element)
    assert space.rank == n * n
    assert np.array_equal(operator, np.kron(element.matrix, np.eye(n)))
