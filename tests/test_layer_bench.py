"""Layer-by-layer timings of the primitives the end-to-end paths are built from.

Tier-1 runs each case once (``--benchmark-disable`` in ``addopts``) and
checks its result; ``python -m pytest tests/test_layer_bench.py
--benchmark-enable`` times them.
"""

import json

import numpy as np
import pytest

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, spectrum
from contextqm.contexts import (
    ContextRegistry,
    canonical_basis,
    context_from_observable,
    interpolated_generator,
)
from contextqm.ensembles import QuantumState, ensemble_average
from contextqm.gns import (
    StateFunctional,
    build_gns,
    pure_state_trials,
    vacuum_expectation,
    verify_gns,
)
from contextqm.measurement import Instrument, ks_noncontextual_search, measure, peres33_rays
from contextqm.oscillator import (
    TimeGrid,
    fock_oracle_green,
    functional_derivative_green,
    wick_green,
)
from contextqm.reports import SCHEMA_VERSION, render_json
from contextqm.states import ElementaryState, count_draws
from conftest import random_element, random_hermitian, random_unit_vector
from test_gns import _per_sample_verify


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


def test_spectrum_of_a_fresh_interpolated_generator(benchmark):
    # context_sweep's spectrum: six simple eigenvalues of a new element
    rng, a1, a2 = _sweep()

    def fresh():
        return (interpolated_generator(a1, a2, rng.uniform(0.0, np.pi)),), {}

    points = benchmark.pedantic(spectrum, setup=fresh, rounds=200)
    assert len(points) == 6 and points == sorted(points)


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


def test_pure_state_trials_batch(benchmark):
    # gns-check's default: 100 pure-state trials at n = 3, one stacked batch
    algebra = AlgebraDescriptor(3)

    def fresh():
        return (algebra, 100, np.random.default_rng(7)), {}

    expectation, compression, rank_ok = benchmark.pedantic(
        pure_state_trials, setup=fresh, rounds=50
    )
    assert rank_ok is True
    assert expectation <= 1e-10 and compression <= 1e-10


@pytest.mark.parametrize("n", [3, 6])
def test_verify_gns_on_tracial_space(benchmark, n):
    # gns-check's tracial summary: 20 samples, one stacked batch
    space = build_gns(StateFunctional.tracial(AlgebraDescriptor(n)))

    def fresh():
        return (space, 20, np.random.default_rng(7)), {}

    report = benchmark.pedantic(verify_gns, setup=fresh, rounds=50)
    assert report == _per_sample_verify(space, 20, np.random.default_rng(7))


def test_count_draws_100k_samples(benchmark):
    # spin-demo's draw at one angle
    probs = np.array([np.cos(np.pi / 12) ** 2, np.sin(np.pi / 12) ** 2])

    def fresh():
        return (probs, np.random.default_rng(7), 100_000), {}

    counts = benchmark.pedantic(count_draws, setup=fresh, rounds=50)
    oracle = np.random.default_rng(7).choice(2, size=100_000, p=probs)
    assert counts.tolist() == np.bincount(oracle, minlength=2).tolist()


def test_count_draws_2000_samples(benchmark):
    # ensemble_average's draw in a context_sweep op: 2000 draws of a 6-dim context
    rng = np.random.default_rng(7)
    probs = np.abs(random_unit_vector(6, rng)) ** 2

    def fresh():
        return (probs, np.random.default_rng(7), 2000), {}

    counts = benchmark.pedantic(count_draws, setup=fresh, rounds=200)
    oracle = np.random.default_rng(7).choice(6, size=2000, p=probs)
    assert counts.tolist() == np.bincount(oracle, minlength=6).tolist()


@pytest.mark.parametrize("n", [3, 6])
def test_represent_on_tracial_space(benchmark, n):
    rng = np.random.default_rng(7)
    space = build_gns(StateFunctional.tracial(AlgebraDescriptor(n)))
    element = random_element(n, rng)
    operator = benchmark(space.represent, element)
    assert space.rank == n * n
    assert np.array_equal(operator, np.kron(element.matrix, np.eye(n)))


def test_measure_on_a_fresh_state(benchmark):
    # criterion 4's first step: a shared observable through the first context
    rng = np.random.default_rng(7)
    alg = AlgebraDescriptor(3)
    gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
    ctx = context_from_observable(gen, ContextRegistry())
    inst = Instrument(ctx, "first")
    shared = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)

    def fresh():
        phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(3, rng))
        return (phi, inst, shared), {"rng": rng}

    value, phi = benchmark.pedantic(measure, setup=fresh, rounds=200)
    assert value in (5.0, 7.0)
    assert measure(phi, inst, shared, rng=rng)[0] == value  # a repeat is exact


def test_ensure_layer_draw(benchmark):
    rng, a1, a2 = _sweep()
    ctx = context_from_observable(interpolated_generator(a1, a2, 0.4), ContextRegistry())
    vector = random_unit_vector(6, rng)

    def fresh():
        return (ElementaryState(rng=rng, attached_vector=vector), ctx), {}

    layer = benchmark.pedantic(ElementaryState.ensure_layer, setup=fresh, rounds=200)
    assert layer.context is ctx and 0 <= layer.index < 6


def test_ensure_layer_draw_with_a_stable_record(benchmark):
    # the conditioned draw that test_ensure_layer_draw (no records) skips
    rng, a1, a2 = _sweep()
    g = interpolated_generator(a1, a2, 0.4)
    ctx = context_from_observable(g, ContextRegistry())
    vector = random_unit_vector(6, rng)
    value = float(ctx.diagonal_values(g)[2])

    def fresh():
        phi = ElementaryState(rng=rng, attached_vector=vector)
        phi.add_stable_record(g, value)
        return (phi, ctx), {}

    layer = benchmark.pedantic(ElementaryState.ensure_layer, setup=fresh, rounds=200)
    assert layer.context is ctx and layer.index == 2


def test_wick_green_order_12(benchmark):
    times = list(np.random.default_rng(7).uniform(-5.0, 5.0, 12))
    value = benchmark(wick_green, times, 1.0)
    assert abs(value - fock_oracle_green(times, 1.0)) <= 1e-8


def test_functional_derivative_green_fourth_order(benchmark):
    times = [-1.0, 0.0, 0.5, 1.5]
    grid = TimeGrid(-3.0, 3.0, 61)
    value = benchmark(functional_derivative_green, grid, times, 1.0, 2e-2)
    assert abs(value - wick_green(times, 1.0)) <= 1e-3  # O(h^2) difference error


def test_ks_search_on_the_bundled_rays(benchmark):
    rays = peres33_rays()
    result = benchmark(ks_noncontextual_search, rays)
    assert not result.satisfiable and result.exhausted
    assert result.nodes == 28


def test_ks_search_without_the_pair_rule(benchmark):
    rays = peres33_rays()
    result = benchmark(ks_noncontextual_search, rays, pair_rule=False)
    assert result.satisfiable and not result.exhausted
    assert result.nodes == 23


def test_render_json_of_a_report(benchmark):
    rng = np.random.default_rng(7)
    rows = [
        {"theta": float(t), "p": np.float64(np.cos(t / 2) ** 2), "ok": np.bool_(True)}
        for t in rng.uniform(0.0, np.pi, 50)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "spin-demo",
        "seed": 7,
        "parameters": {"samples": np.int64(100)},
        "results": {"angles": rows},
    }
    text = benchmark(render_json, doc)
    assert text.endswith("}\n") and render_json(json.loads(text)) == text
    loaded = json.loads(text)
    assert loaded["parameters"] == {"samples": 100}
    assert loaded["results"]["angles"][3]["p"] == float(rows[3]["p"])
