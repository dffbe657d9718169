"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS line with the measured
numbers when it succeeds.  Tolerances and time budgets are asserted, not
merely reported.
"""

import math
import time

import numpy as np
import pytest

from contextqm.algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    adjoint,
    norm,
)
from contextqm.contexts import (
    ContextRegistry,
    context_from_family,
    context_from_observable,
)
from contextqm.ensembles import (
    QuantumState,
    born_distribution,
    ensemble_average,
    instrument_independence_report,
    x_polarized,
)
from contextqm.gns import (
    StateFunctional,
    build_gns,
    compression_identity_check,
    vacuum_expectation,
)
from contextqm.measurement import (
    Instrument,
    ks_noncontextual_search,
    measure,
    peres33_rays,
    rotated_squared_family,
    spin1_squared_observables,
    spin_axis_observable,
)
from contextqm.oscillator import (
    StateFunctional as OscFunctional,
    TimeGrid,
    damped_ladder_magnitude,
    fock_oracle_green,
    functional_derivative_green,
    ground_projector_limit,
    two_point,
    wick_green,
)
from contextqm.states import (
    ElementaryState,
    check_character_properties,
    construct_state,
    is_stable,
)
from conftest import random_element, random_hermitian, random_unit_vector


def test_criterion_01_character_axioms():
    """100 random contexts, dims 2..8: every character axiom within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    registry = ContextRegistry()
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 7
        ctx = context_from_observable(random_hermitian(n, rng), registry)
        index = int(rng.integers(n))
        phi = construct_state({ctx.id: index}, registry)
        report = check_character_properties(phi, ctx, samples=8, rng=rng)
        assert report["ok"], report
        worst = max(worst, report["max_residual"])
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(
        f"PASS criterion 1: character axioms on 100 contexts "
        f"(worst residual {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_02_born_statistics_spin_half():
    """Tilted-axis frequencies match cos^2(theta/2) within 4 standard errors."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    samples = 100_000
    psi = x_polarized()
    worst_ratio = 0.0
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        registry = ContextRegistry()
        obs = spin_axis_observable(theta)
        ctx = context_from_observable(obs, registry)
        plus_index = int(np.argmax(ctx.diagonal_values(obs)))
        plus_projector = ctx.basis_projector(plus_index)
        report = ensemble_average(psi, plus_projector, ctx, samples, rng)
        exact = math.cos(theta / 2) ** 2
        assert report.exact_mean == pytest.approx(exact, abs=1e-12)
        gap = abs(report.empirical_mean - report.exact_mean)
        assert gap <= 4 * report.standard_error
        worst_ratio = max(worst_ratio, gap / report.standard_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"PASS criterion 2: Born statistics at 4 angles, N={samples} "
        f"(worst gap {worst_ratio:.2f} SE, {elapsed:.1f}s)"
    )


def test_criterion_03_instrument_independence():
    """A shared observable has identical marginals in both host contexts."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    registry = ContextRegistry()
    base = spin1_squared_observables()
    phi_angle = 0.7
    frame = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(phi_angle), np.sin(phi_angle)],
            [0.0, -np.sin(phi_angle), np.cos(phi_angle)],
        ]
    )
    c1 = context_from_family(base, registry)
    c2 = context_from_family(rotated_squared_family(frame), registry)
    vec = np.array([0.2 + 0.1j, 0.5 - 0.3j, 0.7 + 0.2j])
    psi = QuantumState(vec / np.linalg.norm(vec), base[0].algebra)
    report = instrument_independence_report(
        psi, base[0], c1, c2, 100_000, rng
    )
    assert report["max_exact_marginal_diff"] <= 1e-12
    assert report["ok"], report
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 3: shared-observable marginals agree "
        f"(exact diff {report['max_exact_marginal_diff']:.1e}, "
        f"band ratio {report['worst_band_ratio']:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_04_measurement_reproducibility():
    """10^4 random sequences: repeats and recorded values are bit-exact."""
    start = time.perf_counter()
    registry = ContextRegistry()
    alg = AlgebraDescriptor(3)
    gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
    gen2 = AlgebraElement(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), alg
    )
    ctx1 = context_from_observable(gen1, registry)
    ctx2 = context_from_observable(gen2, registry)
    shared = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)
    inst1 = Instrument(ctx1, "first")
    inst1b = Instrument(ctx1, "first-twin")
    inst2 = Instrument(ctx2, "second")
    sequences = 10_000
    for seed in range(sequences):
        rng = np.random.default_rng(seed)
        phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(3, rng))
        # (a) immediate same-instrument repetition
        v1, phi = measure(phi, inst1, shared, rng=rng)
        v2, phi = measure(phi, inst1, shared, rng=rng)
        assert v1 == v2
        assert is_stable(phi, shared)
        # (b) the recorded value survives an instrument swap, bit-exact
        v3, phi = measure(phi, inst2, shared, rng=rng)
        v4, phi = measure(phi, inst1b, shared, rng=rng)
        assert v3 == v1 and v4 == v1
        # (c) alternating compatible observables repeat pairwise
        a1, phi = measure(phi, inst1, gen1, rng=rng)
        b1, phi = measure(phi, inst1, shared, rng=rng)
        a2, phi = measure(phi, inst1, gen1, rng=rng)
        b2, phi = measure(phi, inst1, shared, rng=rng)
        assert a1 == a2 and b1 == b2
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 4: {sequences} sequences with exact repetition "
        f"and cross-instrument records ({elapsed:.1f}s)"
    )


def test_criterion_05_gns_residuals_and_ranks():
    """1000 (state, element) pairs, dims 2..6: residuals within 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_exp = 0.0
    worst_comp = 0.0
    for trial in range(1000):
        n = 2 + trial % 5
        alg = AlgebraDescriptor(n)
        vec = random_unit_vector(n, rng)
        functional = StateFunctional.from_vector(vec, alg)
        space = build_gns(functional)
        assert space.rank == n
        element = random_element(n, rng)
        residual = abs(vacuum_expectation(space, element) - functional.value(element))
        worst_exp = max(worst_exp, residual)
        psi = QuantumState(vec, alg)
        worst_comp = max(
            worst_comp, compression_identity_check(psi, element, rng=rng, samples=2)
        )
    for n in range(2, 7):
        assert build_gns(StateFunctional.tracial(AlgebraDescriptor(n))).rank == n * n
    elapsed = time.perf_counter() - start
    assert worst_exp <= 1e-10
    assert worst_comp <= 1e-10
    assert elapsed < 60.0
    print(
        f"PASS criterion 5: representation residuals over 1000 pairs "
        f"(expectation {worst_exp:.1e}, compression {worst_comp:.1e}, "
        f"ranks n and n^2, {elapsed:.1f}s)"
    )


def test_criterion_06_norm_axioms():
    """1000 elements: the multiplicative star identity and seminorm axioms."""
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    shapes = [
        AlgebraDescriptor(2),
        AlgebraDescriptor(3),
        AlgebraDescriptor(4, (2, 2)),
        AlgebraDescriptor(5, (3, 2)),
        AlgebraDescriptor(6, (1, 2, 3)),
        AlgebraDescriptor(8),
    ]
    worst_star = 0.0
    worst_axiom = 0.0
    for trial in range(1000):
        alg = shapes[trial % len(shapes)]
        n = alg.dimension
        a = random_element(n, rng, alg)
        b = random_element(n, rng, alg)
        star_gap = abs(norm(adjoint(a) @ a) - norm(a) ** 2)
        worst_star = max(worst_star, star_gap / max(1.0, norm(a) ** 2))
        worst_axiom = max(
            worst_axiom,
            norm(a + b) - (norm(a) + norm(b)),
            norm(a @ b) - norm(a) * norm(b),
            abs(norm(2.5 * a) - 2.5 * norm(a)),
        )
    # Cauchy-Schwarz for state functionals
    worst_cs = 0.0
    for _ in range(200):
        alg = AlgebraDescriptor(4)
        f = StateFunctional.from_vector(random_unit_vector(4, rng), alg)
        r, s = random_element(4, rng), random_element(4, rng)
        cross = abs(f.value(adjoint(r) @ s)) ** 2
        bound = np.real(f.value(adjoint(r) @ r)) * np.real(f.value(adjoint(s) @ s))
        worst_cs = max(worst_cs, cross - bound)
    elapsed = time.perf_counter() - start
    assert worst_star <= 1e-10
    assert worst_axiom <= 1e-10
    assert worst_cs <= 1e-10
    print(
        f"PASS criterion 6: norm axioms on 1000 elements "
        f"(star identity {worst_star:.1e}, axioms {worst_axiom:.1e}, "
        f"Cauchy-Schwarz {worst_cs:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_07_ray_coloring_obstruction():
    """The 33-ray search exhausts while the sampler reproduces statistics."""
    start = time.perf_counter()
    rays = peres33_rays()
    result = ks_noncontextual_search(rays)
    search_time = time.perf_counter() - start
    assert result.assignment is None
    assert result.exhausted
    assert search_time < 10.0
    # The same squared-spin observables remain statistically consistent.
    rng = np.random.default_rng(707)
    registry = ContextRegistry()
    base = spin1_squared_observables()
    frame = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(0.5), np.sin(0.5)],
            [0.0, -np.sin(0.5), np.cos(0.5)],
        ]
    )
    c1 = context_from_family(base, registry)
    c2 = context_from_family(rotated_squared_family(frame), registry)
    psi = QuantumState(np.array([0.6, 0.0, 0.8]), base[0].algebra)
    report = instrument_independence_report(psi, base[0], c1, c2, 20_000, rng)
    assert report["ok"]
    probs = born_distribution(psi, c1)
    draws = rng.choice(3, size=20_000, p=probs)
    for k in range(3):
        freq = float(np.mean(draws == k))
        se = math.sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / 20_000)
        assert abs(freq - probs[k]) <= 4 * se + 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 7: no noncontextual coloring "
        f"({result.nodes} nodes in {search_time:.3f}s) while sampling "
        f"stays Born-consistent ({elapsed:.1f}s)"
    )


def test_criterion_08_green_function_routes_agree():
    """Pairing expansion vs truncated-matrix route, 50 tuples per (n, omega)."""
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for n in (2, 4, 6):
        for omega in (0.5, 1.0, 2.0):
            for _ in range(50):
                times = list(rng.uniform(-3.0, 3.0, size=n))
                gap = abs(wick_green(times, omega) - fock_oracle_green(times, omega))
                worst = max(worst, gap)
    assert worst <= 1e-8
    assert abs(wick_green([0.0] * 4, 1.0) - 0.75) <= 1e-10
    for n_odd in (1, 3, 5):
        assert wick_green(list(rng.uniform(-2, 2, size=n_odd)), 1.0) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(
        f"PASS criterion 8: correlation routes agree on 450 tuples "
        f"(worst gap {worst:.1e}, equal-time 4-point exact, odd orders vanish, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_09_damped_exponential_limits():
    """Ground-projector deviation equals exp(-r); ladder words decay as bound."""
    start = time.perf_counter()
    for r in (0.5, 1.0, 2.0, 4.0, 8.0):
        _, deviation = ground_projector_limit(r, cutoff=14)
        assert deviation == math.exp(-r)  # computed identically, bit-exact
    cutoff = 10
    tracial = OscFunctional.tracial(AlgebraDescriptor(cutoff))
    values = {}
    for r in (2.0, 4.0, 8.0):
        m = damped_ladder_magnitude(1, 1, r, r, tracial)
        assert m <= math.exp(-2 * r)
        values[r] = m
    assert values[4.0] / values[2.0] == pytest.approx(math.exp(-4.0), rel=0.1)
    assert values[8.0] / values[4.0] == pytest.approx(math.exp(-8.0), rel=0.1)
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 9: projector deviation equals exp(-r) exactly; "
        f"damped ladder words obey the exponential bound ({elapsed:.1f}s)"
    )


def test_criterion_10_functional_derivative_route():
    """Finite-difference derivatives of the generating functional."""
    start = time.perf_counter()
    grid = TimeGrid(-3.0, 3.0, 61)
    worst = 0.0
    for t in (0.0, 0.5, 1.0):
        fd = functional_derivative_green(grid, [t, 0.0], 1.0)
        worst = max(worst, abs(fd - two_point(t, 0.0, 1.0)))
    assert worst <= 1e-3
    exact = two_point(0.0, 0.0, 1.0)
    err_h = abs(functional_derivative_green(grid, [0.0, 0.0], 1.0, h=1e-3) - exact)
    err_half = abs(
        functional_derivative_green(grid, [0.0, 0.0], 1.0, h=5e-4) - exact
    )
    ratio = err_h / err_half
    assert ratio == pytest.approx(4.0, rel=0.15)  # second-order stencil
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 10: source-derivative route matches the propagator "
        f"(worst gap {worst:.1e}, halving ratio {ratio:.2f}, {elapsed:.1f}s)"
    )
