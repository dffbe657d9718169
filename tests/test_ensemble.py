import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, adjoint, spectrum
from contextqm.contexts import (
    ContextRegistry,
    context_from_family,
    context_from_observable,
)
from contextqm import cli, ensembles, states
from contextqm.ensembles import (
    STAT_BAND,
    QuantumState,
    born_distribution,
    ensemble_average,
    instrument_independence_report,
    linearity_residual,
    quantum_average_exact,
    sample_elementary_state,
    within_band,
    x_polarized,
)
from contextqm.measurement import (
    pauli_matrices,
    rotated_squared_family,
    spin1_squared_observables,
    spin_axis_observable,
)
from contextqm.states import (
    DRAW_CHUNK,
    ElementaryState,
    agreeing,
    construct_stable_on,
    is_stable,
)
from conftest import ChoiceSpy, random_hermitian, random_unit_vector


@pytest.fixture
def registry():
    return ContextRegistry()


def _x_shared_spin1_contexts(registry, phi_angle=0.7):
    base = spin1_squared_observables()
    frame = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(phi_angle), np.sin(phi_angle)],
            [0.0, -np.sin(phi_angle), np.cos(phi_angle)],
        ]
    )
    rotated = rotated_squared_family(frame)
    c1 = context_from_family(base, registry)
    c2 = context_from_family(rotated, registry)
    return base[0], c1, c2


def _random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _shared_pair(n, rng, registry, scale):
    """An observable with repeated eigenvalues and two maximal contexts
    containing it, whose bases differ inside each of its eigenspaces."""
    values = scale * rng.integers(-1, max(2, n - 1), size=n).astype(float)
    frame = _random_unitary(n, rng)
    turned = frame.copy()
    for value in np.unique(values):
        block = np.flatnonzero(values == value)
        turned[:, block] = frame[:, block] @ _random_unitary(block.size, rng)
    algebra = AlgebraDescriptor(n)
    shared = AlgebraElement((frame * values) @ frame.conj().T, algebra)
    generic = np.arange(n) + 0.5
    contexts = [
        context_from_observable(AlgebraElement((b * generic) @ b.conj().T, algebra), registry)
        for b in (frame, turned)
    ]
    return shared, frame, contexts


def _per_point_histogram(reads, points, indices):
    """The ensemble histogram formed one spectrum point at a time: a point
    sums the draws of the indices whose reads agree with it."""
    counts = np.bincount(indices, minlength=len(reads))
    histogram = {}
    for point in points:
        hits = int(counts[agreeing(reads, point)].sum())
        if hits:
            histogram[round(float(point), 12)] = hits
    return histogram


def _per_sample_histogram(values, points):
    """The ensemble histogram counted over the drawn values, one spectrum
    point at a time."""
    histogram = {}
    for point in points:
        hits = int(np.count_nonzero(agreeing(values, point)))
        if hits:
            histogram[round(float(point), 12)] = hits
    return histogram


def _tally_moments(reads, indices):
    """The mean and ddof=1 variance of the drawn reads, formed per index:
    each read weighted by how often its index was drawn."""
    counts, sample_count = np.bincount(indices, minlength=len(reads)), len(indices)
    mean = float(counts @ reads) / sample_count
    spread = float(counts @ (reads - mean) ** 2)
    return mean, spread / (sample_count - 1) if sample_count > 1 else 0.0


def _index_array_report(psi, element, ctx1, ctx2, sample_count, rng):
    """The instrument-independence report formed per sample: every draw's
    index (by ``Generator.choice``) and read are kept, and a threshold's
    empirical CDF is the mean of a per-sample mask."""
    reads = [ctx.reads(element) for ctx in (ctx1, ctx2)]
    points = sorted(spectrum(element))
    probs = [born_distribution(psi, ctx) for ctx in (ctx1, ctx2)]

    def at_or_below(r, point):
        return (r <= point) | agreeing(r, point)

    exact = [
        [float(p[at_or_below(r, point)].sum()) for point in points]
        for p, r in zip(probs, reads)
    ]
    values = [
        r[rng.choice(len(p), sample_count, p=p / p.sum())] for p, r in zip(probs, reads)
    ]
    thresholds = []
    max_exact_diff = worst_band_ratio = 0.0
    for i, point in enumerate(points):
        f1, f2 = (float(np.mean(at_or_below(v, point))) for v in values)
        pooled = (f1 * sample_count + f2 * sample_count) / (2 * sample_count)
        pooled_se = float(np.sqrt(max(pooled * (1 - pooled), 0.0) * (2.0 / sample_count)))
        diff = abs(f1 - f2)
        band = STAT_BAND * pooled_se
        ratio = diff / band if band > 0 else (0.0 if diff == 0 else np.inf)
        worst_band_ratio = max(worst_band_ratio, ratio)
        max_exact_diff = max(max_exact_diff, abs(exact[0][i] - exact[1][i]))
        thresholds.append(
            {
                "threshold": float(point),
                "empirical_cdf_1": f1,
                "empirical_cdf_2": f2,
                "exact_cdf": exact[0][i],
                "pooled_se": pooled_se,
                "within_band": within_band(diff, pooled_se),
            }
        )
    return {
        "context_1": ctx1.id,
        "context_2": ctx2.id,
        "sample_count": sample_count,
        "thresholds": thresholds,
        "max_exact_marginal_diff": max_exact_diff,
        "worst_band_ratio": float(worst_band_ratio),
        "ok": bool(max_exact_diff <= 1e-12 and worst_band_ratio <= 1.0),
    }


class TestQuantumState:
    def test_normalization_enforced(self):
        alg = AlgebraDescriptor(2)
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1.0]), alg)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 0.0, 0.0]), AlgebraDescriptor(2))

    def test_input_array_not_aliased(self):
        raw = np.array([1.0 + 0j, 0.0])
        psi = QuantumState(raw, AlgebraDescriptor(2))
        raw[0] = 99.0
        assert psi.vector[0] == 1.0

    def test_x_polarized_expectation(self):
        sx, _, sz = pauli_matrices()
        psi = x_polarized()
        assert abs(psi.expectation(sx) - 1.0) <= 1e-12
        assert abs(psi.expectation(sz)) <= 1e-12

    @pytest.mark.parametrize(
        "algebra", [AlgebraDescriptor(2), AlgebraDescriptor(3, (1, 2))], ids=["2-dim", "blocks"]
    )
    def test_home_context_of_another_algebra_rejected(self, registry, algebra):
        ctx = context_from_observable(
            AlgebraElement.from_diagonal(np.arange(algebra.dimension, dtype=float), algebra),
            registry,
        )
        with pytest.raises(ValueError, match=f"home context {ctx.id} belongs to a different algebra"):
            QuantumState([1, 0, 0], AlgebraDescriptor(3), home_context=ctx)

    def test_projector_is_rank_one(self):
        psi = x_polarized()
        p = psi.projector
        assert np.allclose(p.matrix @ p.matrix, p.matrix, atol=1e-12)
        assert abs(np.trace(p.matrix) - 1.0) <= 1e-12


class TestAlgebraOfTheContext:
    """A context of another algebra of the same dimension is refused by
    every caller that pairs it with a state."""

    @pytest.fixture
    def pair(self, registry):
        blocks = AlgebraDescriptor(3, (1, 2))
        element = AlgebraElement.from_diagonal([0.0, 1.0, 2.0], blocks)
        psi = QuantumState([0, 0, 1], AlgebraDescriptor(3))
        return psi, element, context_from_observable(element, registry)

    def test_born_distribution(self, pair):
        psi, _, ctx = pair
        with pytest.raises(ValueError, match=f"context {ctx.id} belongs to a different algebra"):
            born_distribution(psi, ctx)

    def test_sampling_draws_nothing_first(self, pair, registry):
        psi, _, ctx = pair
        home = context_from_observable(
            AlgebraElement.from_diagonal([0.0, 1.0, 2.0], psi.algebra), registry
        )
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for contexts in ([ctx], [home, ctx]):
            with pytest.raises(ValueError, match="belongs to a different algebra"):
                sample_elementary_state(psi, iter(contexts), rng)
        assert rng.bit_generator.state == state

    def test_ensemble_average(self, pair):
        psi, element, ctx = pair
        with pytest.raises(ValueError, match="belongs to a different algebra"):
            ensemble_average(psi, element, ctx, 10, np.random.default_rng(0))

    def test_instrument_independence_report(self, pair):
        psi, element, ctx = pair
        with pytest.raises(ValueError, match="belongs to a different algebra"):
            instrument_independence_report(psi, element, ctx, ctx, 10, np.random.default_rng(0))


class TestWithinBand:
    def test_four_standard_errors_is_the_edge(self):
        assert within_band(0.4, 0.1)
        assert not within_band(np.nextafter(0.4, 1.0), 0.1)

    def test_zero_standard_error_admits_only_an_exact_match(self):
        assert within_band(0.0, 0.0)
        assert not within_band(1e-300, 0.0)

    def test_a_nan_deviation_is_outside(self):
        assert not within_band(float("nan"), 0.1)


class TestBornDistribution:
    def test_eigenstate_is_deterministic(self, registry):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(gen, registry)
        psi = QuantumState(np.array([1.0, 0.0, 0.0]), alg)
        probs = born_distribution(psi, ctx)
        assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-14)

    def test_x_polarized_is_unbiased_in_z(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        probs = born_distribution(x_polarized(), ctx)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-14)

    def test_tilted_axis_matches_eigenvector_overlap(self, registry):
        for theta in (np.pi / 6, np.pi / 3, 2 * np.pi / 3):
            registry_local = ContextRegistry()
            obs = spin_axis_observable(theta)
            ctx = context_from_observable(obs, registry_local)
            probs = born_distribution(x_polarized(), ctx)
            # Independent oracle: diagonalize with numpy directly.
            values, vectors = np.linalg.eigh(obs.matrix)
            x_vec = np.array([1.0, 1.0]) / np.sqrt(2)
            plus_prob = abs(vectors[:, np.argmax(values)] @ x_vec.conj()) ** 2
            read_offs = ctx.diagonal_values(obs)
            plus_index = int(np.argmax(read_offs))
            assert probs[plus_index] == pytest.approx(plus_prob, abs=1e-12)
            assert probs[plus_index] == pytest.approx(
                np.cos(theta / 2) ** 2, abs=1e-12
            )

    def test_probabilities_sum_to_one(self, registry, rng):
        for n in (2, 4, 5):
            h = random_hermitian(n, rng)
            ctx = context_from_observable(h, registry)
            psi = QuantumState(random_unit_vector(n, rng), h.algebra)
            probs = born_distribution(psi, ctx)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= -1e-15)


class TestSampling:
    def test_eigenstate_always_lands_on_its_index(self, registry):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(gen, registry)
        psi = QuantumState(np.array([0.0, 1.0, 0.0]), alg)
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = sample_elementary_state(psi, [ctx], rng)
            assert phi.layers[ctx.id].index == 1

    def test_home_context_pins_stable_records(self, registry):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        home = context_from_observable(gen, registry)
        psi = QuantumState(np.array([0.0, 0.0, 1.0]), alg, home_context=home)
        phi = sample_elementary_state(psi, [home], np.random.default_rng(1))
        assert len(phi.stable) == home.dimension
        # The home basis projectors are stable: agreement is forced.
        p_own = home.basis_projector(phi.layers[home.id].index)
        assert is_stable(phi, p_own)

    def test_empirical_frequency_tracks_born_weight(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        psi = x_polarized()
        rng = np.random.default_rng(99)
        n = 4000
        hits = sum(
            sample_elementary_state(psi, [ctx], rng).layers[ctx.id].index == 0
            for _ in range(n)
        )
        se = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 4 * se


class TestEnsembleAverage:
    def test_identity_has_zero_variance(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        rep = ensemble_average(
            x_polarized(), AlgebraElement.identity(alg), ctx, 200,
            np.random.default_rng(0),
        )
        assert rep.empirical_mean == 1.0
        assert rep.exact_mean == pytest.approx(1.0, abs=1e-14)
        assert rep.standard_error == 0.0

    def test_mean_within_band(self, registry):
        alg = AlgebraDescriptor(2)
        obs = spin_axis_observable(np.pi / 3)
        ctx = context_from_observable(obs, registry)
        rep = ensemble_average(
            x_polarized(), obs, ctx, 20000, np.random.default_rng(12)
        )
        assert rep.exact_mean == pytest.approx(np.cos(np.pi / 3), abs=1e-12)
        assert abs(rep.empirical_mean - rep.exact_mean) <= 4 * rep.standard_error

    def test_histogram_counts_spectrum_values(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        rep = ensemble_average(
            x_polarized(), sz, ctx, 1000, np.random.default_rng(3)
        )
        assert set(rep.histogram) == {-1.0, 1.0}
        assert sum(rep.histogram.values()) == 1000

    def test_draws_without_choice_and_as_choice_draws(self, registry):
        shared, c1, c2 = _x_shared_spin1_contexts(registry)
        psi = QuantumState(np.array([0.6, 0.0, 0.8j]), shared.algebra)
        for seed in range(5):
            spy, oracle = ChoiceSpy(np.random.default_rng(seed)), np.random.default_rng(seed)
            rep = ensemble_average(psi, shared, c1, 2000, spy)
            probs = born_distribution(psi, c1)
            values = c1.diagonal_values(shared)[
                oracle.choice(c1.dimension, size=2000, p=probs / probs.sum())
            ]
            assert rep.empirical_mean == float(values.mean())
            assert instrument_independence_report(psi, shared, c1, c2, 500, spy)["ok"]
            assert spy.choices == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_histogram_per_index_equals_the_per_sample_count(self, registry, seed):
        rng = np.random.default_rng(seed)
        ctx = context_from_observable(random_hermitian(5, rng), registry)
        # repeated values, and a pair within STABILITY_TOL that the spectrum merges
        diag = np.array([1.0, 1.0, -2.0, 3.0, 3.0 + 1e-12])
        element = AlgebraElement((ctx.basis * diag) @ ctx.basis.conj().T, ctx.algebra)
        psi = QuantumState(random_unit_vector(5, rng), ctx.algebra)
        drawn, oracle = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        report = ensemble_average(psi, element, ctx, 3000, drawn)
        probs = born_distribution(psi, ctx)
        indices = oracle.choice(5, size=3000, p=probs / probs.sum())
        reads = ctx.diagonal_values(element)
        expected = _per_sample_histogram(reads[indices], spectrum(element))
        assert list(report.histogram.items()) == list(expected.items())
        assert drawn.bit_generator.state == oracle.bit_generator.state
        moments = _tally_moments(reads, indices)
        assert (report.empirical_mean, report.sample_variance) == moments

    @settings(max_examples=60, deadline=None)
    @example(n=2, seed=0, scale=1.0, eigenvector=False, sample_count=1)
    @example(n=6, seed=1, scale=1e8, eigenvector=True, sample_count=DRAW_CHUNK + 1)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, -3.0, 1e8]),
        eigenvector=st.booleans(),
        sample_count=st.sampled_from(
            [1, 2, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 70_000]
        ),
    )
    def test_the_per_index_tally_equals_the_choice_draw(
        self, n, seed, scale, eigenvector, sample_count
    ):
        rng = np.random.default_rng(seed)
        shared, frame, (ctx, _) = _shared_pair(n, rng, ContextRegistry(), scale)
        vector = frame[:, 0] if eigenvector else random_unit_vector(n, rng)
        psi = QuantumState(vector, shared.algebra)
        drawn, oracle = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        report = ensemble_average(psi, shared, ctx, sample_count, drawn)
        probs = born_distribution(psi, ctx)
        indices = oracle.choice(n, size=sample_count, p=probs / probs.sum())
        reads = ctx.reads(shared)
        expected = _per_sample_histogram(reads[indices], spectrum(shared))
        assert list(report.histogram.items()) == list(expected.items())
        assert drawn.bit_generator.state == oracle.bit_generator.state
        moments = _tally_moments(reads, indices)
        assert (report.empirical_mean, report.sample_variance) == moments
        # the per-index sums are the per-sample ones up to rounding
        values, size = reads[indices], float(np.abs(reads).max())
        assert abs(moments[0] - values.mean()) <= 1e-12 * size
        if sample_count > 1:
            assert abs(moments[1] - values.var(ddof=1)) <= 1e-12 * size**2

    def test_memory_is_flat_in_the_sample_count(self, registry):
        sz = AlgebraElement.from_diagonal([1.0, -1.0], AlgebraDescriptor(2))
        ctx = context_from_observable(sz, registry)
        # first-call allocations are not the draws'
        ensemble_average(x_polarized(), sz, ctx, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            report = ensemble_average(
                x_polarized(), sz, ctx, 2_000_000, np.random.default_rng(0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(report.histogram.values()) == 2_000_000
        # an index and a value array per sample would take about 46 MB here
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("case", ["degenerate_in_finer_context", "block", "nondegenerate_6x6"])
    @pytest.mark.parametrize("seed", range(3))
    def test_histogram_equals_the_per_point_loop(self, registry, case, seed):
        rng = np.random.default_rng([seed, 2])
        if case == "degenerate_in_finer_context":  # measure_seq's observable and context
            algebra = AlgebraDescriptor(3)
            finer = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], algebra)
            ctx = context_from_observable(finer, registry)
            element = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], algebra)
        elif case == "block":
            algebra = AlgebraDescriptor(5, (2, 3))
            ctx = context_from_observable(random_hermitian(5, rng, algebra), registry)
            values = np.array([2.0, -1.0, 2.0, 0.5, -1.0])  # repeats across the blocks
            element = AlgebraElement((ctx.basis * values) @ ctx.basis.conj().T, algebra)
        else:
            element = random_hermitian(6, rng)
            algebra, ctx = element.algebra, context_from_observable(element, registry)
        psi = QuantumState(random_unit_vector(algebra.dimension, rng), algebra)
        drawn, oracle = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
        report = ensemble_average(psi, element, ctx, 2000, drawn)
        probs = born_distribution(psi, ctx)
        indices = oracle.choice(ctx.dimension, size=2000, p=probs / probs.sum())
        expected = _per_point_histogram(ctx.reads(element), spectrum(element), indices)
        assert report.histogram == expected
        assert list(report.histogram) == list(expected)

    def test_error_band_shrinks_with_sample_size(self, registry):
        # Quadrupling the sample count halves the statistical band.
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        psi = x_polarized()
        small = ensemble_average(psi, sz, ctx, 2000, np.random.default_rng(8))
        large = ensemble_average(psi, sz, ctx, 8000, np.random.default_rng(8))
        ratio = small.standard_error / large.standard_error
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestExactAverages:
    def test_eigenstate_reads_diagonal(self, registry):
        alg = AlgebraDescriptor(2)
        obs = AlgebraElement.from_diagonal([4.0, -2.0], alg)
        psi = QuantumState(np.array([1.0, 0.0]), alg)
        assert quantum_average_exact(psi, obs) == pytest.approx(4.0, abs=1e-14)

    def test_matches_vector_sandwich(self, rng):
        for n in (2, 3, 5):
            alg = AlgebraDescriptor(n)
            h = random_hermitian(n, rng)
            vec = random_unit_vector(n, rng)
            psi = QuantumState(vec, alg)
            direct = float(np.real(vec.conj() @ h.matrix @ vec))
            assert quantum_average_exact(psi, h) == pytest.approx(direct, abs=1e-12)

    def test_positivity_on_squares(self, rng):
        alg = AlgebraDescriptor(3)
        for _ in range(20):
            raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = AlgebraElement(raw, alg)
            psi = QuantumState(random_unit_vector(3, rng), alg)
            assert quantum_average_exact(psi, adjoint(a) @ a) >= -1e-12

    def test_linearity_even_for_noncommuting_pair(self, rng):
        sx, sy, _ = pauli_matrices()
        for _ in range(20):
            psi = QuantumState(random_unit_vector(2, rng), sx.algebra)
            assert linearity_residual(psi, sx, sy) <= 1e-12

    def test_cauchy_schwarz_for_state_average(self, rng):
        alg = AlgebraDescriptor(3)
        for _ in range(30):
            raw_r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            raw_s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            r = AlgebraElement(raw_r, alg)
            s = AlgebraElement(raw_s, alg)
            psi = QuantumState(random_unit_vector(3, rng), alg)
            vec = psi.vector
            cross = abs(vec.conj() @ (adjoint(r) @ s).matrix @ vec) ** 2
            bound = quantum_average_exact(psi, adjoint(r) @ r) * quantum_average_exact(
                psi, adjoint(s) @ s
            )
            assert cross <= bound + 1e-10


class TestInstrumentIndependence:
    def test_shared_spin1_observable_marginals_agree(self, registry):
        shared, c1, c2 = _x_shared_spin1_contexts(registry)
        vec = np.array([0.2 + 0.1j, 0.5 - 0.3j, 0.7 + 0.2j])
        psi = QuantumState(vec / np.linalg.norm(vec), shared.algebra)
        report = instrument_independence_report(
            psi, shared, c1, c2, 20000, np.random.default_rng(17)
        )
        assert report["ok"]
        assert report["max_exact_marginal_diff"] <= 1e-12
        assert report["worst_band_ratio"] <= 1.0
        assert report["context_1"] == c1.id
        assert report["context_2"] == c2.id

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["double-top", "double-bottom"])
    def test_thresholds_scale_with_the_spectrum(self, registry, scale, sign):
        # eigenvalues scale and 2 * scale, one of them double: the reads and
        # spectrum points of one eigenvalue differ by roundoff that grows
        # with the scale, which an absolute 1e-9 margin did not cover
        base, c1, c2 = _x_shared_spin1_contexts(registry)
        shift = 1.5 * np.eye(3) + sign * (base.matrix - 0.5 * np.eye(3))
        shared = AlgebraElement(scale * shift, base.algebra)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            psi = QuantumState(random_unit_vector(3, rng), shared.algebra)
            report = instrument_independence_report(psi, shared, c1, c2, 2000, rng)
            assert report["max_exact_marginal_diff"] <= 1e-12, seed
            assert report["ok"], seed

    def test_same_context_twice_is_trivially_consistent(self, registry):
        shared, c1, _ = _x_shared_spin1_contexts(registry)
        psi = QuantumState(np.array([0.6, 0.0, 0.8]), shared.algebra)
        report = instrument_independence_report(
            psi, shared, c1, c1, 5000, np.random.default_rng(2)
        )
        assert report["ok"]
        assert report["max_exact_marginal_diff"] == 0.0

    def test_deterministic_given_seed(self, registry):
        shared, c1, c2 = _x_shared_spin1_contexts(registry)
        psi = QuantumState(np.array([0.6, 0.0, 0.8]), shared.algebra)
        rep_a = instrument_independence_report(
            psi, shared, c1, c2, 3000, np.random.default_rng(5)
        )
        rep_b = instrument_independence_report(
            psi, shared, c1, c2, 3000, np.random.default_rng(5)
        )
        assert rep_a == rep_b

    @settings(max_examples=80, deadline=None)
    @example(n=3, seed=0, scale=1.0, eigenvector=False, same=False, sample_count=DRAW_CHUNK + 1)
    @example(n=2, seed=1, scale=1e8, eigenvector=True, same=False, sample_count=70_000)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, -3.0, 1e8]),
        eigenvector=st.booleans(),
        same=st.booleans(),
        sample_count=st.one_of(
            st.integers(1, 600), st.sampled_from([DRAW_CHUNK - 1, DRAW_CHUNK, 70_000])
        ),
    )
    def test_per_index_tally_equals_the_per_sample_report(
        self, n, seed, scale, eigenvector, same, sample_count
    ):
        rng = np.random.default_rng(seed)
        shared, frame, (c1, c2) = _shared_pair(n, rng, ContextRegistry(), scale)
        vector = frame[:, 0] if eigenvector else random_unit_vector(n, rng)
        psi = QuantumState(vector, shared.algebra)
        c2 = c1 if same else c2
        drawn, oracle = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        report = instrument_independence_report(psi, shared, c1, c2, sample_count, drawn)
        expected = _index_array_report(psi, shared, c1, c2, sample_count, oracle)
        assert report == expected
        assert repr(report) == repr(expected)  # -0.0 and types too
        assert drawn.bit_generator.state == oracle.bit_generator.state

    def test_memory_is_flat_in_the_sample_count(self, registry):
        shared, c1, c2 = _x_shared_spin1_contexts(registry)
        psi = QuantumState(np.array([0.6, 0.0, 0.8]), shared.algebra)
        # first-call allocations are not the draws'
        instrument_independence_report(psi, shared, c1, c2, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            report = instrument_independence_report(
                psi, shared, c1, c2, 2_000_000, np.random.default_rng(0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["sample_count"] == 2_000_000
        # an index and a read array per context would take 64 MB here
        assert peak < 4 * 2**20

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sample_count", [0, -1])
    def test_sample_count_below_one_rejected(self, registry, sample_count):
        # the same refusal as ensemble_average's, before any draw
        shared, c1, c2 = _x_shared_spin1_contexts(registry)
        psi = QuantumState(np.array([0.6, 0.0, 0.8]), shared.algebra)
        rng = np.random.default_rng(0)
        drawn = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample_count must be at least 1"):
            ensemble_average(psi, shared, c1, sample_count, rng)
        with pytest.raises(ValueError, match="sample_count must be at least 1"):
            instrument_independence_report(psi, shared, c1, c2, sample_count, rng)
        assert rng.bit_generator.state == drawn


def test_born_weights_is_the_one_born_rule(registry, monkeypatch):
    # lazy layers, Born distributions and overlap components all ask it
    assert ensembles.born_weights is states.born_weights
    shapes = []
    original = states.born_weights

    def spy(basis, vectors):
        shapes.append(np.shape(vectors))
        return original(basis, vectors)

    for module in (states, ensembles):
        monkeypatch.setattr(module, "born_weights", spy)
    shared, c1, c2 = _x_shared_spin1_contexts(registry)
    psi = QuantumState(np.array([0.6, 0.0, 0.8j]), shared.algebra)
    born_distribution(psi, c1)
    assert shapes == [(3,)]
    ElementaryState(rng=np.random.default_rng(0), attached_vector=psi.vector).ensure_layer(c2)
    assert shapes == [(3,), (3,)]
    construct_stable_on(c1, 0, [c1, c2])
    assert shapes == [(3,), (3,), (3, 3)]


def test_count_draws_is_the_one_array_sampler(registry, monkeypatch):
    # each caller that draws a sample tallies it once per context, and
    # none of them draws indices one at a time
    tallied, single = [], []
    count_draws, draw_indices = states.count_draws, states.draw_indices

    def tally(probs, rng, size):
        tallied.append(len(probs))
        return count_draws(probs, rng, size)

    def draw(*args, **kwargs):
        single.append(len(args[0]))
        return draw_indices(*args, **kwargs)

    for module in (states, ensembles, cli):
        monkeypatch.setattr(module, "count_draws", tally, raising=False)
        monkeypatch.setattr(module, "draw_indices", draw, raising=False)
    shared, c1, c2 = _x_shared_spin1_contexts(registry)
    psi = QuantumState(np.array([0.6, 0.0, 0.8j]), shared.algebra)
    ensemble_average(psi, shared, c1, 100, np.random.default_rng(0))
    assert tallied == [3]
    instrument_independence_report(psi, shared, c1, c2, 100, np.random.default_rng(0))
    assert tallied == [3, 3, 3]
    result = CliRunner().invoke(cli.main, ["spin-demo", "-n", "100", "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert tallied == [3, 3, 3, 2, 2, 2, 2]  # one per default angle
    assert single == []
