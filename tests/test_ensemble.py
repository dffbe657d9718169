import numpy as np
import pytest

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, adjoint, spectrum
from contextqm.contexts import (
    ContextRegistry,
    context_from_family,
    context_from_observable,
)
from contextqm.ensembles import (
    EnsembleReport,
    QuantumState,
    born_distribution,
    ensemble_average,
    instrument_independence_report,
    linearity_residual,
    quantum_average_exact,
    sample_elementary_state,
    x_polarized,
)
from contextqm.measurement import (
    pauli_matrices,
    rotated_squared_family,
    spin1_squared_observables,
    spin_axis_observable,
)
from contextqm.states import agreeing, is_stable
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

    def test_projector_is_rank_one(self):
        psi = x_polarized()
        p = psi.projector
        assert np.allclose(p.matrix @ p.matrix, p.matrix, atol=1e-12)
        assert abs(np.trace(p.matrix) - 1.0) <= 1e-12


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
        values = ctx.diagonal_values(element)[
            oracle.choice(5, size=3000, p=probs / probs.sum())
        ]
        expected = {}
        for point in spectrum(element):
            hits = int(np.count_nonzero(agreeing(values, point)))
            if hits:
                expected[round(float(point), 12)] = hits
        assert list(report.histogram.items()) == list(expected.items())
        assert drawn.bit_generator.state == oracle.bit_generator.state
        assert report.empirical_mean == float(values.mean())
        assert report.sample_variance == float(values.var(ddof=1))

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

    def test_merge_pools_counts_and_means(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        psi = x_polarized()
        r1 = ensemble_average(psi, sz, ctx, 600, np.random.default_rng(1))
        r2 = ensemble_average(psi, sz, ctx, 400, np.random.default_rng(2))
        merged = r1.merge(r2)
        assert merged.sample_count == 1000
        expected_mean = (600 * r1.empirical_mean + 400 * r2.empirical_mean) / 1000
        assert merged.empirical_mean == pytest.approx(expected_mean, abs=1e-14)
        for v in (-1.0, 1.0):
            assert merged.histogram[v] == r1.histogram[v] + r2.histogram[v]

    def test_merge_variance_matches_pooled_recompute(self):
        # Rebuild the pooled variance directly from the two histograms.
        values = np.array([-1.0, 1.0])

        def from_counts(counts):
            n = counts.sum()
            samples = np.repeat(values, counts)
            return EnsembleReport(
                observable_fingerprint="x",
                sample_count=int(n),
                empirical_mean=float(samples.mean()),
                exact_mean=0.0,
                sample_variance=float(samples.var(ddof=1)),
                histogram={v: int(c) for v, c in zip(values, counts)},
            )

        r1 = from_counts(np.array([130, 70]))
        r2 = from_counts(np.array([40, 160]))
        merged = r1.merge(r2)
        pooled = np.concatenate(
            [np.repeat(values, [130, 70]), np.repeat(values, [40, 160])]
        )
        assert merged.empirical_mean == pytest.approx(pooled.mean(), abs=1e-13)
        assert merged.sample_variance == pytest.approx(pooled.var(ddof=1), abs=1e-13)

    def test_incompatible_rejected(self, registry):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
        ctx = context_from_observable(sz, registry)
        from contextqm.contexts import IncompatibleObservableError

        with pytest.raises(IncompatibleObservableError):
            ensemble_average(x_polarized(), sx, ctx, 10, np.random.default_rng(0))


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

    def test_observable_must_live_in_both_contexts(self, registry):
        base = spin1_squared_observables()
        c1 = context_from_family(base, registry)
        frame = np.array(
            [
                [0.0, 1.0, 0.0],
                [np.cos(0.4), 0.0, np.sin(0.4)],
                [-np.sin(0.4), 0.0, np.cos(0.4)],
            ]
        )
        c2 = context_from_family(rotated_squared_family(frame), registry)
        from contextqm.contexts import IncompatibleObservableError

        with pytest.raises(IncompatibleObservableError):
            instrument_independence_report(
                QuantumState(np.array([0.6, 0.0, 0.8]), base[0].algebra),
                base[2],
                c1,
                c2,
                100,
                np.random.default_rng(0),
            )
