import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from contextqm.algebra import AlgebraDescriptor
from contextqm.gns import StateFunctional
from contextqm.oscillator import (
    MAX_WICK_ORDER,
    CoarseGridWarning,
    FockTruncation,
    SourceFunction,
    TimeGrid,
    damped_ladder_magnitude,
    fock_oracle_green,
    functional_derivative_green,
    generating_functional,
    ground_projector_limit,
    hamiltonian_sandwich_residual,
    two_point,
    wick_green,
)
from conftest import perfect_matchings

# the i*eps regulator of propagator_quadrature's energy integral
QUADRATURE_EPSILON = 1e-6


def propagator_quadrature(t1: float, t2: float, omega: float) -> complex:
    """Energy-integral route to the two-point kernel, the oracle of ``two_point``.

    Evaluates (1/2pi) * integral dE exp(-iE(t1-t2)) / (omega^2 - E^2 - i eps)
    by real-axis quadrature with a small finite regulator.  The integrand
    is even in E, so only the cosine part survives; the Lorentzian spike
    at E = omega is resolved by splitting the axis and hinting the peak.
    Returns the regulated kernel, which tends to i/(2 omega) *
    exp(-i omega |t|) as the regulator vanishes.
    """
    t = abs(t1 - t2)
    delta = 1e-2 * omega

    def base_real(e):
        d = omega * omega - e * e
        return d / (d * d + QUADRATURE_EPSILON * QUADRATURE_EPSILON)

    def base_imag(e):
        d = omega * omega - e * e
        return QUADRATURE_EPSILON / (d * d + QUADRATURE_EPSILON * QUADRATURE_EPSILON)

    quad_opts = dict(limit=400, epsabs=1e-13, epsrel=1e-11)
    total = 0.0 + 0.0j
    for base, unit in ((base_real, 1.0 + 0.0j), (base_imag, 0.0 + 1.0j)):
        inner, _ = integrate.quad(
            lambda e: base(e) * math.cos(e * t), 0.0, omega - delta, **quad_opts
        )
        with warnings.catch_warnings():
            # the regulator spike is 1e6 tall and 1e-6 wide: roundoff noise
            # beyond the requested tolerance is expected and harmless there
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            spike, _ = integrate.quad(
                lambda e: base(e) * math.cos(e * t),
                omega - delta,
                omega + delta,
                points=[omega],
                **quad_opts,
            )
        if t > 0:
            tail, _ = integrate.quad(
                base, omega + delta, np.inf, weight="cos", wvar=t, limit=400
            )
        else:
            tail, _ = integrate.quad(base, omega + delta, np.inf, **quad_opts)
        total += unit * (inner + spike + tail)
    # even integrand: the half-axis doubles; 1/(2 pi) normalization
    return complex(total / np.pi)


class TestFockTruncation:
    def test_lowering_entries(self):
        ft = FockTruncation(6)
        sup = np.diag(ft.lowering, k=1)
        assert np.allclose(sup, np.sqrt(np.arange(1, 6)), atol=1e-15)
        assert np.count_nonzero(ft.lowering - np.diag(sup, k=1)) == 0

    def test_commutator_defect_confined_to_top_level(self):
        for cutoff in (4, 9):
            ft = FockTruncation(cutoff)
            comm = ft.lowering @ ft.raising - ft.raising @ ft.lowering
            defect = comm - np.eye(cutoff)
            interior = defect[: cutoff - 1, : cutoff - 1]
            assert np.max(np.abs(interior)) <= 1e-12
            assert defect[-1, -1] == pytest.approx(-cutoff, abs=1e-12)

    def test_hamiltonian_levels(self):
        ft = FockTruncation(5, omega=2.0)
        hamiltonian = 2.0 * (ft.raising @ ft.lowering + 0.5 * np.eye(5))
        expected = 2.0 * (np.arange(5) + 0.5)
        assert np.allclose(hamiltonian, np.diag(expected), atol=1e-12)

    def test_position_operator_hermitian_at_all_times(self):
        ft = FockTruncation(7, omega=0.8)
        for t in (0.0, 0.4, -1.3):
            q = ft.position_operator(t)
            assert np.max(np.abs(q - q.conj().T)) <= 1e-12

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            FockTruncation(1)
        with pytest.raises(ValueError):
            FockTruncation(5, omega=-1.0)


class TestTwoPoint:
    def test_equal_times_value(self):
        assert two_point(0.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert two_point(3.0, 3.0, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_half_period_flips_sign(self):
        val = two_point(np.pi, 0.0, 1.0)
        assert val.real == pytest.approx(-0.5, abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_depends_only_on_time_difference(self, rng):
        for _ in range(20):
            t1, t2, s = rng.normal(size=3)
            assert two_point(t1 + s, t2 + s, 1.7) == pytest.approx(
                two_point(t1, t2, 1.7), abs=1e-12
            )

    def test_symmetric_in_arguments(self, rng):
        for _ in range(10):
            t1, t2 = rng.normal(size=2)
            assert two_point(t1, t2, 0.9) == two_point(t2, t1, 0.9)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            two_point(0.0, 0.0, 0.0)

    def test_quadrature_route_agrees(self):
        # Independent contour-regulated integral for the causal kernel
        # i * D(t), accurate to the finite regulator.
        for t, omega in ((0.7, 1.0), (0.0, 1.0), (1.9, 0.5), (0.3, 2.0)):
            closed = 1j * two_point(t, 0.0, omega)
            integral = propagator_quadrature(t, 0.0, omega)
            assert abs(closed - integral) <= 1e-4


class TestWick:
    def test_matching_count(self):
        for n in (2, 4, 6, 8):
            count = len(perfect_matchings(tuple(range(n))))
            assert count == math.prod(range(n - 1, 0, -2))

    def test_odd_index_set_has_no_matching(self):
        with pytest.raises(ValueError, match="even number of indices"):
            perfect_matchings(range(3))

    def test_odd_order_vanishes(self):
        assert wick_green([0.3], 1.0) == 0.0
        assert wick_green([0.1, 0.5, 1.2], 1.0) == 0.0

    def test_second_order_reduces_to_two_point(self, rng):
        for _ in range(10):
            t1, t2 = rng.normal(size=2)
            assert wick_green([t1, t2], 1.3) == pytest.approx(
                two_point(t1, t2, 1.3), abs=1e-14
            )

    def test_equal_time_fourth_moment(self):
        # 3 pairings, each contributing (1/2 omega)^2.
        assert wick_green([0.0] * 4, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_permutation_invariance(self, rng):
        times = list(rng.normal(size=6))
        base = wick_green(times, 1.1)
        for _ in range(5):
            perm = list(rng.permutation(times))
            assert wick_green(perm, 1.1) == pytest.approx(base, abs=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            wick_green([0.0] * (MAX_WICK_ORDER + 2), 1.0)

    def test_empty_product_is_one(self):
        assert wick_green([], 1.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.integers(0, 5).flatmap(
            lambda k: st.lists(st.floats(-5.0, 5.0), min_size=2 * k, max_size=2 * k)
        ),
        omega=st.floats(0.05, 5.0),
    )
    def test_hafnian_matches_explicit_pairing_sum(self, times, omega):
        terms = [
            math.prod(two_point(times[i], times[j], omega) for i, j in matching)
            for matching in perfect_matchings(range(len(times)))
        ]
        # relative to the terms' scale: equal-modulus phases may cancel
        scale = sum(abs(term) for term in terms)
        assert abs(wick_green(times, omega) - sum(terms)) <= 1e-12 * scale

    def test_never_enumerates_matchings(self, rng):
        # the package holds no matching enumerator, so the cap's order, with
        # its 10395 pairings, is reached through the memoized hafnian alone
        times = list(rng.uniform(-5.0, 5.0, size=MAX_WICK_ORDER))
        value = wick_green(times, 0.7)
        assert abs(value - fock_oracle_green(times, 0.7)) <= 1e-8


class TestFockOracle:
    def test_empty_product_is_one(self):
        assert fock_oracle_green([], 1.0) == 1.0

    def test_matches_two_point(self, rng):
        for _ in range(25):
            t1, t2 = rng.normal(size=2)
            lhs = fock_oracle_green([t1, t2], 1.0)
            assert abs(lhs - two_point(t1, t2, 1.0)) <= 1e-10

    def test_matches_wick_at_higher_order(self, rng):
        for n in (4, 6):
            for omega in (0.5, 1.0, 2.0):
                times = list(rng.normal(size=n))
                lhs = fock_oracle_green(times, omega)
                rhs = wick_green(times, omega)
                assert abs(lhs - rhs) <= 1e-8

    def test_truncation_keeping_level_n_over_2_is_exact(self, rng):
        # a vacuum-to-vacuum path of n position steps never climbs above
        # level n/2, so every truncation that keeps it gives the oracle's
        # value up to rounding, and one that drops it (an even n of at
        # least 4) loses the paths that reach it
        omega = 0.7

        def vacuum_entry(times, cutoff):
            fock = FockTruncation(cutoff, omega)
            product = np.eye(cutoff, dtype=np.complex128)
            for t in times:
                product = product @ fock.position_operator(t)
            return product[0, 0]

        for n in range(MAX_WICK_ORDER + 1):
            times = sorted(rng.uniform(-5.0, 5.0, size=n), reverse=True)
            expected = fock_oracle_green(times, omega)
            terms = math.prod(range(n - 1, 0, -2)) * (2.0 * omega) ** (-n / 2)
            for cutoff in range(max(2, n // 2 + 1), n + 21):
                assert abs(vacuum_entry(times, cutoff) - expected) <= 1e-14 * terms
            if n % 2 == 0 and n >= 4:
                assert abs(vacuum_entry(times, n // 2) - expected) > 1e-3 * terms


class TestGroundProjectorLimit:
    def test_deviation_is_exactly_the_exponential(self):
        for r in (1.0, 2.5, 10.0):
            _, deviation = ground_projector_limit(r, cutoff=12)
            assert deviation == math.exp(-r)  # bit-for-bit

    def test_zero_damping_is_identity_scale(self):
        matrix, deviation = ground_projector_limit(0.0, cutoff=6)
        assert deviation == 1.0
        assert np.allclose(np.diag(matrix), np.ones(6), atol=1e-15)

    def test_matrix_converges_to_rank_one_projector(self):
        matrix, _ = ground_projector_limit(30.0, cutoff=8)
        target = np.zeros((8, 8))
        target[0, 0] = 1.0
        assert np.max(np.abs(matrix - target)) <= 1e-12

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            ground_projector_limit(-1.0, cutoff=5)

    @pytest.mark.parametrize("cutoff", [1, 0, -3])
    def test_cutoff_below_two_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be at least 2"):
            ground_projector_limit(1.0, cutoff)
        with pytest.raises(ValueError, match="cutoff must be at least 2"):
            hamiltonian_sandwich_residual(1.0, 1.0, cutoff)

    def test_sandwich_residual_decays(self):
        residuals = [
            hamiltonian_sandwich_residual(r, omega=1.0, cutoff=14)
            for r in (1.0, 3.0, 6.0)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-2


class TestDampedLadder:
    def test_trace_functional_decay_rate(self):
        # For the k = l = 1 word the bound e^(-r1-r2) is met with a
        # cutoff-dependent constant; doubling r multiplies the value by
        # e^(-2) up to that constant.
        tr = StateFunctional.tracial(AlgebraDescriptor(10))
        values = {
            r: damped_ladder_magnitude(1, 1, r, r, tr) for r in (2.0, 4.0, 8.0)
        }
        for r, v in values.items():
            assert v <= math.exp(-2 * r)
        assert values[4.0] / values[2.0] == pytest.approx(math.exp(-4), rel=0.1)
        assert values[8.0] / values[4.0] == pytest.approx(math.exp(-8), rel=0.1)

    def test_off_diagonal_word_has_zero_trace(self):
        tr = StateFunctional.tracial(AlgebraDescriptor(8))
        assert damped_ladder_magnitude(1, 0, 3.0, 3.0, tr) == 0.0

    def test_spread_state_sees_off_diagonal_word(self):
        vec = np.ones(8) / np.sqrt(8)
        f = StateFunctional.from_vector(vec, AlgebraDescriptor(8))
        m = damped_ladder_magnitude(1, 0, 2.0, 2.0, f)
        assert 0.0 < m <= math.exp(-2.0)

    def test_empty_word_rejected(self):
        tr = StateFunctional.tracial(AlgebraDescriptor(6))
        with pytest.raises(ValueError):
            damped_ladder_magnitude(0, 0, 1.0, 1.0, tr)

    @pytest.mark.parametrize("k, l", [(-1, 1), (1, -1)])
    def test_negative_power_rejected(self, k, l):
        tr = StateFunctional.tracial(AlgebraDescriptor(6))
        with pytest.raises(ValueError, match="ladder powers must be nonnegative"):
            damped_ladder_magnitude(k, l, 1.0, 1.0, tr)

    @pytest.mark.parametrize(
        "blocks, k, l", [((2, 2), 1, 0), ((1, 1, 1, 1), 1, 1)], ids=["blocks", "diagonal"]
    )
    def test_functional_of_a_block_algebra_rejected(self, blocks, k, l):
        # right size, wrong algebra: the word is not an element of it
        tr = StateFunctional.tracial(AlgebraDescriptor(4, blocks))
        with pytest.raises(ValueError, match="functional belongs to a different algebra"):
            damped_ladder_magnitude(k, l, 1.0, 1.0, tr)


class TestTimeGrid:
    def test_nodes_and_weights(self):
        g = TimeGrid(-2.0, 2.0, 9)
        nodes = g.nodes()
        assert len(nodes) == 9
        assert nodes[0] == -2.0 and nodes[-1] == 2.0
        w = g.trapezoid_weights()
        assert w.sum() == pytest.approx(4.0, abs=1e-14)
        assert w[0] == pytest.approx(g.dt / 2)
        assert w[4] == pytest.approx(g.dt)

    def test_node_lookup(self):
        g = TimeGrid(-2.0, 2.0, 9)
        assert g.node_index(0.0) == 4
        with pytest.raises(ValueError):
            g.node_index(0.3)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 1.0, 1)


class TestSourceFunction:
    def test_from_callable_samples_nodes(self):
        g = TimeGrid(0.0, 1.0, 5)
        src = SourceFunction.from_callable(lambda t: 2.0 * t, g)
        assert np.allclose(src.samples, 2.0 * g.nodes(), atol=1e-15)

    def test_sample_count_must_match(self):
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SourceFunction(g, np.zeros(4))


class TestGeneratingFunctional:
    def test_zero_source_gives_unity(self):
        g = TimeGrid(-1.0, 1.0, 51)
        z = generating_functional(SourceFunction.from_callable(lambda t: 0.0, g), 1.0)
        assert z == 1.0

    def test_coarse_grid_warns(self):
        g = TimeGrid(-1.0, 1.0, 3)
        src = SourceFunction.from_callable(lambda t: np.exp(-t * t), g)
        with pytest.warns(CoarseGridWarning):
            generating_functional(src, 1.0)

    def test_quadratic_scaling_of_exponent(self):
        g = TimeGrid(-2.0, 2.0, 201)
        src1 = SourceFunction.from_callable(lambda t: 0.3 * np.exp(-t * t), g)
        src2 = SourceFunction.from_callable(lambda t: 0.6 * np.exp(-t * t), g)
        z1 = generating_functional(src1, 1.0)
        z2 = generating_functional(src2, 1.0)
        assert np.log(z2) == pytest.approx(4.0 * np.log(z1), abs=1e-10)

    def test_twin_spike_identity_is_exact(self):
        # Two unit-weight spikes at 0 and t12: the log of the generating
        # functional equals -(D(0) + D(t12)) exactly at any grid step,
        # because the trapezoid sum collapses onto the two nodes.
        omega, t12 = 1.3, 0.75
        oracle = -(two_point(0.0, 0.0, omega) + two_point(t12, 0.0, omega))
        for steps in (33, 129):
            g = TimeGrid(-2.0, 2.0, steps)
            w = g.trapezoid_weights()
            samples = np.zeros(steps)
            for t in (0.0, t12):
                k = g.node_index(t)
                samples[k] = 1.0 / w[k]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CoarseGridWarning)
                z = generating_functional(SourceFunction(g, samples), omega)
            assert abs(np.log(z) - oracle) <= 1e-13

    def test_narrow_bump_refinement_approaches_spike_limit(self):
        omega, t12 = 1.3, 0.75
        oracle = -(two_point(0.0, 0.0, omega) + two_point(t12, 0.0, omega))
        errors = []
        for width, steps in ((0.2, 401), (0.1, 801), (0.05, 1601)):
            g = TimeGrid(-4.0, 4.0, steps)

            def bumps(t, width=width):
                norm = width * np.sqrt(2 * np.pi)
                return (
                    np.exp(-0.5 * (t / width) ** 2)
                    + np.exp(-0.5 * ((t - t12) / width) ** 2)
                ) / norm

            z = generating_functional(SourceFunction.from_callable(bumps, g), omega)
            errors.append(abs(np.log(z) - oracle))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.03


class TestFunctionalDerivative:
    def test_zeroth_order_is_unity(self):
        g = TimeGrid(-3.0, 3.0, 61)
        assert functional_derivative_green(g, [], 1.0) == 1.0

    def test_first_order_vanishes_identically(self):
        g = TimeGrid(-3.0, 3.0, 61)
        assert functional_derivative_green(g, [0.0], 1.0) == 0.0

    def test_second_order_matches_propagator(self):
        g = TimeGrid(-3.0, 3.0, 61)
        for t in (0.0, 0.5):
            fd = functional_derivative_green(g, [t, 0.0], 1.0)
            assert abs(fd - two_point(t, 0.0, 1.0)) <= 1e-3

    def test_halving_step_quarters_error(self):
        g = TimeGrid(-3.0, 3.0, 61)
        exact = two_point(0.0, 0.0, 1.0)
        err_h = abs(functional_derivative_green(g, [0.0, 0.0], 1.0, h=1e-3) - exact)
        err_h2 = abs(
            functional_derivative_green(g, [0.0, 0.0], 1.0, h=5e-4) - exact
        )
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.15)

    def test_off_grid_time_rejected(self):
        g = TimeGrid(-3.0, 3.0, 61)
        with pytest.raises(ValueError):
            functional_derivative_green(g, [0.05, 0.0], 1.0)

    def test_sub_kernel_matches_full_grid_functional(self, rng):
        # reference: one full-grid generating functional per sign pattern
        g = TimeGrid(-1.0, 1.0, 21)
        w = g.trapezoid_weights()
        omega, h = 1.3, 5e-2
        for n in (1, 2, 3, 4):
            times = list(rng.choice(g.nodes(), size=n))
            total = 0.0 + 0.0j
            for signs in itertools.product((1.0, -1.0), repeat=n):
                samples = np.zeros(g.steps)
                for sign, t in zip(signs, times):
                    samples[g.node_index(t)] += sign * h / w[g.node_index(t)]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CoarseGridWarning)
                    z = generating_functional(SourceFunction(g, samples), omega)
                total += math.prod(signs) * z
            reference = total / (2.0 * h) ** n * (1.0 / 1j) ** n
            # 2^n unit-size terms summed in another order, divided by (2h)^n
            tolerance = 8 * 2**n * np.finfo(float).eps / (2.0 * h) ** n
            fd = functional_derivative_green(g, times, omega, h=h)
            assert abs(fd - reference) <= tolerance

    def test_fourth_order_equal_times(self):
        g = TimeGrid(-3.0, 3.0, 61)
        fd = functional_derivative_green(g, [0.0] * 4, 1.0, h=2e-2)
        assert abs(fd - 0.75) <= 1e-2


class TestNonFiniteInputRejected:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: two_point(0.0, 1.0, math.nan),
            lambda: wick_green([0.0, 1.0], math.nan),
            lambda: wick_green([0.0, 1.0], math.inf),
            lambda: fock_oracle_green([0.0, 1.0], math.nan),
            lambda: wick_green([0.0, math.nan], 1.0),
            lambda: fock_oracle_green([0.0, math.nan], 1.0),
            lambda: functional_derivative_green(TimeGrid(0.0, 1.0, 11), [0.5, 0.5], math.nan),
            lambda: TimeGrid(0.0, math.inf, 10),
            lambda: ground_projector_limit(math.nan, 4),
        ],
        ids=[
            "two-point-nan-omega",
            "wick-nan-omega",
            "wick-inf-omega",
            "fock-nan-omega",
            "wick-nan-time",
            "fock-nan-time",
            "derivative-nan-omega",
            "grid-inf-bound",
            "projector-nan-damping",
        ],
    )
    def test_raises(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hamiltonian_sandwich_residual(math.nan, 1.0, 4),
            lambda: hamiltonian_sandwich_residual(math.inf, 1.0, 4),
            lambda: SourceFunction(TimeGrid(0.0, 1.0, 11), [math.nan] + [0.0] * 10),
            lambda: generating_functional(
                SourceFunction(TimeGrid(0.0, 1.0, 11), [0.0] * 10 + [math.inf]), 1.0
            ),
        ],
        ids=[
            "sandwich-nan-damping",
            "sandwich-inf-damping",
            "source-nan-sample",
            "source-inf-sample",
        ],
    )
    def test_damping_and_source_samples_must_be_finite(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    @pytest.mark.parametrize("damping", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r1", "r2"])
    def test_ladder_damping_must_be_finite(self, name, damping):
        rates = {"r1": 0.5, "r2": 0.5, name: damping}
        tracial = StateFunctional.tracial(AlgebraDescriptor(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                damped_ladder_magnitude(1, 1, rates["r1"], rates["r2"], tracial)
