import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, adjoint
from contextqm.ensembles import QuantumState, linearity_residual, quantum_average_exact
from contextqm import gns
from contextqm.gns import (
    RANK_CUTOFF,
    STACK_BYTES,
    StateFunctional,
    build_gns,
    class_equality_check,
    compression_identity_check,
    matrix_units,
    pure_state_trials,
    seminorm_ideal,
    vacuum_expectation,
    verify_gns,
)
from conftest import random_element, random_unit_vector


def _unit_element(row, col, algebra):
    m = np.zeros((algebra.dimension, algebra.dimension), dtype=complex)
    m[row, col] = 1.0
    return AlgebraElement(m, algebra)


class TestStateFunctional:
    def test_unit_on_identity(self, rng):
        for n in (2, 4):
            alg = AlgebraDescriptor(n)
            f = StateFunctional.from_vector(random_unit_vector(n, rng), alg)
            assert f.value(AlgebraElement.identity(alg)) == pytest.approx(
                1.0, abs=1e-12
            )
            t = StateFunctional.tracial(alg)
            assert t.value(AlgebraElement.identity(alg)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_non_unit_vector_normalized_zero_rejected(self):
        alg = AlgebraDescriptor(2)
        f = StateFunctional.from_vector(np.array([3.0, 0.0]), alg)
        assert f.value(AlgebraElement.identity(alg)) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError):
            StateFunctional.from_vector(np.zeros(2), alg)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(3) / 3, "shape does not match the algebra"),
            ([[0.5, 0.5], [0.0, 0.5]], "must be Hermitian"),
            ([[0.5, 0.0], [0.0, 0.25]], r"not normalized: Psi\(I\) != 1"),
        ],
        ids=["shape", "non-hermitian", "trace"],
    )
    def test_matrix_refused(self, rho, message):
        with pytest.raises(ValueError, match=message):
            StateFunctional(rho, AlgebraDescriptor(2))

    def test_linearity(self, rng):
        alg = AlgebraDescriptor(3)
        f = StateFunctional.from_vector(random_unit_vector(3, rng), alg)
        a, b = random_element(3, rng), random_element(3, rng)
        lhs = f.value(2.0 * a + (1.0 - 0.5j) * b)
        rhs = 2.0 * f.value(a) + (1.0 - 0.5j) * f.value(b)
        assert abs(lhs - rhs) <= 1e-12

    def test_positivity(self, rng):
        alg = AlgebraDescriptor(3)
        psi = QuantumState(random_unit_vector(3, rng), alg)
        f = StateFunctional.from_vector(psi.vector, psi.algebra)
        for _ in range(20):
            a = random_element(3, rng)
            assert np.real(f.value(adjoint(a) @ a)) >= -1e-12


class TestAlgebraOfTheElement:
    """An element of another algebra is refused, before any arithmetic, by
    every entry point that pairs it with a state or a functional."""

    BLOCKS = AlgebraDescriptor(3, (1, 2))

    @pytest.fixture(
        params=[
            AlgebraElement.from_diagonal([0.0, 1.0, 2.0], AlgebraDescriptor(3)),
            AlgebraElement.identity(AlgebraDescriptor(2)),
        ],
        ids=["same-dimension", "other-dimension"],
    )
    def element(self, request):
        return request.param

    @pytest.fixture
    def psi(self):
        return QuantumState([0, 0, 1], self.BLOCKS)

    def test_expectation(self, psi, element):
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            psi.expectation(element)

    def test_quantum_average_exact(self, psi, element):
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            quantum_average_exact(psi, element)

    def test_linearity_residual(self, psi, element):
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            linearity_residual(psi, element, element)

    def test_functional_value(self, psi, element):
        functional = StateFunctional.from_vector(psi.vector, self.BLOCKS)
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            functional.value(element)

    def test_compression_identity_check_draws_nothing_first(self, psi, element):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            compression_identity_check(psi, element, rng)
        assert rng.bit_generator.state == state


class TestGramMatrix:
    def test_gram_matches_direct_functional_values(self, rng):
        # The closed-form construction must agree with brute force.
        for alg in (AlgebraDescriptor(3), AlgebraDescriptor(4, (2, 2))):
            f = StateFunctional.from_vector(
                random_unit_vector(alg.dimension, rng), alg
            )
            space = build_gns(f)
            units = matrix_units(alg)
            for i, (r1, c1) in enumerate(units):
                ei = _unit_element(r1, c1, alg)
                for j, (r2, c2) in enumerate(units):
                    ej = _unit_element(r2, c2, alg)
                    direct = f.value(adjoint(ei) @ ej)
                    assert abs(space.gram[i, j] - direct) <= 1e-12

    def test_gram_positive_semidefinite(self, rng):
        alg = AlgebraDescriptor(4)
        f = StateFunctional.from_vector(random_unit_vector(4, rng), alg)
        space = build_gns(f)
        eigs = np.linalg.eigvalsh(space.gram)
        assert eigs.min() >= -1e-12


def _mixed_functional(sizes, vectors, blind, seed):
    """A mixed, generally rank-deficient functional on a block algebra.

    rho = V V* / trace with ``vectors`` random columns; when ``blind``
    names a block (and there are others), V is zeroed on its rows.
    """
    alg = AlgebraDescriptor(sum(sizes), tuple(sizes))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(alg.dimension, vectors)) + 1j * rng.normal(
        size=(alg.dimension, vectors)
    )
    if len(sizes) > 1 and blind < len(sizes):
        v[alg.block_slices()[blind]] = 0.0
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return StateFunctional(rho / np.trace(rho).real, alg), rng


def _gram_oracle_rank(f):
    """Rank of the Gram form built from ``f.value`` on the matrix units."""
    units = [_unit_element(r, c, f.algebra) for r, c in matrix_units(f.algebra)]
    gram = np.array([[f.value(adjoint(ei) @ ej) for ej in units] for ei in units])
    eigs = np.linalg.eigvalsh(gram)
    return int(np.sum(eigs > RANK_CUTOFF * max(eigs[-1], 0.0)))


class TestClosedFormAgainstGramOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        vectors=st.integers(1, 4),
        blind=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_and_scalar_product_match_brute_force(
        self, sizes, vectors, blind, seed
    ):
        f, rng = _mixed_functional(sizes, vectors, blind, seed)
        alg = f.algebra
        space = build_gns(f)
        assert space.rank == _gram_oracle_rank(f)
        for _ in range(5):
            r = random_element(alg.dimension, rng, alg)
            s = random_element(alg.dimension, rng, alg)
            lhs = np.vdot(space.class_vector(r), space.class_vector(s))
            assert abs(lhs - f.value(adjoint(r) @ s)) <= 1e-10
            # Pi(S) acts on the class of R as the class of S R
            moved = space.represent(s) @ space.class_vector(r)
            assert np.max(np.abs(moved - space.class_vector(s @ r))) <= 1e-10
            assert abs(vacuum_expectation(space, s) - f.value(s)) <= 1e-10

    def test_rank_cutoff_near_threshold_matches_gram_oracle(self):
        # 1e-8 sits above the relative cutoff and is kept; 1e-12 sits
        # below it and is dropped, in both the closed form and the oracle.
        alg = AlgebraDescriptor(3)
        f = StateFunctional(np.diag([1.0 - 1e-8 - 1e-12, 1e-8, 1e-12]), alg)
        assert build_gns(f).rank == _gram_oracle_rank(f) == 6

    @pytest.mark.parametrize(
        "sizes, kind", [((4,), "pure"), ((4,), "tracial"), ((3, 2, 1), "mixed")]
    )
    def test_eigensolves_never_exceed_largest_block(self, sizes, kind, eigensolves):
        # The functional eigensolves each diagonal block of rho exactly once,
        # for positivity and its spectral factors; build_gns only reads them.
        alg = AlgebraDescriptor(sum(sizes), sizes)
        if kind == "pure":
            f = StateFunctional.from_vector(np.arange(1.0, 5.0), alg)
        elif kind == "tracial":
            f = StateFunctional.tracial(alg)
        else:
            f, _ = _mixed_functional(list(sizes), 6, 9, 3)
        assert eigensolves == [(b, b) for b in sizes]
        assert max(shape[-1] for shape in eigensolves) <= max(sizes)
        del eigensolves[:]
        space = build_gns(f)
        assert eigensolves == []
        expected = alg.dimension if kind == "pure" else sum(b * b for b in sizes)
        assert space.rank == expected


class TestPositivityOnTheAlgebra:
    def test_positive_block_functional_with_indefinite_rho_accepted(self):
        # a -> (a11 + a22) / 2 on the diagonal algebra: rho itself has the
        # eigenvalue -0.5, but the functional only sees its diagonal blocks
        alg = AlgebraDescriptor(2, (1, 1))
        f = StateFunctional([[0.5, 1.0], [1.0, 0.5]], alg)
        assert build_gns(f).rank == 2 == _gram_oracle_rank(f)
        a = AlgebraElement.from_diagonal([3.0, -1.0], alg)
        assert f.value(a) == 1.0
        # Hermiticity is judged on the blocks too: the off-block entries of
        # rho are invisible to the functional
        g = StateFunctional([[0.5, 1.0], [0.0, 0.5]], alg)
        assert build_gns(g).rank == 2 and g.value(a) == 1.0

    def test_negative_block_rejected(self):
        alg = AlgebraDescriptor(2, (1, 1))
        with pytest.raises(ValueError, match="not positive"):
            StateFunctional([[1.5, 0.0], [0.0, -0.5]], alg)

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (2, 2), (3, 2, 1)])
    def test_rho_and_its_block_projection_agree(self, sizes, rng):
        alg = AlgebraDescriptor(sum(sizes), sizes)
        n = alg.dimension
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        rho = v @ v.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        whole = StateFunctional(rho, alg)
        projected = StateFunctional(rho * alg.block_mask(), alg)
        for _ in range(10):
            a = random_element(n, rng, alg)
            assert whole.value(a) == projected.value(a)
        rank = build_gns(whole).rank
        assert rank == build_gns(projected).rank == _gram_oracle_rank(projected)


class TestNonFiniteInputRejected:
    @pytest.mark.parametrize(
        "build",
        [
            lambda alg: StateFunctional([[np.nan, 0.0], [0.0, 1.0]], alg),
            lambda alg: StateFunctional([[np.inf, 0.0], [0.0, 1.0]], alg),
            lambda alg: StateFunctional.from_vector([np.nan, 1.0], alg),
            lambda alg: StateFunctional.from_vector([np.inf, 1.0], alg),
            lambda alg: QuantumState([np.nan, 1.0], alg),
            lambda alg: QuantumState([np.inf, 0.0], alg),
        ],
        ids=[
            "functional-nan",
            "functional-inf",
            "vector-nan",
            "vector-inf",
            "state-nan",
            "state-inf",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="NaN or infinite"):
            build(AlgebraDescriptor(2))


class TestRanks:
    def test_pure_state_rank_is_dimension(self, rng):
        for n in (2, 3, 5):
            alg = AlgebraDescriptor(n)
            f = StateFunctional.from_vector(random_unit_vector(n, rng), alg)
            assert build_gns(f).rank == n

    def test_tracial_rank_is_dimension_squared(self):
        for n in (2, 3, 4):
            alg = AlgebraDescriptor(n)
            assert build_gns(StateFunctional.tracial(alg)).rank == n * n

    def test_blind_block_collapses(self):
        # A functional living on the first block only: the second block
        # contributes nothing to the representation space.
        alg = AlgebraDescriptor(3, (2, 1))
        f = StateFunctional.from_vector(np.array([1.0, 0.0, 0.0]), alg)
        space = build_gns(f)
        assert space.rank == 2
        dead_unit = _unit_element(2, 2, alg)
        assert np.max(np.abs(space.class_vector(dead_unit))) <= 1e-10


class TestRepresentation:
    def test_identity_represents_as_identity(self, rng):
        alg = AlgebraDescriptor(3)
        f = StateFunctional.from_vector(random_unit_vector(3, rng), alg)
        space = build_gns(f)
        rep = space.represent(AlgebraElement.identity(alg))
        assert np.max(np.abs(rep - np.eye(space.rank))) <= 1e-10

    def test_homomorphism_and_adjoint(self, rng):
        for f_kind in ("pure", "tracial"):
            alg = AlgebraDescriptor(3)
            if f_kind == "pure":
                f = StateFunctional.from_vector(random_unit_vector(3, rng), alg)
            else:
                f = StateFunctional.tracial(alg)
            space = build_gns(f)
            for _ in range(10):
                a, b = random_element(3, rng), random_element(3, rng)
                ra, rb = space.represent(a), space.represent(b)
                rab = space.represent(a @ b)
                assert np.max(np.abs(ra @ rb - rab)) <= 1e-10
                rad = space.represent(adjoint(a))
                assert np.max(np.abs(rad - ra.conj().T)) <= 1e-10

    def test_action_on_classes(self, rng):
        # Pi(S) applied to the class of R is the class of S R.
        alg = AlgebraDescriptor(3)
        f = StateFunctional.from_vector(random_unit_vector(3, rng), alg)
        space = build_gns(f)
        for _ in range(10):
            s, r = random_element(3, rng), random_element(3, rng)
            lhs = space.represent(s) @ space.class_vector(r)
            rhs = space.class_vector(s @ r)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_scalar_product_reproduces_functional(self, rng):
        for alg in (AlgebraDescriptor(2), AlgebraDescriptor(4, (3, 1))):
            f = StateFunctional.from_vector(
                random_unit_vector(alg.dimension, rng), alg
            )
            space = build_gns(f)
            for _ in range(10):
                a = random_element(alg.dimension, rng, alg)
                b = random_element(alg.dimension, rng, alg)
                lhs = np.vdot(space.class_vector(a), space.class_vector(b))
                rhs = f.value(adjoint(a) @ b)
                assert abs(lhs - rhs) <= 1e-10

    def test_null_class_elements_map_to_zero(self, rng):
        # For a pure functional on e0, anything annihilating e0 is null.
        alg = AlgebraDescriptor(3)
        f = StateFunctional.from_vector(np.array([1.0, 0.0, 0.0]), alg)
        space = build_gns(f)
        killer = np.zeros((3, 3), dtype=complex)
        killer[:, 1] = rng.normal(size=3)
        killer[:, 2] = rng.normal(size=3)
        r = AlgebraElement(killer, alg)
        assert np.max(np.abs(space.class_vector(r))) <= 1e-10

    def test_cyclic_vector_is_class_of_identity(self, rng):
        alg = AlgebraDescriptor(3)
        f = StateFunctional.tracial(alg)
        space = build_gns(f)
        lhs = space.cyclic_vector()
        rhs = space.class_vector(AlgebraElement.identity(alg))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_foreign_elements_rejected(self):
        # the off-block entries of a full-algebra element have no class in
        # the GNS space of a block algebra
        space = build_gns(StateFunctional.tracial(AlgebraDescriptor(3, (2, 1))))
        foreign = AlgebraElement(np.ones((3, 3)), AlgebraDescriptor(3))
        with pytest.raises(ValueError):
            space.class_vector(foreign)
        with pytest.raises(ValueError):
            space.represent(foreign)


class TestVacuumExpectation:
    def test_reproduces_functional_on_randoms(self, rng):
        alg = AlgebraDescriptor(4)
        f = StateFunctional.from_vector(random_unit_vector(4, rng), alg)
        space = build_gns(f)
        for _ in range(30):
            a = random_element(4, rng)
            assert abs(vacuum_expectation(space, a) - f.value(a)) <= 1e-10

    def test_tracial_expectation_is_normalized_trace(self, rng):
        alg = AlgebraDescriptor(3)
        space = build_gns(StateFunctional.tracial(alg))
        a = random_element(3, rng)
        assert abs(vacuum_expectation(space, a) - a.trace() / 3) <= 1e-12


class TestStateVectorBridge:
    def test_compression_identity(self, rng):
        alg = AlgebraDescriptor(3)
        for _ in range(10):
            psi = QuantumState(random_unit_vector(3, rng), alg)
            a = random_element(3, rng)
            assert compression_identity_check(psi, a, rng=rng) <= 1e-10

    def test_compression_identity_on_a_block_algebra(self, rng):
        # the random elements are drawn in the blocks, like the state's projector
        alg = AlgebraDescriptor(3, (1, 2))
        psi = QuantumState(np.array([0.0, 0.6, 0.8]), alg)
        for _ in range(5):
            a = random_element(3, rng, alg)
            assert compression_identity_check(psi, a, rng=rng) <= 1e-14

    def test_class_equality_for_state_projector(self, rng):
        alg = AlgebraDescriptor(3)
        vec = random_unit_vector(3, rng)
        psi = QuantumState(vec, alg)
        space = build_gns(StateFunctional.from_vector(psi.vector, psi.algebra))
        assert class_equality_check(space, psi.projector)

    def test_class_equality_fails_for_orthogonal_projector(self):
        alg = AlgebraDescriptor(3)
        psi = QuantumState(np.array([1.0, 0.0, 0.0]), alg)
        space = build_gns(StateFunctional.from_vector(psi.vector, psi.algebra))
        q = AlgebraElement.from_diagonal([0.0, 1.0, 0.0], alg)
        assert not class_equality_check(space, q)

    def test_identity_class_always_equal(self, rng):
        alg = AlgebraDescriptor(2)
        psi = QuantumState(random_unit_vector(2, rng), alg)
        space = build_gns(StateFunctional.from_vector(psi.vector, psi.algebra))
        assert class_equality_check(space, AlgebraElement.identity(alg))


class TestSeminormIdeal:
    def test_faithful_family_has_trivial_ideal(self):
        alg = AlgebraDescriptor(3)
        out = seminorm_ideal(alg, [StateFunctional.tracial(alg)])
        assert out["ideal_dimension"] == 0
        assert out["quotient_dimension"] == 9

    def test_blind_family_leaves_dead_block(self):
        # Vector states spanning the first block see all of it, but any
        # element supported on the unseen 1x1 block stays invisible.
        alg = AlgebraDescriptor(3, (2, 1))
        f1 = StateFunctional.from_vector(np.array([1.0, 0.0, 0.0]), alg)
        f2 = StateFunctional.from_vector(np.array([0.0, 1.0, 0.0]), alg)
        out = seminorm_ideal(alg, [f1, f2])
        assert out["ideal_dimension"] == 1
        assert out["quotient_dimension"] == 4

    def test_single_pure_state_null_space_is_left_ideal(self):
        # One vector state annihilates everything that kills its vector:
        # the full column complement plus the dead block.
        alg = AlgebraDescriptor(3, (2, 1))
        f1 = StateFunctional.from_vector(np.array([1.0, 0.0, 0.0]), alg)
        assert seminorm_ideal(alg, [f1])["ideal_dimension"] == 3

    def test_family_union_shrinks_ideal(self):
        alg = AlgebraDescriptor(3, (2, 1))
        f1 = StateFunctional.from_vector(np.array([1.0, 0.0, 0.0]), alg)
        f2 = StateFunctional.from_vector(np.array([0.0, 1.0, 0.0]), alg)
        f3 = StateFunctional.from_vector(np.array([0.0, 0.0, 1.0]), alg)
        assert seminorm_ideal(alg, [f1])["ideal_dimension"] == 3
        assert seminorm_ideal(alg, [f1, f2])["ideal_dimension"] == 1
        assert seminorm_ideal(alg, [f1, f2, f3])["ideal_dimension"] == 0

    def test_basis_is_null_for_every_member(self):
        alg = AlgebraDescriptor(5, (3, 2))
        f1 = StateFunctional.from_vector(np.array([1.0, 1j, 0.0, 0.0, 0.0]), alg)
        f2, _ = _mixed_functional([3, 2], 2, 0, 11)
        f3 = StateFunctional.from_vector(np.array([0.0, 0.0, 1.0, 2.0, 0.0]), alg)
        for family in ([f1], [f2], [f1, f3], [f1, f2, f3]):
            out = seminorm_ideal(alg, family)
            basis = out["basis"]
            assert len(basis) == out["ideal_dimension"] > 0
            for r in basis:
                for f in family:
                    assert abs(f.value(adjoint(r) @ r)) <= 1e-12
            # linearly independent: a basis, not just a spanning list
            stacked = np.array([r.matrix.reshape(-1) for r in basis])
            assert np.linalg.matrix_rank(stacked) == len(basis)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            seminorm_ideal(AlgebraDescriptor(2), [])


class TestVerify:
    def test_residual_summary_under_threshold(self, rng):
        for alg in (AlgebraDescriptor(3), AlgebraDescriptor(5, (2, 3))):
            f = StateFunctional.from_vector(
                random_unit_vector(alg.dimension, rng), alg
            )
            space = build_gns(f)
            report = verify_gns(space, 25, rng)
            for key in (
                "scalar_product_residual",
                "homomorphism_residual",
                "adjoint_residual",
                "expectation_residual",
            ):
                assert report[key] <= 1e-10
            assert report["samples"] == 25


def _per_sample_verify(space, samples, rng):
    """The sample-by-sample route through ``AlgebraElement`` pairs.

    Kept as the oracle of ``verify_gns``: it is the loop ``verify_gns`` ran
    before the samples were stacked, so their reports must be equal.
    """
    n = space.algebra.dimension

    def random_element():
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if not space.algebra.is_full:
            raw = raw * space.algebra.block_mask()
        return AlgebraElement(raw, space.algebra)

    scalar_residual = 0.0
    homomorphism_residual = 0.0
    adjoint_residual = 0.0
    expectation_residual = 0.0
    for _ in range(samples):
        r, s = random_element(), random_element()
        scalar_residual = max(
            scalar_residual,
            abs(
                np.vdot(space.class_vector(r), space.class_vector(s))
                - space.functional.value(r.adjoint() * s)
            ),
        )
        pi_r, pi_s = space.represent(r), space.represent(s)
        homomorphism_residual = max(
            homomorphism_residual,
            float(np.abs(pi_r @ pi_s - space.represent(r * s)).max(initial=0.0)),
        )
        adjoint_residual = max(
            adjoint_residual,
            float(
                np.abs(space.represent(r.adjoint()) - pi_r.conj().T).max(initial=0.0)
            ),
        )
        expectation_residual = max(
            expectation_residual,
            abs(vacuum_expectation(space, s) - space.functional.value(s)),
        )
    return {
        "rank": space.rank,
        "samples": samples,
        "scalar_product_residual": scalar_residual,
        "homomorphism_residual": homomorphism_residual,
        "adjoint_residual": adjoint_residual,
        "expectation_residual": expectation_residual,
    }


class TestStackedVerify:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_per_sample_loop(self, n):
        for algebra in (AlgebraDescriptor(n), AlgebraDescriptor(n, (1, n - 1))):
            for seed in range(8):
                vector = random_unit_vector(n, np.random.default_rng(100 + seed))
                for functional in (
                    StateFunctional.tracial(algebra),
                    StateFunctional.from_vector(vector, algebra),
                ):
                    space = build_gns(functional)
                    for samples in (0, 1, 20):
                        oracle_rng = np.random.default_rng(seed)
                        batch_rng = np.random.default_rng(seed)
                        oracle = _per_sample_verify(space, samples, oracle_rng)
                        assert verify_gns(space, samples, batch_rng) == oracle
                        # the same draws were consumed
                        assert batch_rng.normal() == oracle_rng.normal()

    def test_more_samples_than_one_chunk(self):
        space = build_gns(StateFunctional.tracial(AlgebraDescriptor(4, (3, 1))))
        samples = gns._batch_size(1, space.rank) + 3
        oracle_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
        oracle = _per_sample_verify(space, samples, oracle_rng)
        assert verify_gns(space, samples, batch_rng) == oracle
        assert batch_rng.normal() == oracle_rng.normal()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_per_sample_loop_at_the_batch_boundary(self, n):
        # b samples fill one batch exactly and b + 1 start a second
        for algebra in (AlgebraDescriptor(n), AlgebraDescriptor(n, (1, n - 1))):
            space = build_gns(StateFunctional.tracial(algebra))
            b = gns._batch_size(1, space.rank)
            for samples in (b, b + 1):
                oracle_rng, batch_rng = np.random.default_rng(n), np.random.default_rng(n)
                oracle = _per_sample_verify(space, samples, oracle_rng)
                assert verify_gns(space, samples, batch_rng) == oracle
                assert batch_rng.normal() == oracle_rng.normal()

    def test_represents_no_element_one_by_one(self, monkeypatch):
        space = build_gns(StateFunctional.tracial(AlgebraDescriptor(3)))

        def refuse(self, element):
            raise AssertionError("represent called per element")

        monkeypatch.setattr(gns.GnsSpace, "represent", refuse)
        assert verify_gns(space, 20, np.random.default_rng(0))["samples"] == 20


def _per_trial_loop(algebra, trials, rng):
    """The trial-by-trial route through the public GNS functions.

    Kept as the oracle of ``pure_state_trials``: it is the loop ``gns-check``
    ran before the trials were stacked, so their residuals must be equal.
    """
    dimension = algebra.dimension
    expectation_residual = 0.0
    compression_residual = 0.0
    rank_ok = True
    for _ in range(trials):
        raw = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
        psi = QuantumState(raw / np.linalg.norm(raw), algebra)
        functional = StateFunctional.from_vector(psi.vector, psi.algebra)
        space = build_gns(functional)
        rank_ok = rank_ok and space.rank == dimension
        element = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        element = AlgebraElement(element, algebra)
        expectation_residual = max(
            expectation_residual,
            abs(vacuum_expectation(space, element) - functional.value(element)),
        )
        hermitian = AlgebraElement(
            0.5 * (element.matrix + element.matrix.conj().T), algebra
        )
        compression_residual = max(
            compression_residual, compression_identity_check(psi, hermitian, rng)
        )
    return expectation_residual, compression_residual, rank_ok


class TestStackedPureStateTrials:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_per_trial_loop(self, n):
        # one oracle pass per seed, checked after each count: b trials fill
        # one batch exactly and b + 1 start a second
        b = gns._batch_size(gns.COMPRESSION_SAMPLES, n)
        counts = sorted({0, 1, b, b + 1, 300})
        algebra = AlgebraDescriptor(n)
        for seed in range(10):
            oracle_rng = np.random.default_rng(seed)
            worst = (0.0, 0.0, True)
            for done in range(counts[-1] + 1):
                if done in counts:
                    batch_rng = np.random.default_rng(seed)
                    assert pure_state_trials(algebra, done, batch_rng) == worst
                    # the same draws were consumed
                    assert batch_rng.normal() == copy.deepcopy(oracle_rng).normal()
                expectation, compression, rank_ok = _per_trial_loop(algebra, 1, oracle_rng)
                worst = (
                    max(worst[0], expectation),
                    max(worst[1], compression),
                    worst[2] and rank_ok,
                )
        assert worst[2] is True
        assert worst[0] <= 1e-10 and worst[1] <= 1e-10

    def test_ranks_that_differ_within_a_chunk(self, monkeypatch):
        # a zero cutoff keeps the positive roundoff eigenvalues of each rho,
        # so one chunk holds GNS spaces of several ranks
        monkeypatch.setattr(gns, "RANK_CUTOFF", 0.0)
        for n in (2, 4, 6):
            algebra = AlgebraDescriptor(n)
            oracle_rng, batch_rng = np.random.default_rng(3), np.random.default_rng(3)
            oracle = _per_trial_loop(algebra, 150, oracle_rng)
            assert pure_state_trials(algebra, 150, batch_rng) == oracle
            assert batch_rng.normal() == oracle_rng.normal()
            assert oracle[2] is False

    def test_block_algebra_rejected(self, rng):
        with pytest.raises(ValueError, match="full"):
            pure_state_trials(AlgebraDescriptor(3, (1, 2)), 5, rng)


def _per_item_compression_residuals(p, a, raw):
    """Reference for ``gns._compression_residuals``: every item on its own.

    The compression gap, its norm and the sandwiches p S p are formed item
    by item, and each invariance gap is a per-item trace sum over the
    item's samples.
    """
    residuals = []
    for pk, ak, rk in zip(p, a, raw):
        gap = pk @ ak @ pk - np.trace(pk @ ak) * pk
        top = np.linalg.eigvalsh(gap.conj().T @ gap)[-1]
        sandwiched = pk @ rk @ pk
        invariance = np.abs(
            np.einsum("ij,sji->s", pk, rk) - np.einsum("ij,sji->s", pk, sandwiched)
        ).max(initial=0.0)
        residuals.append(max(float(np.sqrt(max(top, 0.0))), float(invariance)))
    return residuals


# the trials per batch of pure_state_trials at each dimension
TRIAL_BATCHES = {n: gns._batch_size(gns.COMPRESSION_SAMPLES, n) for n in range(2, 7)}


def _assert_per_item_sums(n, m, samples, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    p = vectors[:, :, None] * vectors.conj()[:, None, :]
    a = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    a = 0.5 * (a + a.conj().transpose(0, 2, 1))
    draws = rng.normal(size=(m, samples, 2, n, n))
    raw = draws[:, :, 0] + 1j * draws[:, :, 1]
    assert gns._compression_residuals(p, a, raw) == _per_item_compression_residuals(
        p, a, raw
    )


class TestStackedCompressionResiduals:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        m=st.integers(1, max(TRIAL_BATCHES.values()) + 1),
        samples=st.sampled_from([0, 1, gns.COMPRESSION_SAMPLES]),
        seed=st.integers(0, 2**32 - 1),
    )
    # one item is compression_identity_check's shape, and a batch plus one
    # item one more than pure_state_trials ever stacks at that dimension
    @example(n=3, m=1, samples=gns.COMPRESSION_SAMPLES, seed=0)
    @example(n=6, m=TRIAL_BATCHES[6] + 1, samples=gns.COMPRESSION_SAMPLES, seed=1)
    def test_equals_the_per_item_sums(self, n, m, samples, seed):
        _assert_per_item_sums(n, m, samples, seed)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_per_item_sums_at_the_batch_boundary(self, n):
        for m in (TRIAL_BATCHES[n], TRIAL_BATCHES[n] + 1):
            _assert_per_item_sums(n, m, gns.COMPRESSION_SAMPLES, seed=n)


class TestBatchesAreSizedInBytes:
    @pytest.mark.parametrize("matrices", [1, gns.COMPRESSION_SAMPLES])
    def test_a_batch_fills_the_budget_and_holds_at_least_one_item(self, matrices):
        for size in (1, 2, 6, 36, 90, 200):
            b = gns._batch_size(matrices, size)
            item = 16 * matrices * size * size
            assert b >= 1
            assert b * item <= STACK_BYTES or b == 1
            assert (b + 1) * item > STACK_BYTES

    def test_memory_is_flat_in_trials_and_samples(self):
        # the peak of a stacked run is a few stacks of one batch (draws,
        # sandwiches, representations and their products), whatever the
        # item count
        algebra = AlgebraDescriptor(6)
        space = build_gns(StateFunctional.tracial(algebra))

        def peak(run, count):
            run(count)  # first-call allocations of numpy are not the batch's
            tracemalloc.start()
            try:
                run(count)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def trials(count):
            pure_state_trials(algebra, count, np.random.default_rng(0))

        def samples(count):
            verify_gns(space, count, np.random.default_rng(0))

        for run, small, large in ((trials, 100, 1000), (samples, 20, 200)):
            low, high = peak(run, small), peak(run, large)
            assert high <= 1.01 * low
            assert high < 10 * STACK_BYTES


class TestKronIdentity:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_items_equal_numpy_kron(self, r, rng):
        single = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(gns._kron_identity(single, r), np.kron(single, np.eye(r)))
        for shape in ((5, 4, 4), (2, 3, 2, 2)):
            stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            wide = gns._kron_identity(stack, r)
            assert wide.shape == shape[:-2] + (shape[-1] * r, shape[-1] * r)
            for index in np.ndindex(shape[:-2]):
                assert np.array_equal(wide[index], np.kron(stack[index], np.eye(r)))

    def test_block_representation_is_the_block_diagonal_of_krons(self, rng):
        from scipy.linalg import block_diag

        algebra = AlgebraDescriptor(6, (1, 2, 3))
        vector = random_unit_vector(6, rng)
        # the tracial state has full rank in each block, a pure one rank 1
        for functional, ranks in (
            (StateFunctional.tracial(algebra), (1, 2, 3)),
            (StateFunctional.from_vector(vector, algebra), (1, 1, 1)),
        ):
            space = build_gns(functional)
            element = random_element(6, rng, algebra)
            expected = block_diag(
                *[
                    np.kron(element.matrix[b, b], np.eye(r))
                    for b, r in zip(algebra.block_slices(), ranks)
                ]
            )
            assert np.array_equal(space.represent(element), expected)
