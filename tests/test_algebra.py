import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextqm import algebra
from contextqm.algebra import (
    GROUPING_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    NonHermitianError,
    _eigh,
    _grouped,
    adjoint,
    check_positivity_structure,
    commutator,
    element_fingerprint,
    element_from_json_dict,
    element_to_json_dict,
    is_one_dim_projector,
    norm,
    spectral_decomposition,
    spectrum,
)
from contextqm.contexts import interpolated_generator
from conftest import random_element, random_hermitian


def _rng_from_seed(seed):
    return np.random.default_rng(seed)


class TestDescriptor:
    def test_full_algebra(self):
        alg = AlgebraDescriptor(4)
        assert alg.is_full
        assert alg.block_sizes == (4,)

    def test_block_sizes_must_sum_to_dimension(self):
        with pytest.raises(ValueError):
            AlgebraDescriptor(4, (2, 1))

    def test_nonpositive_blocks_rejected(self):
        with pytest.raises(ValueError):
            AlgebraDescriptor(3, (3, 0))
        with pytest.raises(ValueError):
            AlgebraDescriptor(0)

    def test_classical_algebra_mask_is_diagonal(self):
        alg = AlgebraDescriptor(3, (1, 1, 1))
        assert np.array_equal(alg.block_mask(), np.eye(3, dtype=bool))


class TestElement:
    def test_off_block_entries_rejected(self):
        alg = AlgebraDescriptor(3, (2, 1))
        with pytest.raises(ValueError):
            AlgebraElement(np.ones((3, 3)), alg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            AlgebraElement([[1.0, 0.0], [0.0, bad]], AlgebraDescriptor(2))

    def test_matrix_is_read_only(self):
        alg = AlgebraDescriptor(2)
        e = AlgebraElement.identity(alg)
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 5.0

    def test_arithmetic_stays_in_algebra(self, rng):
        alg = AlgebraDescriptor(5, (3, 2))
        a = random_element(5, rng, alg)
        b = random_element(5, rng, alg)
        mask = ~alg.block_mask()
        for c in (a + b, a - b, a @ b, 2.5 * a, -a, a.adjoint()):
            assert c.algebra == alg
            assert np.all(c.matrix[mask] == 0)

    def test_mixed_algebra_arithmetic_rejected(self, rng):
        a = random_element(3, rng, AlgebraDescriptor(3))
        b = random_element(3, rng, AlgebraDescriptor(3, (2, 1)))
        with pytest.raises(ValueError):
            a + b

    def test_from_diagonal_and_trace(self):
        alg = AlgebraDescriptor(3, (1, 1, 1))
        e = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        assert e.trace() == 6.0
        assert e.is_hermitian()


class TestAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_involution(self, n, seed):
        a = random_element(n, _rng_from_seed(seed))
        assert np.array_equal(adjoint(adjoint(a)).matrix, a.matrix)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_product_reversal(self, n, seed):
        rng = _rng_from_seed(seed)
        a, b = random_element(n, rng), random_element(n, rng)
        lhs = adjoint(a @ b).matrix
        rhs = (adjoint(b) @ adjoint(a)).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_antilinearity(self, rng):
        a = random_element(4, rng)
        lam = 0.7 - 1.3j
        assert np.allclose(
            adjoint(lam * a).matrix, np.conj(lam) * adjoint(a).matrix, atol=1e-14
        )


class TestSpectrum:
    def test_pauli_x_spectrum(self):
        alg = AlgebraDescriptor(2)
        sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
        assert spectrum(sx) == [-1.0, 1.0]

    def test_identity_spectrum_groups_to_one_value(self):
        alg = AlgebraDescriptor(5)
        assert spectrum(AlgebraElement.identity(alg)) == [1.0]

    def test_projector_spectrum(self):
        alg = AlgebraDescriptor(3)
        p = AlgebraElement.from_diagonal([0.0, 1.0, 1.0], alg)
        assert spectrum(p) == [0.0, 1.0]

    def test_non_hermitian_rejected(self, rng):
        a = random_element(3, rng)
        with pytest.raises(NonHermitianError):
            spectrum(a)

    def test_near_degenerate_values_grouped(self):
        alg = AlgebraDescriptor(2)
        e = AlgebraElement.from_diagonal([1.0, 1.0 + 1e-12], alg)
        assert len(spectrum(e)) == 1


class TestOneEigensolvePerElement:
    def test_eigh_is_kept_read_only_and_equals_a_fresh_solve(self, rng):
        h = random_hermitian(4, rng)
        values, vectors = _eigh(h)
        assert not values.flags.writeable and not vectors.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
        with pytest.raises(ValueError):
            vectors[0, 0] = 0.0
        again = _eigh(h)
        assert again[0] is values and again[1] is vectors
        fresh_values, fresh_vectors = np.linalg.eigh(h.matrix)
        assert np.array_equal(values, fresh_values)
        assert np.array_equal(vectors, fresh_vectors)

    def test_spectrum_and_decomposition_share_one_solve(self, rng, eigensolves):
        h = random_hermitian(5, rng)
        points = spectrum(h)
        decomposition = spectral_decomposition(h)
        assert spectrum(h) == points
        assert list(decomposition.eigenvalues) == points
        assert eigensolves == [(5, 5)]


def _numpy_scalar_groups(values):
    """Test oracle: the grouping loop over numpy scalars that ``_grouped`` replaced."""
    thr = GROUPING_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))
    groups = []
    for k, v in enumerate(values):
        if groups and v - values[groups[-1][0]] <= thr:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


# offsets around the grouping threshold, in units of the spectrum's scale
NEAR_TIES = [0.0, 1e-13, 4e-10, GROUPING_TOL, GROUPING_TOL * (1 + 1e-7), 3e-9, 0.5]


class TestOnceWorkEqualsTheFullRoute:
    """Simple eigenvalues taken as they are, grouping over Python floats and a
    kept Hermitian answer each equal the route that did the full work."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        points=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.integers(1, 3)), min_size=1, max_size=4
        ),
        jitter=st.sampled_from(NEAR_TIES),
    )
    def test_spectrum_and_decomposition_equal_the_all_mean_route(self, seed, points, jitter):
        # repeated and near-repeated values, conjugated by a random unitary
        diag = [value + k * jitter for value, count in points for k in range(count)]
        n = len(diag)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        raw = (q * diag) @ q.conj().T
        h = AlgebraElement(0.5 * (raw + raw.conj().T), AlgebraDescriptor(n))
        values, vectors = np.linalg.eigh(h.matrix)
        groups = _numpy_scalar_groups(values)
        means = [float(np.mean(values[g])) for g in groups]
        assert spectrum(h) == means
        decomposition = spectral_decomposition(h)
        assert list(decomposition.eigenvalues) == means
        for (_, proj), g in zip(decomposition.pairs, groups):
            vecs = vectors[:, g]
            oracle = vecs @ vecs.conj().T
            assert np.array_equal(proj.matrix, 0.5 * (oracle + oracle.conj().T))

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(-1e3, 1e3),
        steps=st.lists(st.sampled_from(NEAR_TIES), max_size=8),
    )
    def test_grouped_equals_the_numpy_scalar_loop(self, start, steps):
        scale = max(1.0, abs(start))
        values = np.sort(start + scale * np.cumsum([0.0, *steps]))
        assert _grouped(values) == _numpy_scalar_groups(values)
        assert _grouped(values[:0]) == _numpy_scalar_groups(values[:0]) == []

    def test_fifty_interpolations_check_each_input_once(self, rng, monkeypatch):
        checked = []
        check = algebra._hermitian_matrix
        monkeypatch.setattr(
            algebra, "_hermitian_matrix", lambda mat: checked.append(mat) or check(mat)
        )
        a1, a2 = random_hermitian(4, rng), random_hermitian(4, rng)
        for alpha in np.linspace(0.0, np.pi, 50):
            interpolated_generator(a1, a2, alpha)
        assert [m is a1.matrix for m in checked] == [True, False]
        assert checked[1] is a2.matrix
        bad = random_element(4, rng)
        for _ in range(2):  # the kept False still refuses
            with pytest.raises(NonHermitianError):
                interpolated_generator(bad, a2, 0.3)
        assert len(checked) == 3 and checked[2] is bad.matrix


class TestSpectralDecomposition:
    def test_diagonal_projectors(self):
        alg = AlgebraDescriptor(3)
        e = AlgebraElement.from_diagonal([5.0, 5.0, 2.0], alg)
        sd = spectral_decomposition(e)
        assert sd.eigenvalues == (2.0, 5.0)
        p2, p5 = (p for _, p in sd.pairs)
        assert np.allclose(p2.matrix, np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(p5.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_projector_family_properties(self, rng):
        for n in (2, 4, 6):
            e = random_hermitian(n, rng)
            sd = spectral_decomposition(e)
            assert np.max(np.abs(sd.projector_sum().matrix - np.eye(n))) <= 1e-10
            for v, p in sd.pairs:
                assert np.max(np.abs((p @ p).matrix - p.matrix)) <= 1e-10
                assert np.max(np.abs(p.matrix - p.adjoint().matrix)) <= 1e-12
            for i, (_, p) in enumerate(sd.pairs):
                for _, q in sd.pairs[i + 1 :]:
                    assert np.max(np.abs((p @ q).matrix)) <= 1e-10

    def test_reconstruction(self, rng):
        e = random_hermitian(5, rng)
        sd = spectral_decomposition(e)
        assert np.max(np.abs(sd.reconstruct().matrix - e.matrix)) <= 1e-10

    def test_block_structure_preserved(self, rng):
        alg = AlgebraDescriptor(5, (3, 2))
        e = random_hermitian(5, rng, alg)
        sd = spectral_decomposition(e)
        mask = ~alg.block_mask()
        for _, p in sd.pairs:
            assert np.max(np.abs(p.matrix[mask])) <= 1e-12


class TestNorm:
    def test_identity_norm_one(self):
        assert norm(AlgebraElement.identity(AlgebraDescriptor(4))) == 1.0

    def test_scaled_projector(self):
        alg = AlgebraDescriptor(3)
        e = AlgebraElement.from_diagonal([3.0, 0.0, 0.0], alg)
        assert abs(norm(e) - 3.0) <= 1e-12

    def test_zero_element(self):
        assert norm(AlgebraElement.zero(AlgebraDescriptor(3))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_multiplicative_star_identity(self, n, seed):
        a = random_element(n, _rng_from_seed(seed))
        lhs = norm(adjoint(a) @ a)
        rhs = norm(a) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_seminorm_axioms(self, n, seed):
        rng = _rng_from_seed(seed)
        a, b = random_element(n, rng), random_element(n, rng)
        lam = complex(rng.normal(), rng.normal())
        assert norm(a + b) <= norm(a) + norm(b) + 1e-10
        assert abs(norm(lam * a) - abs(lam) * norm(a)) <= 1e-10 * max(1.0, norm(a))
        assert norm(a @ b) <= norm(a) * norm(b) + 1e-10

    def test_norm_zero_implies_zero_element(self, rng):
        # On a block-diagonal matrix algebra the norm is definite.
        a = random_element(4, rng)
        assert norm(a) > 0.0
        assert norm(a - a) == 0.0


class TestPredicates:
    def test_one_dim_projector(self):
        alg = AlgebraDescriptor(3)
        assert is_one_dim_projector(AlgebraElement.from_diagonal([1.0, 0.0, 0.0], alg))
        assert not is_one_dim_projector(
            AlgebraElement.from_diagonal([1.0, 1.0, 0.0], alg)
        )
        assert not is_one_dim_projector(AlgebraElement.identity(alg))

    def test_positivity_structure_holds_universally(self, rng):
        # The involution axiom: R*R is positive semidefinite for every R,
        # and a vanishing R*R forces R = 0.
        alg = AlgebraDescriptor(4)
        assert check_positivity_structure(AlgebraElement.zero(alg))
        for _ in range(25):
            assert check_positivity_structure(random_element(4, rng))
        blk = AlgebraDescriptor(5, (2, 3))
        for _ in range(10):
            assert check_positivity_structure(random_element(5, rng, blk))

    def test_commutator(self, rng):
        alg = AlgebraDescriptor(2)
        sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
        sy = AlgebraElement(np.array([[0.0, -1.0j], [1.0j, 0.0]]), alg)
        sz = AlgebraElement(np.diag([1.0, -1.0]), alg)
        assert norm(commutator(sx, sx)) == 0.0
        assert np.max(np.abs(commutator(sx, sy).matrix - 2j * sz.matrix)) <= 1e-12
        d1 = AlgebraElement.from_diagonal([1.0, 2.0], alg)
        d2 = AlgebraElement.from_diagonal([-3.0, 7.0], alg)
        assert norm(commutator(d1, d2)) == 0.0


class TestSerialization:
    def test_fingerprint_stable_across_recomputation(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        alg = AlgebraDescriptor(3)
        a = AlgebraElement(m, alg)
        b = AlgebraElement(m.copy(), alg)
        assert element_fingerprint(a) == element_fingerprint(b)

    def test_fingerprint_discriminates(self, rng):
        alg = AlgebraDescriptor(2)
        a = AlgebraElement.from_diagonal([1.0, 2.0], alg)
        b = AlgebraElement.from_diagonal([1.0, 2.0 + 1e-6], alg)
        assert element_fingerprint(a) != element_fingerprint(b)

    def test_fingerprint_ignores_signed_zero(self):
        alg = AlgebraDescriptor(2)
        a = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
        b = AlgebraElement(np.array([[-0.0, 1.0], [1.0, -0.0]]), alg)
        assert element_fingerprint(a) == element_fingerprint(b)

    def test_fingerprint_separates_block_structures(self):
        m = np.diag([1.0, 2.0])
        full = AlgebraElement(m, AlgebraDescriptor(2))
        split = AlgebraElement(m, AlgebraDescriptor(2, (1, 1)))
        assert element_fingerprint(full) != element_fingerprint(split)

    def test_full_algebra_fingerprints_are_pinned(self):
        # Stable records and reports key on these strings; the block tag
        # must leave every full-algebra fingerprint as it was.
        alg = AlgebraDescriptor(2)
        hermitian = AlgebraElement(np.array([[1.0, 0.5j], [-0.5j, 2.0]]), alg)
        diagonal = AlgebraElement.from_diagonal([1.0, 2.0], alg)
        assert element_fingerprint(hermitian) == "bd5aac5726c23d7a8e7a76341961793cfe0354cc"
        assert element_fingerprint(diagonal) == "7d5f0b86363054131583f01fe53f0acd755b3bef"

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.one_of(
            st.integers(1, 6).map(lambda n: (n,)),
            st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_fingerprint_equals_a_fresh_one(self, blocks, seed):
        rng = _rng_from_seed(seed)
        alg = AlgebraDescriptor(sum(blocks), blocks)
        elements = [random_element(alg.dimension, rng, alg) for _ in range(3)]
        first = [element_fingerprint(e) for e in elements]
        for element, kept in zip(elements[::-1], first[::-1]):
            assert element_fingerprint(element) is kept
            fresh = AlgebraElement(element.matrix.copy(), alg)
            assert element_fingerprint(fresh) == kept

    def test_json_round_trip_is_exact(self, rng):
        alg = AlgebraDescriptor(5, (3, 2))
        a = random_element(5, rng, alg)
        d = element_to_json_dict(a)
        b = element_from_json_dict(d)
        assert np.array_equal(a.matrix, b.matrix)
        assert b.algebra == alg

    def test_json_dict_structure(self, rng):
        a = random_element(2, rng)
        d = element_to_json_dict(a)
        assert set(d) == {"dimension", "block_sizes", "matrix"}
