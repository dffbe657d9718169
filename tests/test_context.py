import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, commutator, norm
from contextqm.contexts import (
    Context,
    ContextRegistry,
    DegenerateObservableError,
    NonCommutingFamilyError,
    canonical_basis,
    contains,
    context_from_family,
    context_from_observable,
    interpolated_generator,
)
from conftest import random_hermitian, random_unit_vector


@pytest.fixture
def registry():
    return ContextRegistry()


def _pauli():
    alg = AlgebraDescriptor(2)
    sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
    sy = AlgebraElement(np.array([[0.0, -1.0j], [1.0j, 0.0]]), alg)
    sz = AlgebraElement(np.diag([1.0, -1.0]), alg)
    return alg, sx, sy, sz


class TestCanonicalBasis:
    def test_phase_fix_makes_first_component_real_positive(self):
        vecs = np.array([[1j / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 1.0]]).T
        alg = AlgebraDescriptor(2)
        gen = AlgebraElement.from_diagonal([2.0, 1.0], alg)
        out = canonical_basis(vecs, [gen])
        for k in range(2):
            col = out[:, k]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert abs(first.imag) <= 1e-12
            assert first.real > 0

    def test_idempotent_to_the_bit(self, rng):
        n = 4
        h = random_hermitian(n, rng)
        _, vecs = np.linalg.eigh(h.matrix)
        once = canonical_basis(vecs, [h])
        twice = canonical_basis(once, [h])
        assert np.array_equal(once, twice)

    def test_orders_by_descending_generator_eigenvalue(self):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([1.0, 3.0, 2.0], alg)
        out = canonical_basis(np.eye(3, dtype=complex), [gen])
        # column k should carry the k-th largest eigenvalue: 3, 2, 1
        values = [np.real(out[:, k].conj() @ gen.matrix @ out[:, k]) for k in range(3)]
        assert values == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)


class TestContextConstruction:
    def test_diagonal_observable_gives_standard_basis(self, registry):
        alg = AlgebraDescriptor(3)
        obs = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(obs, registry)
        assert np.allclose(np.abs(ctx.basis), np.eye(3))
        assert ctx.dimension == 3
        assert ctx.id == "ctx-0"

    def test_pauli_x_context(self, registry):
        _, sx, _, _ = _pauli()
        ctx = context_from_observable(sx, registry)
        expect = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(ctx.vector(0)), expect, atol=1e-12)
        assert np.allclose(np.abs(ctx.vector(1)), expect, atol=1e-12)
        assert contains(ctx, sx)

    def test_degenerate_observable_rejected(self, registry):
        alg = AlgebraDescriptor(3)
        obs = AlgebraElement.from_diagonal([1.0, 1.0, 2.0], alg)
        with pytest.raises(DegenerateObservableError):
            context_from_observable(obs, registry)

    def test_family_with_identity_matches_single_observable(self, registry):
        _, _, _, sz = _pauli()
        ident = AlgebraElement.identity(sz.algebra)
        c1 = context_from_observable(sz, registry)
        c2 = context_from_family([sz, ident], registry)
        assert c1 is c2

    def test_noncommuting_family_rejected(self, registry):
        _, sx, _, sz = _pauli()
        with pytest.raises(NonCommutingFamilyError):
            context_from_family([sx, sz], registry)

    def test_jointly_degenerate_family_rejected(self, registry):
        alg = AlgebraDescriptor(3)
        a = AlgebraElement.from_diagonal([1.0, 1.0, 2.0], alg)
        b = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)
        with pytest.raises(DegenerateObservableError):
            context_from_family([a, b], registry)

    def test_family_resolves_joint_degeneracy(self, registry):
        # Each observable is degenerate alone; together they split the space.
        alg = AlgebraDescriptor(3)
        a = AlgebraElement.from_diagonal([1.0, 1.0, 2.0], alg)
        b = AlgebraElement.from_diagonal([5.0, 7.0, 7.0], alg)
        ctx = context_from_family([a, b], registry)
        assert contains(ctx, a) and contains(ctx, b)

    def test_empty_family_rejected(self, registry):
        with pytest.raises(ValueError):
            context_from_family([], registry)

    def test_all_members_commute(self, registry, rng):
        for n in (3, 5):
            h = random_hermitian(n, rng)
            ctx = context_from_observable(h, registry)
            values = rng.normal(size=(2, n))
            a = ctx.basis @ np.diag(values[0]) @ ctx.basis.conj().T
            b = ctx.basis @ np.diag(values[1]) @ ctx.basis.conj().T
            ea = AlgebraElement(a, ctx.algebra)
            eb = AlgebraElement(b, ctx.algebra)
            assert norm(commutator(ea, eb)) <= 1e-9
            assert contains(ctx, ea) and contains(ctx, eb)


class TestContains:
    def test_diagonal_membership(self, registry):
        _, sx, _, sz = _pauli()
        cz = context_from_observable(sz, registry)
        assert contains(cz, sz)
        assert not contains(cz, sx)
        assert contains(cz, AlgebraElement.identity(sz.algebra))

    def test_degenerate_combination_is_member(self, registry):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(gen, registry)
        coarse = AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)
        assert contains(ctx, coarse)

    def test_non_hermitian_not_member(self, registry, rng):
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement(np.diag([1.0, -1.0]), alg)
        ctx = context_from_observable(sz, registry)
        upper = AlgebraElement(np.array([[0.0, 1.0], [0.0, 0.0]]), alg)
        assert not contains(ctx, upper)


class TestRegistryInterning:
    def test_same_observable_same_object(self, registry):
        _, _, _, sz = _pauli()
        c1 = context_from_observable(sz, registry)
        c2 = context_from_observable(2.0 * sz, registry)
        assert c1 is c2
        assert len(registry) == 1

    def test_tiny_basis_perturbation_interns(self, registry, rng):
        n = 4
        h = random_hermitian(n, rng)
        c1 = context_from_observable(h, registry)
        # Rotate the registered basis by a unitary within 1e-9 of identity.
        skew = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        skew = 1e-10 * (skew - skew.conj().T)
        from scipy.linalg import expm

        wobble = expm(skew) @ c1.basis
        c2 = registry.register(wobble, c1.algebra)
        assert c2 is c1

    def test_distinct_contexts_get_distinct_ids(self, registry):
        _, sx, sy, sz = _pauli()
        ids = {
            context_from_observable(obs, registry).id for obs in (sx, sy, sz)
        }
        assert len(ids) == 3

    def test_non_orthonormal_basis_rejected(self, registry):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            registry.register(bad, AlgebraDescriptor(2))

    def test_classical_algebra_has_single_context(self, registry):
        alg = AlgebraDescriptor(3, (1, 1, 1))
        a = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        b = AlgebraElement.from_diagonal([9.0, 4.0, 6.0], alg)
        ca = context_from_observable(a, registry)
        cb = context_from_observable(b, registry)
        assert ca is cb
        assert len(registry) == 1


class TestInterpolation:
    def test_endpoints(self, registry):
        _, sx, _, sz = _pauli()
        at0 = interpolated_generator(sz, sx, 0.0)
        assert np.array_equal(at0.matrix, sz.matrix)
        at90 = interpolated_generator(sz, sx, np.pi / 2)
        assert np.max(np.abs(at90.matrix - sx.matrix)) <= 1e-15

    def test_sweep_produces_distinct_contexts(self, registry):
        _, sx, _, sz = _pauli()
        ids = set()
        for alpha in np.linspace(0.01, np.pi / 2 - 0.01, 100):
            ctx = context_from_observable(
                interpolated_generator(sz, sx, float(alpha)), registry
            )
            ids.add(ctx.id)
        assert len(ids) == 100

    def test_sweep_revisits_intern(self, registry):
        _, sx, _, sz = _pauli()
        first = [
            context_from_observable(interpolated_generator(sz, sx, a), registry)
            for a in (0.3, 0.6, 0.9)
        ]
        second = [
            context_from_observable(interpolated_generator(sz, sx, a), registry)
            for a in (0.3, 0.6, 0.9)
        ]
        for c1, c2 in zip(first, second):
            assert c1 is c2


class TestContextApi:
    def test_basis_projector_is_rank_one(self, registry):
        alg = AlgebraDescriptor(3)
        ctx = context_from_observable(
            AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg), registry
        )
        p = ctx.basis_projector(1)
        assert np.allclose(p.matrix, np.diag([0.0, 1.0, 0.0]))

    def test_diagonal_values_match_spectrum(self, registry, rng):
        h = random_hermitian(4, rng)
        ctx = context_from_observable(h, registry)
        vals = ctx.diagonal_values(h)
        evs = np.sort(np.linalg.eigvalsh(h.matrix))
        assert np.allclose(np.sort(vals), evs, atol=1e-10)

    def test_diagonal_values_of_identity(self, registry):
        _, _, _, sz = _pauli()
        ctx = context_from_observable(sz, registry)
        ident = AlgebraElement.identity(sz.algebra)
        assert np.array_equal(ctx.diagonal_values(ident), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        leak=st.sampled_from([0.0, 1e-13, 1e-6, 1.0]),
    )
    def test_diagonal_values_is_none_exactly_when_not_contained(self, seed, n, leak):
        rng = np.random.default_rng(seed)
        ctx = context_from_observable(random_hermitian(n, rng), ContextRegistry())
        diagonal = rng.normal(size=n)
        inside = (ctx.basis * diagonal) @ ctx.basis.conj().T
        element = AlgebraElement(
            inside + leak * random_hermitian(n, rng).matrix, ctx.algebra
        )
        reads = ctx.diagonal_values(element)
        assert (reads is None) == (not contains(ctx, element))
        if leak <= 1e-13:
            assert np.allclose(reads, diagonal, atol=1e-12)
        if leak == 1.0:
            assert reads is None

    def test_json_dict(self, registry):
        _, _, _, sz = _pauli()
        ctx = context_from_observable(sz, registry)
        d = ctx.to_json_dict()
        assert d["id"] == ctx.id
        assert d["dimension"] == 2
        assert len(d["basis"]) == 2
