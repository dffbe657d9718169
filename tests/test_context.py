import gc
import hashlib
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextqm import contexts
from contextqm.algebra import AlgebraDescriptor, AlgebraElement, commutator, norm, spectrum
from contextqm.contexts import (
    DIAGONAL_TOL,
    FINGERPRINT_TOL,
    MATCH_TOL,
    Context,
    ContextRegistry,
    DegenerateObservableError,
    IncompatibleObservableError,
    NonCommutingFamilyError,
    _bases_match,
    canonical_basis,
    contains,
    context_from_family,
    context_from_observable,
    interpolated_generator,
)
from contextqm.ensembles import QuantumState, ensemble_average, instrument_independence_report
from contextqm.measurement import Instrument, measure, spin1_squared_observables
from contextqm.states import Character, ElementaryState, evaluate
from conftest import random_hermitian, random_unit_vector


@pytest.fixture
def registry():
    return ContextRegistry()


@pytest.fixture
def read_matrices(monkeypatch):
    """Matrices handed to ``contexts._diagonal``, the one B^dagger A B read, in order."""
    diagonal = contexts._diagonal
    seen = []

    def spy(basis, matrix):
        seen.append(matrix)
        return diagonal(basis, matrix)

    monkeypatch.setattr(contexts, "_diagonal", spy)
    return seen


def _pauli():
    alg = AlgebraDescriptor(2)
    sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
    sy = AlgebraElement(np.array([[0.0, -1.0j], [1.0j, 0.0]]), alg)
    sz = AlgebraElement(np.diag([1.0, -1.0]), alg)
    return alg, sx, sy, sz


class TestCanonicalBasis:
    def test_phase_fix_makes_first_component_real_positive(self):
        # an eigenbasis of diag(2, 1) whose leading entries are complex
        vecs = np.array([[1j, 0.0], [0.0, (1 + 1j) / np.sqrt(2)]]).T
        alg = AlgebraDescriptor(2)
        gen = AlgebraElement.from_diagonal([2.0, 1.0], alg)
        out = canonical_basis(vecs, [gen])
        for k in range(2):
            col = out[:, k]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert abs(first.imag) <= 1e-12
            assert first.real > 0

    def test_generator_not_diagonal_in_the_vectors_is_rejected(self):
        # B^dagger diag(2, 1) B has an off-diagonal entry of 0.71 here
        vecs = np.array([[1j / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 1.0]]).T
        gen = AlgebraElement.from_diagonal([2.0, 1.0], AlgebraDescriptor(2))
        with pytest.raises(ValueError, match="generator 0 is not diagonal"):
            canonical_basis(vecs, [gen])

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


class TestOneRoute:
    def test_one_member_family_is_the_observable_context_to_the_bit(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g = random_hermitian(2 + seed % 5, rng)
            twin = AlgebraElement(g.matrix.copy(), g.algebra)  # no shared memo
            family = context_from_family([g], ContextRegistry()).basis
            single = context_from_observable(twin, ContextRegistry()).basis
            assert family.tobytes() == single.tobytes(), seed

    def test_a_solved_first_member_is_not_solved_again(self, registry, eigensolves):
        alg = AlgebraDescriptor(3)
        a = AlgebraElement.from_diagonal([1.0, 1.0, 2.0], alg)
        b = AlgebraElement.from_diagonal([5.0, 7.0, 7.0], alg)
        spectrum(a)
        assert eigensolves == [(3, 3)]
        ctx = context_from_family([a, b], registry)
        # only b inside a's 2-dim eigenspace
        assert eigensolves[1:] == [(2, 2)]
        assert contains(ctx, a) and contains(ctx, b)

    @pytest.mark.parametrize(
        "build",
        [lambda: (random_hermitian(4, np.random.default_rng(5)),), spin1_squared_observables],
        ids=["one-member", "spin1-triple"],
    )
    def test_a_fresh_family_reads_each_member_once(self, registry, build, read_matrices):
        family = build()
        ctx = context_from_family(family, registry)
        # the sort-key read in canonical_basis is also the admission read
        assert [id(m) for m in read_matrices] == [id(member.matrix) for member in family]
        assert len(registry) == 1 and ctx.id == "ctx-0"

    def test_a_family_is_admitted_without_a_commutator_eigensolve(self, registry, eigensolves):
        family = spin1_squared_observables()
        ctx = context_from_family(family, registry)
        # the first member's eigh, then the second inside its 2-dim eigenspace
        assert eigensolves == [(3, 3), (2, 2)]
        assert all(contains(ctx, member) for member in family)


def _unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _in_frame(q, matrix, alg):
    """q @ matrix @ q^dagger, made exactly Hermitian."""
    rotated = q @ matrix @ q.conj().T
    return AlgebraElement(0.5 * (rotated + rotated.conj().T), alg)


class TestFamilyAdmission:
    """A family is admitted exactly when each member is in its context."""

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_commuting_family_is_admitted(self, registry, scale):
        # the commutator's roundoff grows with the entries: an absolute
        # bound on its norm rejected these families
        rng = np.random.default_rng(3)
        alg = AlgebraDescriptor(4)
        q = _unitary(4, rng)
        family = [
            _in_frame(q, np.diag(scale * rng.permutation(np.arange(4.0))), alg),
            _in_frame(q, np.diag(scale * rng.normal(size=4)), alg),
        ]
        ctx = context_from_family(family, registry)
        assert all(contains(ctx, member) for member in family)

    def test_family_whose_context_would_miss_a_member_is_rejected(self, registry):
        # the commutator norm is 8e-11, yet b is not diagonal in the basis
        # that a's eigenvalues 0 and 2e-8 split
        alg = AlgebraDescriptor(3)
        a = AlgebraElement.from_diagonal([0.0, 2e-8, 1.0], alg)
        b = AlgebraElement(
            np.array([[0.0, 0.004, 0.0], [0.004, 0.0, 0.0], [0.0, 0.0, 1.0]]), alg
        )
        with pytest.raises(NonCommutingFamilyError):
            context_from_family([a, b], registry)

    def test_non_commuting_is_reported_before_degeneracy(self, registry):
        alg = AlgebraDescriptor(3)
        a = AlgebraElement.from_diagonal([1.0, 1.0, 2.0], alg)
        b = AlgebraElement(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), alg
        )
        with pytest.raises(NonCommutingFamilyError):
            context_from_family([a, b], registry)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        exponent=st.integers(-3, 6),
    )
    def test_admission_is_membership_at_every_scale(self, seed, n, exponent):
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        alg = AlgebraDescriptor(n)
        q = _unitary(n, rng)
        # eigenvalues at least scale / 2 apart: the first member fixes the basis
        spread = rng.permutation(np.arange(n) + rng.uniform(0, 0.5, n))
        first = _in_frame(q, np.diag(scale * spread), alg)
        values = scale * rng.normal(size=n)
        family = [first, _in_frame(q, np.diag(values), alg)]
        ctx = context_from_family(family, ContextRegistry())
        assert all(contains(ctx, member) for member in family)

        i, j = rng.choice(n, size=2, replace=False)
        leak = np.zeros((n, n))
        leak[i, j] = leak[j, i] = 4 * DIAGONAL_TOL * max(1.0, np.abs(values).max())
        with pytest.raises(NonCommutingFamilyError):
            context_from_family([first, _in_frame(q, np.diag(values) + leak, alg)], ContextRegistry())


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

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_basis_rejected(self, registry, entry):
        bad = np.eye(3, dtype=complex)
        bad[1, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            registry.register(bad, AlgebraDescriptor(3))
        assert len(registry) == 0

    def test_too_few_columns_rejected(self, registry):
        # orthonormal columns, but only two of them for a 3-dim algebra
        with pytest.raises(ValueError, match="shape"):
            registry.register(np.eye(3)[:, :2], AlgebraDescriptor(3))
        assert len(registry) == 0

    def test_basis_of_another_dimension_rejected(self, registry):
        with pytest.raises(ValueError, match="shape"):
            registry.register(np.eye(2), AlgebraDescriptor(3))
        assert len(registry) == 0

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

    @pytest.mark.parametrize(
        "algebra", [AlgebraDescriptor(2), AlgebraDescriptor(3, (1, 2))], ids=["2-dim", "blocks"]
    )
    def test_an_element_of_another_algebra_is_not_measured(self, registry, algebra):
        ctx = context_from_observable(
            AlgebraElement.from_diagonal([3.0, 2.0, 1.0], AlgebraDescriptor(3)), registry
        )
        # the block element is diagonal in ctx's basis, yet belongs to another algebra
        foreign = AlgebraElement.from_diagonal(np.arange(1.0, algebra.dimension + 1), algebra)
        phi = ElementaryState(rng=np.random.default_rng(4))
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            measure(phi, Instrument(ctx), foreign)
        assert phi.stable == {} and phi.layers == {}


# the callers that need a member, each as call(phi, psi, home, ctx, x, rng)
REFUSING_CALLERS = {
    "measure": lambda phi, psi, home, ctx, x, rng: measure(
        phi, Instrument(ctx, "labelled"), x, rng=rng
    ),
    "ensemble_average": lambda phi, psi, home, ctx, x, rng: ensemble_average(
        psi, x, ctx, 10, rng
    ),
    "instrument_independence_report": lambda phi, psi, home, ctx, x, rng: (
        instrument_independence_report(psi, x, home, ctx, 10, rng)
    ),
    "Character.value": lambda phi, psi, home, ctx, x, rng: Character(ctx, 0).value(x),
    "evaluate": lambda phi, psi, home, ctx, x, rng: evaluate(phi, ctx, x),
}


class TestRefusal:
    """Every caller refuses a non-member through ``Context.reads``."""

    @pytest.mark.parametrize("caller", REFUSING_CALLERS)
    def test_a_non_member_is_refused_naming_the_context_and_changing_nothing(
        self, registry, caller
    ):
        alg = AlgebraDescriptor(3)
        rng = np.random.default_rng(8)
        x = random_hermitian(3, rng)
        home = context_from_observable(x, registry)
        ctx = context_from_observable(AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg), registry)
        psi = QuantumState(random_unit_vector(3, rng), alg)
        phi = ElementaryState(rng=rng, attached_vector=psi.vector)
        measure(phi, Instrument(home), x)  # a layer and a stable record to keep
        layers, stable, drawn = dict(phi.layers), dict(phi.stable), rng.bit_generator.state
        with pytest.raises(IncompatibleObservableError, match=rf"context {ctx.id}$"):
            REFUSING_CALLERS[caller](phi, psi, home, ctx, x, rng)
        assert phi.layers == layers and phi.stable == stable
        assert rng.bit_generator.state == drawn


def _fixed_basis():
    # two Pythagorean rotations and column phases: exact entries, no eigensolver
    r1 = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    r2 = np.array([[1.0, 0.0, 0.0], [0.0, 5 / 13, -12 / 13], [0.0, 12 / 13, 5 / 13]])
    return (r1 @ r2) * np.array([1.0, 1j, -1j])


def _random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _rotation(h):
    """t -> exp(i t h) for a Hermitian matrix h, in closed form."""
    values, vectors = np.linalg.eigh(h)
    return lambda t: (vectors * np.exp(1j * t * values)) @ vectors.conj().T


def _random_rotation(n, rng):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _rotation(raw + raw.conj().T)


class _ScanRegistry:
    """Test oracle: the linear scan that the registry's sorted key replaced.

    It returns the id of the first context, in creation order, of the same
    algebra whose fingerprint is within tolerance and whose basis matches;
    otherwise it creates the next id.
    """

    def __init__(self):
        self.algebras, self.fingerprints, self.bases = [], [], []

    def register(self, basis, algebra):
        basis = np.asarray(basis, dtype=np.complex128)
        fp = np.sort(np.abs(basis).ravel())
        same = [k for k, known in enumerate(self.algebras) if known == algebra]
        if same:
            gaps = np.abs(np.array([self.fingerprints[k] for k in same]) - fp).max(axis=1)
            for k in np.asarray(same)[~(gaps > FINGERPRINT_TOL)]:
                if _bases_match(self.bases[k], basis):
                    return f"ctx-{k}"
        self.algebras.append(algebra)
        self.fingerprints.append(fp)
        self.bases.append(basis)
        return f"ctx-{len(self.bases) - 1}"


def _fingerprint_gap(a, b):
    return np.abs(np.sort(np.abs(a).ravel()) - np.sort(np.abs(b).ravel())).max()


def _fingerprint_sum_gap(a, b):
    return abs(np.abs(a).sum() - np.abs(b).sum())


def _scaled_rotation(basis, rotation, gap, target):
    """rotation(t) @ basis with t chosen (to first order) so that
    gap(basis, result) equals ``target``."""
    probe = 1e-6
    t = probe * target / gap(basis, rotation(probe) @ basis)
    return rotation(t) @ basis


class TestSortedKeyLookup:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), others=st.integers(0, 3))
    def test_returns_what_the_scan_returns(self, seed, n, others):
        rng = np.random.default_rng(seed)
        alg = AlgebraDescriptor(n)
        base = _random_unitary(n, rng)
        size = n * n
        bases = [_random_unitary(n, rng) for _ in range(others)] + [base]
        for scale in (0.1, 0.5, 0.9, 1.0, 1.1, 1000.0):
            # fingerprints within, at and beyond tolerance, down to 1000 tol
            rotation = _random_rotation(n, rng)
            target = scale * FINGERPRINT_TOL
            bases.append(_scaled_rotation(base, rotation, _fingerprint_gap, target))
        for scale in (0.5, 1.0, 1.9, 2.0, 2.1):
            # fingerprint sums near the edge of the bisect window
            rotation = _random_rotation(n, rng)
            target = scale * size * FINGERPRINT_TOL
            bases.append(_scaled_rotation(base, rotation, _fingerprint_sum_gap, target))
        # reorder and rephase the copies' columns: the same contexts
        bases += [
            b[:, rng.permutation(n)] * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            for b in bases[others:]
        ]
        registry, oracle = ContextRegistry(), _ScanRegistry()
        got = [registry.register(b, alg).id for b in bases]
        assert got == [oracle.register(b, alg) for b in bases]
        assert len(registry) == len(set(got))

    def test_earliest_candidate_wins_over_a_closer_sum(self):
        rng = np.random.default_rng(5)
        alg = AlgebraDescriptor(4)
        a = _random_unitary(4, rng)
        rotation = _random_rotation(4, rng)
        probe = 1e-6
        t = probe * 1.5 * FINGERPRINT_TOL / _fingerprint_gap(a, rotation(probe) @ a)
        b, b_minus = rotation(t) @ a, rotation(-t) @ a
        # b and b_minus fall on either side of a in the sorted list, so for
        # one of the queries a later context is visited first unless the
        # window is walked in creation order
        assert (np.abs(b).sum() - np.abs(a).sum()) * (np.abs(b_minus).sum() - np.abs(a).sum()) < 0
        queries = [a, b, b_minus, rotation(0.5 * t) @ a, rotation(-0.5 * t) @ a]
        registry, oracle = ContextRegistry(), _ScanRegistry()
        got = [registry.register(q, alg).id for q in queries]
        assert got == [oracle.register(q, alg) for q in queries]
        assert got == ["ctx-0", "ctx-1", "ctx-2", "ctx-0", "ctx-0"]

    def test_window_holds_a_sum_moved_by_most_of_its_bound(self):
        # exp(i t (J - I)) moves each of the n(n-1) off-diagonal magnitudes of
        # the identity basis from 0 to t, and the n diagonal ones only to
        # second order: with t = 0.9 tol no fingerprint entry moves by more
        # than tol, but the sum moves by 0.9 (n-1)/n of size * tol
        n = 6
        alg = AlgebraDescriptor(n)
        near = _rotation(np.ones((n, n)) - np.eye(n))(0.9 * FINGERPRINT_TOL)
        assert _fingerprint_gap(np.eye(n), near) <= FINGERPRINT_TOL
        assert _fingerprint_sum_gap(np.eye(n), near) > 0.7 * n * n * FINGERPRINT_TOL
        registry, oracle = ContextRegistry(), _ScanRegistry()
        got = [registry.register(b, alg).id for b in (np.eye(n), near)]
        assert got == [oracle.register(b, alg) for b in (np.eye(n), near)]
        assert got == ["ctx-0", "ctx-0"]

    def test_interpolation_sweep_ids_match_the_scan(self):
        rng = np.random.default_rng(11)
        a1, a2 = random_hermitian(6, rng), random_hermitian(6, rng)
        angles = rng.uniform(0.0, np.pi, 1000)
        # then revisit some angles exactly and some within 1e-12
        revisits = rng.choice(angles, 200, replace=False)
        angles = np.concatenate([angles, revisits[:100], revisits[100:] + 1e-12])
        registry, oracle = ContextRegistry(), _ScanRegistry()
        got, expected = [], []
        for alpha in angles:
            g = interpolated_generator(a1, a2, float(alpha))
            # the basis context_from_observable registers, given to both routes
            basis = canonical_basis(np.linalg.eigh(g.matrix)[1], [g])
            got.append(registry.register(basis, g.algebra).id)
            expected.append(oracle.register(basis, g.algebra))
        assert got == expected
        assert len(registry) == 1000
        first = {alpha: k for k, alpha in enumerate(angles[:1000])}
        assert got[1000:] == [got[first[alpha]] for alpha in revisits]

    def test_fingerprint_and_json_keep_their_bytes(self, registry):
        ctx = registry.register(_fixed_basis(), AlgebraDescriptor(3))
        fp = ctx.fingerprint
        assert fp.dtype == np.float64 and fp.shape == (9,)
        assert np.array_equal(fp, np.sort(np.abs(ctx.basis).ravel()))
        assert hashlib.sha256(fp.tobytes()).hexdigest() == (
            "18c4e660e16bde9ec3f43f7cff85e4e0ba24383cd03115e4b5b4636ee9c0a395"
        )
        doc = json.dumps(ctx.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == (
            "b0ea788a309e9af30a4cd5a16e9cf1561c54b104a3152ead5d5c6c45400fc1d5"
        )


def _loop_bases_match(b1, b2):
    """Test oracle: the per-column loop that the closed form replaced."""
    overlap = np.abs(b1.conj().T @ b2)
    hits = np.argmax(overlap, axis=0)
    if len(set(int(h) for h in hits)) != overlap.shape[0]:
        return False
    for j, i in enumerate(hits):
        if abs(overlap[i, j] - 1.0) > MATCH_TOL:
            return False
        rest = np.delete(overlap[:, j], i)
        if rest.size and rest.max() > MATCH_TOL:
            return False
    return True


class TestBasesMatch:
    def test_closed_form_equals_the_loop(self):
        outcomes = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 1 + seed % 6
            basis = _random_unitary(n, rng)
            phases = np.exp(2j * np.pi * rng.uniform(size=n))
            moved = basis[:, rng.permutation(n)] * phases
            rotation = _random_rotation(n, rng)
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            candidates = [moved, _random_unitary(n, rng)]
            for scale in (0.5, 1.0, 2.0):
                t = scale * MATCH_TOL
                # a unitary rotation by exp(i t H), and a non-unitary nudge
                candidates += [rotation(t) @ moved, moved + t * noise / np.abs(noise).max()]
            for other in candidates:
                got = _bases_match(basis, other)
                assert got == _loop_bases_match(basis, other), seed
                outcomes.append(got)
        assert True in outcomes and False in outcomes


class TestRegistryTolerance:
    def test_distinct_bases_stay_apart_and_repeats_match(self):
        rng = np.random.default_rng(3)
        alg = AlgebraDescriptor(4)
        bases = [_random_unitary(4, rng) for _ in range(6)]
        registry = ContextRegistry()
        ids = [registry.register(b, alg).id for b in bases + bases]
        assert ids == [f"ctx-{k}" for k in range(6)] * 2


class TestMemberRule:
    @pytest.mark.parametrize(
        "build",
        [context_from_observable, lambda g, registry: context_from_family([g], registry)],
        ids=["observable", "family"],
    )
    def test_near_generators_each_get_a_context_that_contains_them(self, build):
        # the generators are 1.3e-8 apart in angle: their bases match to the
        # registry's tolerances, but neither is diagonal in the other's basis
        # to DIAGONAL_TOL for some seeds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a1, a2 = random_hermitian(6, rng), random_hermitian(6, rng)
            registry = ContextRegistry()
            generators = [interpolated_generator(a1, a2, a) for a in (1.0, 1.0 + 1.3e-8)]
            found = [build(g, registry) for g in generators]
            assert [ctx.id for ctx in found] == ["ctx-0", "ctx-1"], seed
            assert all(contains(ctx, g) for ctx, g in zip(found, generators)), seed

    def test_register_reuses_a_match_only_if_it_contains_the_members(self):
        alg = AlgebraDescriptor(2)
        registry = ContextRegistry()
        first = registry.register(np.eye(2), alg)
        # a basis 5e-9 away: it matches the first, but an observable it
        # diagonalizes has an off-diagonal entry of about 5e-9 there
        tilted = _rotation(np.array([[0.0, -1j], [1j, 0.0]]))(5e-9)
        member = AlgebraElement(tilted @ np.diag([0.0, 1.0]) @ tilted.conj().T, alg)
        assert not contains(first, member)
        assert registry.register(tilted, alg) is first
        assert registry.register(tilted, alg, members=(AlgebraElement.identity(alg),)) is first
        second = registry.register(tilted, alg, members=(member,))
        assert second.id == "ctx-1" and contains(second, member)


@pytest.fixture
def layer_calls(monkeypatch):
    """Counts of canonical_basis and ContextRegistry.register calls."""
    calls = {"canonical_basis": 0, "register": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(contexts, "canonical_basis", counted("canonical_basis", canonical_basis))
    monkeypatch.setattr(ContextRegistry, "register", counted("register", ContextRegistry.register))
    return calls


def _sweep_pair(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return rng, random_hermitian(n, rng), random_hermitian(n, rng)


class TestElementMemo:
    def test_a_sweep_op_eigensolves_once(self, eigensolves):
        # the context_sweep operation: register, re-register, draw a layer,
        # average over 2000 samples
        rng, a1, a2 = _sweep_pair()
        psi = QuantumState(random_unit_vector(6, rng), a1.algebra)
        registry = ContextRegistry()
        phi = ElementaryState(rng=rng, attached_vector=psi.vector)
        for alpha in rng.uniform(0.0, np.pi, 100):
            g = interpolated_generator(a1, a2, alpha)
            ctx = context_from_observable(g, registry)
            assert context_from_observable(g, registry) is ctx
            phi.ensure_layer(ctx)
            report = ensemble_average(psi, g, ctx, 2000, rng)
            assert sum(report.histogram.values()) == 2000
        assert len(registry) == 100
        assert eigensolves == [(6, 6)] * 100

    def test_re_registering_does_no_work(self, eigensolves, layer_calls):
        _, a1, a2 = _sweep_pair()
        registry = ContextRegistry()
        g = interpolated_generator(a1, a2, 0.3)
        ctx = context_from_observable(g, registry)
        assert len(eigensolves) == 1
        assert layer_calls == {"canonical_basis": 1, "register": 1}
        for _ in range(3):
            assert context_from_observable(g, registry) is ctx
        assert len(eigensolves) == 1
        assert layer_calls == {"canonical_basis": 1, "register": 1}

    def test_another_registry_misses(self, layer_calls):
        _, a1, a2 = _sweep_pair()
        g = interpolated_generator(a1, a2, 0.3)
        first, other = ContextRegistry(), ContextRegistry()
        other.register(np.eye(6), g.algebra)
        ctx = context_from_observable(g, first)
        calls = layer_calls["register"]
        found = context_from_observable(g, other)
        assert layer_calls["register"] == calls + 1
        assert found is not ctx and other.get("ctx-1") is found
        assert context_from_observable(g, first) is ctx
        assert layer_calls["register"] == calls + 2

    def test_a_collected_registry_misses(self, layer_calls):
        _, a1, a2 = _sweep_pair()
        g = interpolated_generator(a1, a2, 0.3)
        registry = ContextRegistry()
        context_from_observable(g, registry)
        alive = weakref.ref(registry)
        del registry
        gc.collect()
        assert alive() is None
        fresh = ContextRegistry()
        found = context_from_observable(g, fresh)
        assert layer_calls["register"] == 2
        assert fresh.get(found.id) is found and len(fresh) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from(["same", "copy", "near", "apart"])),
            min_size=1,
            max_size=40,
        ),
    )
    def test_ids_equal_the_unmemoized_route(self, seed, steps):
        rng, a1, a2 = _sweep_pair(seed, n=4)
        angles = rng.uniform(0.0, np.pi, 8)
        offsets = {"copy": 0.0, "near": 1e-12, "apart": 1.3e-8}
        first: dict[int, AlgebraElement] = {}
        registry, oracle = ContextRegistry(), ContextRegistry()
        for k, how in steps:
            if how == "same" and k in first:
                g = first[k]  # the same object: answered by its memo
            else:
                g = interpolated_generator(a1, a2, angles[k] + offsets.get(how, 0.0))
                first.setdefault(k, g)
            got = context_from_observable(g, registry).id
            basis = canonical_basis(np.linalg.eigh(g.matrix)[1], [g])
            assert got == oracle.register(basis, g.algebra, members=(g,)).id
        assert len(registry) == len(oracle)
