import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextqm import algebra, contexts
from contextqm.algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    commutator,
    element_fingerprint,
    norm,
    spectral_decomposition,
    spectrum,
)
from contextqm.contexts import (
    ContextRegistry,
    context_from_family,
    context_from_observable,
)
from contextqm import measurement
from contextqm.measurement import (
    GRAM_BLOCK,
    ORTHOGONALITY_TOL,
    SAME_RAY_TOL,
    Instrument,
    KsSearchResult,
    _gram_pairs,
    _orthogonal_structure,
    ks_noncontextual_search,
    load_ray_csv,
    measure,
    pauli_matrices,
    peres33_rays,
    rotated_squared_family,
    run_sequence,
    spin1_squared_observables,
    spin_axis_observable,
)
from contextqm.states import ElementaryState, is_stable
from conftest import random_hermitian, random_unit_vector


class TestSingleMeasurement:
    def test_same_instrument_repeats_exactly(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        obs = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        inst = Instrument(ctx1, "first")
        rng = np.random.default_rng(42)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        v1, phi = measure(phi, inst, obs, rng=rng)
        v2, phi = measure(phi, inst, obs, rng=rng)
        assert v1 == v2  # bit-for-bit

    def test_cross_instrument_record_reproduced_exactly(self, shared_setup):
        alg, ctx1, ctx2, shared = shared_setup
        inst1 = Instrument(ctx1, "alpha")
        inst2 = Instrument(ctx2, "beta")
        rng = np.random.default_rng(7)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        v1, phi = measure(phi, inst1, shared, rng=rng)
        v2, phi = measure(phi, inst2, shared, rng=rng)
        # Different instrument, same recorded observable: identical floats,
        # even though the rotated read-off alone would differ at 1e-16.
        assert v1 == v2
        assert is_stable(phi, shared)

    def test_acting_layer_survives_measurement(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        obs = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        inst = Instrument(ctx1, "probe")
        rng = np.random.default_rng(3)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        phi.ensure_layer(ctx1)
        before = phi.layers[ctx1.id].index
        _, phi = measure(phi, inst, obs, rng=rng)
        assert phi.layers[ctx1.id].index == before

    def test_value_lies_in_spectrum(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        obs = AlgebraElement.from_diagonal([1.5, -2.5, 0.25], alg)
        inst = Instrument(ctx1, "probe")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
            v, phi = measure(phi, inst, obs, rng=rng)
            assert v in {1.5, -2.5, 0.25}

    def test_incompatible_instruments_drop_foreign_layers(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        sx_block = AlgebraElement(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), alg
        )
        reg2 = ContextRegistry()
        c1 = reg2.register(np.eye(3, dtype=complex), alg)
        phi = ElementaryState(rng=np.random.default_rng(9))
        phi.set_layer(c1, 0)
        ctx_x = context_from_observable(sx_block, reg2)
        inst = Instrument(ctx_x, "x-block")
        _, phi = measure(phi, inst, sx_block, rng=np.random.default_rng(9))
        assert c1.id not in phi.layers
        assert ctx_x.id in phi.layers

    def test_attached_vector_projected(self):
        registry = ContextRegistry()
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        ctx = context_from_observable(sz, registry)
        inst = Instrument(ctx, "z")
        rng = np.random.default_rng(21)
        phi = ElementaryState(
            rng=rng, attached_vector=np.array([1.0, 1.0]) / np.sqrt(2)
        )
        v, phi = measure(phi, inst, sz, rng=rng)
        target = np.zeros(2)
        target[0 if v == 1.0 else 1] = 1.0
        assert np.allclose(np.abs(phi.attached_vector), target, atol=1e-12)

    def test_zero_weight_projection_raises_and_keeps_state(self):
        registry = ContextRegistry()
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], AlgebraDescriptor(3))
        ctx = context_from_observable(gen, registry)
        phi = ElementaryState(attached_vector=ctx.basis[:, 2])  # the value-1 eigenvector
        phi.set_layer(ctx, 0)  # layer 0 reads 3
        layers, stable, vector = dict(phi.layers), dict(phi.stable), phi.attached_vector
        with pytest.raises(ValueError, match="no weight"):
            measure(phi, Instrument(ctx, "probe"), gen)
        assert phi.layers == layers and phi.stable == stable
        assert phi.attached_vector is vector

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        levels=st.integers(1, 3),
    )
    def test_projection_matches_spectral_projector(self, seed, n, levels):
        # a degenerate observable of a random context: the basis vectors
        # reading the value span the eigenspace the eigensolver finds
        rng = np.random.default_rng(seed)
        ctx = context_from_observable(random_hermitian(n, rng), ContextRegistry())
        diagonal = rng.integers(0, levels, size=n).astype(float)
        element = AlgebraElement((ctx.basis * diagonal) @ ctx.basis.conj().T, ctx.algebra)
        vector = random_unit_vector(n, rng)
        phi = ElementaryState(rng=rng, attached_vector=vector)
        value, phi = measure(phi, Instrument(ctx, "probe"), element, rng=rng)
        _, projector = min(
            spectral_decomposition(element).pairs, key=lambda pair: abs(pair[0] - value)
        )
        image = projector.matrix @ vector
        expected = image / np.linalg.norm(image)
        assert np.abs(phi.attached_vector - expected).max() <= 1e-12


class TestContextsFromAnotherRegistry:
    """Every registry numbers its contexts from ``ctx-0``, so a state's layer
    under an id must not answer for another registry's context."""

    def _two_registries(self):
        alg = AlgebraDescriptor(3)
        gen_a = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        gen_b = AlgebraElement(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2.0]]), alg)
        ctx_a = context_from_observable(gen_a, ContextRegistry())
        ctx_b = context_from_observable(gen_b, ContextRegistry())
        assert ctx_a.id == ctx_b.id == "ctx-0"
        return gen_a, ctx_a, gen_b, ctx_b

    def test_measuring_another_registrys_context_raises(self):
        for seed in range(100):
            gen_a, ctx_a, gen_b, ctx_b = self._two_registries()
            phi = ElementaryState(rng=np.random.default_rng(seed))
            measure(phi, Instrument(ctx_a), gen_a)
            layers, stable = dict(phi.layers), dict(phi.stable)
            with pytest.raises(ValueError, match="another registry"):
                measure(phi, Instrument(ctx_b), gen_b)
            assert phi.layers == layers and phi.stable == stable

    def test_set_layer_rejects_another_registrys_context(self):
        _, ctx_a, _, ctx_b = self._two_registries()
        phi = ElementaryState()
        phi.set_layer(ctx_a, 0)
        phi.set_layer(ctx_a, 1)
        with pytest.raises(ValueError, match="another registry"):
            phi.set_layer(ctx_b, 0)
        assert phi.layers[ctx_a.id].context is ctx_a
        assert phi.layers[ctx_a.id].index == 1


class TestSequences:
    def test_criterion_four_plan_runs_without_eigensolves(self, shared_setup, monkeypatch):
        alg, ctx1, ctx2, shared = shared_setup
        gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        inst1, inst1b, inst2 = (
            Instrument(ctx1, "first"),
            Instrument(ctx1, "first-twin"),
            Instrument(ctx2, "second"),
        )
        plan = [(inst1, shared), (inst1, shared), (inst2, shared), (inst1b, shared)]
        plan += [(inst1, gen1), (inst1, shared)] * 2
        solved = []

        def spy(solver):
            def wrapped(a, *args, **kwargs):
                solved.append(np.shape(a))
                return solver(a, *args, **kwargs)

            return wrapped

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(3, rng))
            records = run_sequence(phi, plan, rng=rng)
            assert records[0].value == records[1].value == records[2].value
        assert solved == []

    def test_criterion_four_plan_hashes_each_element_once(self, shared_setup, monkeypatch):
        alg, ctx1, ctx2, shared = shared_setup
        gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        inst1, inst1b, inst2 = (
            Instrument(ctx1, "first"),
            Instrument(ctx1, "first-twin"),
            Instrument(ctx2, "second"),
        )
        plan = [(inst1, shared), (inst1, shared), (inst2, shared), (inst1b, shared)]
        plan += [(inst1, gen1), (inst1, shared)] * 2
        sha1 = algebra.hashlib.sha1
        hashed = []

        def spy(*args, **kwargs):
            hashed.append(1)
            return sha1(*args, **kwargs)

        monkeypatch.setattr(algebra.hashlib, "sha1", spy)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(3, rng))
            records = run_sequence(phi, plan, rng=rng)
            assert records[0].value == records[1].value == records[2].value
        assert len(hashed) == 2  # shared and gen1

    def test_a_repeat_reads_the_observable_once(self, shared_setup, monkeypatch):
        _, ctx1, _, shared = shared_setup
        inst = Instrument(ctx1, "first")
        rng = np.random.default_rng(3)
        phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(3, rng))
        first, phi = measure(phi, inst, shared, rng=rng)
        diagonal = contexts._diagonal
        reads = []

        def spy(basis, matrix):
            reads.append(matrix)
            return diagonal(basis, matrix)

        monkeypatch.setattr(contexts, "_diagonal", spy)
        second, phi = measure(phi, inst, shared, rng=rng)
        assert second == first
        assert len(reads) == 1
        assert list(phi.stable) == [element_fingerprint(shared)]

    def test_alternating_compatible_pairs_repeat_exactly(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        a = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        b = AlgebraElement.from_diagonal([-1.0, 0.5, 2.0], alg)
        inst = Instrument(ctx1, "joint")
        rng = np.random.default_rng(13)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        records = run_sequence(
            phi, [(inst, a), (inst, b), (inst, a), (inst, b)], rng=rng
        )
        assert records[0].value == records[2].value
        assert records[1].value == records[3].value

    def test_incompatible_alternation_disturbs_some_run(self):
        registry = ContextRegistry()
        alg = AlgebraDescriptor(2)
        sz = AlgebraElement.from_diagonal([1.0, -1.0], alg)
        sx = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), alg)
        cz = context_from_observable(sz, registry)
        cx = context_from_observable(sx, registry)
        iz, ix = Instrument(cz, "z"), Instrument(cx, "x")
        disturbed = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            phi = ElementaryState(
                rng=rng, attached_vector=np.array([0.8, 0.6])
            )
            records = run_sequence(
                phi, [(iz, sz), (ix, sx), (iz, sz)], rng=rng
            )
            if records[0].value != records[2].value:
                disturbed += 1
        assert disturbed > 0  # intervening incompatible step disturbs

    def test_each_step_yields_single_outcome(self, shared_setup):
        alg, ctx1, ctx2, shared = shared_setup
        i1, i2 = Instrument(ctx1, "a"), Instrument(ctx2, "b")
        rng = np.random.default_rng(5)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        records = run_sequence(phi, [(i1, shared), (i2, shared)], rng=rng)
        assert len(records) == 2
        for step, record in enumerate(records):
            assert record.step == step
            assert isinstance(record.value, float)

    def test_empty_plan_rejected(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_sequence(phi, [], rng=np.random.default_rng(0))

    def test_transcript_json(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        a = AlgebraElement.from_diagonal([1.0, 2.0, 3.0], alg)
        inst = Instrument(ctx1, "probe")
        rng = np.random.default_rng(1)
        phi = ElementaryState(rng=rng, attached_vector=np.ones(3) / np.sqrt(3))
        records = run_sequence(phi, [(inst, a), (inst, a)], rng=rng)
        assert [r.step for r in records] == [0, 1]
        assert [r.instrument_label for r in records] == ["probe", "probe"]
        assert records[0].value == records[1].value
        assert records[1].post_stable == {records[1].observable_fingerprint}


class TestSpinObservables:
    def test_pauli_algebra(self):
        sx, sy, sz = pauli_matrices()
        assert np.max(np.abs(commutator(sx, sy).matrix - 2j * sz.matrix)) <= 1e-15
        assert spectrum(sx) == [-1.0, 1.0]
        assert spectrum(sy) == [-1.0, 1.0]
        assert spectrum(sz) == [-1.0, 1.0]

    def test_axis_observable_interpolates(self):
        # Angle is measured from the x-axis in the x-z plane.
        sx, _, sz = pauli_matrices()
        at0 = spin_axis_observable(0.0)
        assert np.array_equal(at0.matrix, sx.matrix)
        at90 = spin_axis_observable(np.pi / 2)
        assert np.max(np.abs(at90.matrix - sz.matrix)) <= 1e-15
        for theta in (0.3, 1.1, 2.0):
            assert spectrum(spin_axis_observable(theta)) == pytest.approx(
                [-1.0, 1.0], abs=1e-12
            )

    def test_spin1_squares(self):
        squares = spin1_squared_observables()
        total = sum(q.matrix for q in squares)
        assert np.max(np.abs(total - 2 * np.eye(3))) <= 1e-12
        for q in squares:
            assert spectrum(q) == pytest.approx([0.0, 1.0], abs=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert norm(commutator(squares[i], squares[j])) <= 1e-12

    def test_squares_jointly_nondegenerate(self, registry):
        ctx = context_from_family(spin1_squared_observables(), registry)
        assert ctx.dimension == 3

    def test_rotated_family_identity_frame(self):
        base = spin1_squared_observables()
        rotated = rotated_squared_family(np.eye(3))
        for a, b in zip(base, rotated):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_rotated_family_shares_common_axis(self, registry):
        base = spin1_squared_observables()
        phi = 0.7
        frame = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(phi), np.sin(phi)],
                [0.0, -np.sin(phi), np.cos(phi)],
            ]
        )
        rotated = rotated_squared_family(frame)
        assert np.max(np.abs(rotated[0].matrix - base[0].matrix)) <= 1e-12
        # The y', z' squares do not commute with the unrotated y, z squares.
        assert norm(commutator(rotated[1], base[1])) > 0.01
        c1 = context_from_family(base, registry)
        c2 = context_from_family(rotated, registry)
        assert c1 is not c2

    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(ValueError):
            rotated_squared_family(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]]))

    @pytest.mark.parametrize("frame", [np.eye(2), np.eye(3)[:2], np.eye(4)[:3]])
    def test_frame_that_is_not_three_by_three_rejected(self, frame):
        with pytest.raises(ValueError, match="three 3-vectors"):
            rotated_squared_family(frame)


class TestKsSearch:
    def test_rays_that_are_not_normalized_rejected(self):
        with pytest.raises(ValueError, match="rays must be normalized"):
            ks_noncontextual_search(2.0 * np.eye(3))

    def test_single_triad_is_satisfiable(self):
        rays = np.eye(3)
        result = ks_noncontextual_search(rays)
        assert result.assignment is not None
        assert sorted(result.assignment.values()) == [0, 1, 1]
        assert result.triad_count == 1

    def test_two_triads_sharing_a_ray(self):
        s = 1 / np.sqrt(2)
        rays = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, s, s],
                [0.0, s, -s],
            ]
        )
        result = ks_noncontextual_search(rays)
        assert result.assignment is not None
        assert result.triad_count == 2

    def test_peres_rays_unsatisfiable(self):
        rays = peres33_rays()
        result = ks_noncontextual_search(rays)
        assert result.assignment is None
        assert result.exhausted
        assert result.ray_count == 33
        assert result.triad_count == 16
        assert result.pair_count == 72
        assert result.nodes > 0

    def test_pair_rule_is_load_bearing(self):
        # Without the orthogonal-pair constraint the Peres rays admit a
        # (physically inadmissible) assignment; the full rule set does not.
        rays = peres33_rays()
        relaxed = ks_noncontextual_search(rays, pair_rule=False)
        assert relaxed.assignment is not None
        strict = ks_noncontextual_search(rays, pair_rule=True)
        assert strict.assignment is None

    def test_found_assignment_satisfies_rules(self):
        s = 1 / np.sqrt(2)
        rays = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [s, s, 0.0],
                [s, -s, 0.0],
            ]
        )
        result = ks_noncontextual_search(rays)
        assignment = result.assignment
        assert assignment is not None
        # Every mutually orthogonal triple carries exactly one 0.
        gram = np.abs(rays @ rays.T)
        n = len(rays)
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i, j] > 1e-9:
                    continue
                assert assignment[i] + assignment[j] >= 1  # not both 0
                for k in range(j + 1, n):
                    if gram[i, k] <= 1e-9 and gram[j, k] <= 1e-9:
                        trio = (
                            assignment[i] + assignment[j] + assignment[k]
                        )
                        assert trio == 2

    def test_rays_without_triads_rejected(self):
        rays = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            ks_noncontextual_search(rays)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            ks_noncontextual_search(np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ray_rejected(self, bad):
        rays = np.vstack([np.eye(3), [[bad, 0.0, 0.0]]])
        with pytest.raises(ValueError, match="finite"):
            ks_noncontextual_search(rays)


def _nested_loop_structure(rays: np.ndarray):
    """Reference for ``_orthogonal_structure``: pairs from a nested loop."""
    m = len(rays)
    dots = np.abs(rays @ rays.T)
    pairs = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if dots[i, j] <= ORTHOGONALITY_TOL
    ]
    orth = {i: set() for i in range(m)}
    for i, j in pairs:
        orth[i].add(j)
        orth[j].add(i)
    triads = [
        (i, j, k)
        for i, j in pairs
        for k in orth[i] & orth[j]
        if k > j
    ]
    return pairs, triads, orth


def _recursive_search(rays, pair_rule: bool = True) -> KsSearchResult:
    """Reference search: recursive backtracking over three closures.

    Kept unchanged as the oracle for ``ks_noncontextual_search`` except
    that it calls ``_nested_loop_structure`` and leaves ``exhausted`` to
    the result's property.
    """
    rays = np.asarray(rays, dtype=float)
    if rays.ndim != 2 or rays.shape[1] != 3 or len(rays) == 0:
        raise ValueError("rays must be a nonempty list of 3-vectors")
    norms = np.linalg.norm(rays, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise ValueError("rays must be normalized")

    pairs, triads, orth = _nested_loop_structure(rays)
    if not triads:
        raise ValueError("ray set contains no complete orthogonal triad")

    m = len(rays)
    values = [None] * m
    pair_partners = orth if pair_rule else {i: set() for i in range(m)}
    triads_of = {i: [] for i in range(m)}
    for t, triad in enumerate(triads):
        for i in triad:
            triads_of[i].append(t)

    nodes = 0

    def consistent(i) -> bool:
        """Local constraint check after ray i got a value."""
        if values[i] == 0:
            for j in pair_partners[i]:
                if values[j] == 0:
                    return False
        for t in triads_of[i]:
            assigned = [values[k] for k in triads[t] if values[k] is not None]
            zeros = assigned.count(0)
            if zeros > 1:
                return False
            if len(assigned) == 3 and zeros != 1:
                return False
        return True

    def propagate(i, trail) -> bool:
        """Force values implied by ray i's assignment; record them on trail."""
        queue = [i]
        while queue:
            current = queue.pop()
            if values[current] == 0 and pair_partners[current]:
                for j in pair_partners[current]:
                    if values[j] is None:
                        values[j] = 1
                        trail.append(j)
                        if not consistent(j):
                            return False
                        queue.append(j)
            for t in triads_of[current]:
                triad = triads[t]
                assigned = [k for k in triad if values[k] is not None]
                if len(assigned) == 2:
                    (free,) = (k for k in triad if values[k] is None)
                    zeros = sum(1 for k in assigned if values[k] == 0)
                    forced = 1 if zeros == 1 else 0
                    values[free] = forced
                    trail.append(free)
                    if not consistent(free):
                        return False
                    queue.append(free)
        return True

    def search() -> bool:
        nonlocal nodes
        try:
            pivot = values.index(None)
        except ValueError:
            return True
        for candidate in (0, 1):
            nodes += 1
            trail = [pivot]
            values[pivot] = candidate
            if consistent(pivot) and propagate(pivot, trail) and search():
                return True
            for k in trail:
                values[k] = None
        return False

    found = search()
    return KsSearchResult(
        assignment={i: int(values[i]) for i in range(m)} if found else None,
        nodes=nodes,
        ray_count=m,
        triad_count=len(triads),
        pair_count=len(pairs),
    )


def _lexicographically_first_valuation(rays, pair_rule):
    """The first of all 2^m valuations, ray 0 most significant, that puts
    one 0 in every triad (and, under the pair rule, no 0 on both rays of
    an orthogonal pair); None when there is none."""
    pairs, triads, _ = _nested_loop_structure(rays)
    m = len(rays)
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    valid = np.ones(2**m, dtype=bool)
    for triad in triads:
        valid &= bits[:, list(triad)].sum(axis=1) == 2
    if pair_rule:
        for i, j in pairs:
            valid &= (bits[:, i] | bits[:, j]) == 1
    rows = np.flatnonzero(valid)
    return {i: int(v) for i, v in enumerate(bits[rows[0]])} if len(rows) else None


def _ray_set(subset, extra_seed):
    """The listed Peres rays in that order, plus one random orthonormal triad
    when ``extra_seed`` is not None."""
    rays = peres33_rays()[list(subset)]
    if extra_seed is not None:
        frame, _ = np.linalg.qr(np.random.default_rng(extra_seed).normal(size=(3, 3)))
        rays = np.vstack([rays, frame.T])
    return rays


_extra_triad = st.none() | st.integers(0, 2**32 - 1)


class TestKsSearchAgainstReferences:
    def test_structure_matches_the_nested_loop(self):
        rays = _ray_set(range(33), 5)
        assert _orthogonal_structure(rays) == _nested_loop_structure(rays)

    @settings(max_examples=300, deadline=None)
    @given(
        order=st.permutations(range(33)),
        size=st.integers(3, 33),
        extra_seed=_extra_triad,
        pair_rule=st.booleans(),
    )
    @example(order=list(range(33)), size=33, extra_seed=None, pair_rule=True)
    @example(order=list(range(32, -1, -1)), size=33, extra_seed=7, pair_rule=True)
    @example(order=list(range(33)), size=33, extra_seed=None, pair_rule=False)
    def test_matches_the_recursive_search(self, order, size, extra_seed, pair_rule):
        rays = _ray_set(order[:size], extra_seed)
        try:
            expected = _recursive_search(rays, pair_rule).to_json_dict()
        except ValueError:
            with pytest.raises(ValueError):
                ks_noncontextual_search(rays, pair_rule)
            return
        assert ks_noncontextual_search(rays, pair_rule).to_json_dict() == expected

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.permutations(range(33)),
        size=st.integers(3, 14),
        extra_seed=_extra_triad,
        pair_rule=st.booleans(),
    )
    def test_finds_the_lexicographically_first_valuation(self, order, size, extra_seed, pair_rule):
        # No Kochen-Specker set in three dimensions has fewer than 22 rays,
        # so sets this small always have a valuation; UNSAT is covered by
        # the comparison with the recursive search.
        rays = _ray_set(order[: size if extra_seed is None else size - 3], extra_seed)
        if not _nested_loop_structure(rays)[1]:
            with pytest.raises(ValueError):
                ks_noncontextual_search(rays, pair_rule)
            return
        result = ks_noncontextual_search(rays, pair_rule)
        assert result.assignment == _lexicographically_first_valuation(rays, pair_rule)


class TestRayCatalogue:
    def test_peres_checksum_and_shape(self):
        rays = peres33_rays()
        assert rays.shape == (33, 3)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)

    def test_rays_pairwise_distinct_up_to_sign(self):
        rays = peres33_rays()
        gram = np.abs(rays @ rays.T)
        off = gram - np.diag(np.diag(gram))
        assert np.max(off) < 1.0 - 1e-9

    def test_load_ray_csv_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,0.0\n")
        with pytest.raises(ValueError):
            load_ray_csv(bad)

    @pytest.mark.parametrize("bad_line", ["nan,0,1", "inf,0,1", "1,0,x", "1,0,0,0"])
    def test_load_ray_csv_names_the_bad_line(self, tmp_path, bad_line):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# header\n0,1,0\n{bad_line}\n")
        with pytest.raises(ValueError, match="line 3"):
            load_ray_csv(bad)

    def test_load_ray_csv_rejects_zero_vector(self, tmp_path):
        bad = tmp_path / "zero.csv"
        bad.write_text("0.0,0.0,0.0\n")
        with pytest.raises(ValueError):
            load_ray_csv(bad)

    def test_load_ray_csv_skips_comments_and_normalizes(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("# a comment\n2.0,0.0,0.0\n0.0,3.0,3.0\n")
        rays = load_ray_csv(good)
        assert rays.shape == (2, 3)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("1,0,0\n1,0,0\n0,1,0\n0,0,1\n", (1, 2)),
            ("# antiparallel\n0,1,0\n1,0,0\n\n0,0,1\n-2,0,0\n", (3, 6)),
            ("1,1,0\n1,-1,0\n0,0,1\n1,1.00000001,0\n", (1, 4)),
        ],
        ids=["parallel", "antiparallel", "within-tolerance"],
    )
    def test_load_ray_csv_rejects_a_repeated_ray(self, tmp_path, text, lines):
        bad = tmp_path / "repeat.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"lines {lines[0]} and {lines[1]}: the same ray"):
            load_ray_csv(bad)

    def test_repeated_ray_is_a_ks_search_usage_error(self, tmp_path):
        from click.testing import CliRunner

        from contextqm.cli import main

        bad = tmp_path / "repeat.csv"
        bad.write_text("1,0,0\n1,0,0\n0,1,0\n0,0,1\n")
        result = CliRunner().invoke(main, ["ks-search", "--ray-file", str(bad)])
        assert result.exit_code == 2
        assert "lines 1 and 2" in result.stderr and result.stdout == ""

    def test_bundled_rays_are_distinct_well_within_the_tolerance(self, tmp_path):
        rays = peres33_rays()
        overlaps = np.abs(rays @ rays.T) - np.eye(len(rays))
        assert overlaps.max() < 0.99 < 1.0 - SAME_RAY_TOL
        copy = tmp_path / "peres33.csv"
        copy.write_text("\n".join(",".join(repr(x) for x in ray) for ray in rays.tolist()))
        assert load_ray_csv(copy).shape == rays.shape

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_ray_csv(empty)


def _orthogonal(overlap):
    return overlap <= ORTHOGONALITY_TOL


def _same(overlap):
    return overlap >= 1.0 - SAME_RAY_TOL


def _dense_pairs(rays, keep):
    """Reference for ``_gram_pairs``: one argwhere over the whole m x m Gram."""
    return np.argwhere(np.triu(keep(np.abs(rays @ rays.T)), 1))


def _random_triads(count, seed):
    """``count`` random orthonormal triads, three rays each, as rows."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.linalg.qr(rng.normal(size=(3, 3)))[0].T for _ in range(count)])


class TestBlockedGramScan:
    def test_bundled_rays_are_one_block_and_match_the_dense_scan(self):
        rays = peres33_rays()
        assert len(rays) <= GRAM_BLOCK
        orthogonal = _gram_pairs(rays, _orthogonal)
        assert np.array_equal(orthogonal, _dense_pairs(rays, _orthogonal))
        assert len(orthogonal) == 72
        assert _gram_pairs(rays, _same).shape == (0, 2)

    @pytest.mark.parametrize("triads, seed", [(90, 1), (200, 2), (301, 3)])
    def test_matches_the_dense_scan_across_blocks(self, triads, seed):
        rays = _random_triads(triads, seed)
        rng = np.random.default_rng(seed)
        # copies, some flipped, so that both predicates find pairs in every block
        picks = rng.choice(len(rays), size=40, replace=False)
        rays = np.vstack([rays, rays[picks] * rng.choice([-1.0, 1.0], size=(40, 1))])
        assert len(rays) % GRAM_BLOCK
        for keep in (_orthogonal, _same):
            blocked = _gram_pairs(rays, keep)
            assert np.array_equal(blocked, _dense_pairs(rays, keep))
        assert len(_gram_pairs(rays, _same)) >= 40

    @pytest.mark.parametrize("block", [1, 5, 32, 34])
    def test_any_block_size_gives_the_nested_loop_structure(self, monkeypatch, block):
        monkeypatch.setattr(measurement, "GRAM_BLOCK", block)
        rays = _ray_set(range(33), 5)
        assert _orthogonal_structure(rays) == _nested_loop_structure(rays)

    def test_repeated_ray_past_the_first_block_names_the_first_pair(self, tmp_path):
        rays = _random_triads(200, 4)
        rays[599] = -2.0 * rays[300]  # row-major first: row 300
        rays[450] = rays[400]  # found at an earlier column, in a later row
        unit = rays / np.linalg.norm(rays, axis=1)[:, None]
        assert _dense_pairs(unit, _same).tolist() == [[300, 599], [400, 450]]
        bad = tmp_path / "repeat.csv"
        bad.write_text("# header\n" + "\n".join(",".join(repr(x) for x in ray) for ray in rays.tolist()))
        with pytest.raises(ValueError, match="lines 302 and 601: the same ray"):
            load_ray_csv(bad)

    def test_no_m_by_m_array_is_formed(self):
        rays = _random_triads(1100, 1100)
        m = len(rays)
        tracemalloc.start()
        try:
            pairs, triads, _ = _orthogonal_structure(rays)
            _, orthogonal_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert _gram_pairs(rays, _same).shape == (0, 2)
            _, same_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(pairs), len(triads)) == (3300, 1100)
        # one m x m boolean mask alone would take m * m bytes
        assert max(orthogonal_peak, same_peak) < m * m
