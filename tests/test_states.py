import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextqm.algebra import AlgebraDescriptor, AlgebraElement
from contextqm.contexts import (
    Context,
    ContextRegistry,
    context_from_observable,
)
from contextqm.measurement import Instrument, measure
from contextqm.states import (
    ElementaryState,
    _cdf,
    agreeing,
    check_character_properties,
    construct_stable_on,
    construct_state,
    count_draws,
    draw_indices,
    evaluate,
    is_stable,
)
from conftest import ChoiceSpy, random_hermitian, random_unit_vector


class TestEvaluate:
    def test_explicit_assignment_reads_off_eigenvalue(self, registry):
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(gen, registry)
        phi = construct_state({ctx.id: 2}, registry)
        obs = AlgebraElement.from_diagonal([10.0, 20.0, 30.0], alg)
        assert evaluate(phi, ctx, obs) == 30.0

    def test_identity_and_zero(self, registry):
        alg = AlgebraDescriptor(2)
        ctx = context_from_observable(
            AlgebraElement.from_diagonal([1.0, -1.0], alg), registry
        )
        phi = construct_state({ctx.id: 0}, registry)
        assert evaluate(phi, ctx, AlgebraElement.identity(alg)) == 1.0
        assert evaluate(phi, ctx, AlgebraElement.zero(alg)) == 0.0

    def test_unknown_context_id_rejected(self, registry):
        with pytest.raises(KeyError):
            construct_state({"ctx-99": 0}, registry)

    def test_index_out_of_range_rejected(self, registry):
        alg = AlgebraDescriptor(2)
        ctx = context_from_observable(
            AlgebraElement.from_diagonal([1.0, -1.0], alg), registry
        )
        with pytest.raises(ValueError):
            construct_state({ctx.id: 2}, registry)


class TestOneRead:
    """Values come from the one read that decides membership."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_every_value_is_the_diagonal_read(self, seed, n):
        rng = np.random.default_rng(seed)
        registry = ContextRegistry()
        ctx = context_from_observable(random_hermitian(n, rng), registry)
        member = AlgebraElement(
            (ctx.basis * rng.normal(size=n)) @ ctx.basis.conj().T, ctx.algebra
        )
        reads = ctx.diagonal_values(member)
        phi = ElementaryState(rng=rng, attached_vector=random_unit_vector(n, rng))
        value = evaluate(phi, ctx, member)
        index = phi.layers[ctx.id].index
        assert value == reads[index]
        assert phi.layers[ctx.id].value(member) == reads[index]
        fresh = ElementaryState(rng=rng)
        measured, fresh = measure(fresh, Instrument(ctx), member)
        assert measured == reads[fresh.layers[ctx.id].index]


class TestNoRecordsNoMask:
    """With no stable records, every index is admissible without a read."""

    @pytest.mark.parametrize("attached", [True, False])
    def test_the_draw_is_the_full_mask_draw_and_reads_nothing(self, monkeypatch, attached):
        read = Context.diagonal_values
        reads = []
        monkeypatch.setattr(
            Context, "diagonal_values", lambda ctx, el: reads.append(el) or read(ctx, el)
        )
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ctx = context_from_observable(random_hermitian(4, rng), ContextRegistry())
            vector = random_unit_vector(4, rng) if attached else None
            phi = ElementaryState(rng=np.random.default_rng([seed, 1]), attached_vector=vector)
            oracle = np.random.default_rng([seed, 1])
            if attached:
                weights = np.abs(ctx.basis.conj().T @ phi.attached_vector) ** 2
                weights = weights / weights.sum()
            else:
                weights = np.full(4, 0.25)
            reads.clear()
            assert phi.ensure_layer(ctx).index == oracle.choice(4, p=weights)
            assert phi.rng.bit_generator.state == oracle.bit_generator.state
            assert reads == []


class TestLazyLayers:
    def test_attached_eigenvector_forces_index(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        phi = ElementaryState(
            rng=np.random.default_rng(5), attached_vector=np.array([1.0, 0.0, 0.0])
        )
        ch = phi.ensure_layer(ctx1)
        assert ch.index == 0

    def test_missing_rng_with_ambiguous_draw_rejected(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        phi = ElementaryState()
        with pytest.raises(ValueError):
            phi.ensure_layer(ctx1)

    def test_stable_record_conditions_draw(self, shared_setup):
        alg, ctx1, _, shared = shared_setup
        phi = ElementaryState()
        phi.add_stable_record(shared, 7.0)
        # Only index 0 of ctx1 (eigenvalue 3 column = e1? no: read-off 7 sits
        # on the third standard vector, context order puts it at index 2).
        ch = phi.ensure_layer(ctx1)
        assert evaluate(phi, ctx1, shared) == 7.0

    def test_contradictory_records_leave_no_admissible_index(self, shared_setup):
        alg, ctx1, _, shared = shared_setup
        phi = ElementaryState()
        phi.add_stable_record(shared, 6.0)  # 6 is not in the spectrum {5, 7}
        with pytest.raises(ValueError):
            phi.ensure_layer(ctx1)

    def test_attached_vector_without_weight_on_admissible_indices_rejected(self, shared_setup):
        # the record admits only the vector read 7, e_3, and the vector is e_1
        _, ctx1, _, shared = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(0), attached_vector=[1.0, 0.0, 0.0])
        phi.add_stable_record(shared, 7.0)
        with pytest.raises(ValueError, match=f"no weight on admissible indices of {ctx1.id}"):
            phi.ensure_layer(ctx1)
        assert phi.layers == {}

    def test_born_weights_used_for_attached_vector(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        weights = np.array([0.8, 0.15, 0.05])
        vec = np.sqrt(weights)
        counts = np.zeros(3)
        for seed in range(400):
            phi = ElementaryState(
                rng=np.random.default_rng(seed), attached_vector=vec
            )
            counts[phi.ensure_layer(ctx1).index] += 1
        freq = counts / counts.sum()
        se = np.sqrt(weights * (1 - weights) / 400)
        assert np.all(np.abs(freq - weights) <= 4 * se + 1e-9)

    @pytest.mark.parametrize(
        "vector",
        [
            np.zeros(3),
            np.array([np.nan, 1.0, 0.0]),
            np.array([np.inf, 0.0, 0.0]),
            np.eye(2),
            np.complex128(1.0),
        ],
    )
    def test_zero_or_non_finite_attached_vector_rejected(self, vector):
        with pytest.raises(ValueError):
            ElementaryState(attached_vector=vector)

    @pytest.mark.parametrize("stored", [False, True], ids=["fresh", "stored"])
    def test_attached_vector_of_another_length_is_rejected(self, shared_setup, stored):
        _, ctx1, _, _ = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(1), attached_vector=np.ones(2))
        if stored:
            phi.set_layer(ctx1, 0)
        with pytest.raises(ValueError, match=f"length 2, context {ctx1.id} has dimension 3"):
            phi.ensure_layer(ctx1)

    def test_layer_is_drawn_once_then_fixed(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(11))
        first = phi.ensure_layer(ctx1).index
        for _ in range(5):
            assert phi.ensure_layer(ctx1).index == first


class TestStability:
    def test_identity_always_stable(self, shared_setup):
        alg, ctx1, _, _ = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(0))
        phi.set_layer(ctx1, 0)
        assert is_stable(phi, AlgebraElement.identity(alg))

    def test_independent_layers_break_stability(self, shared_setup, registry):
        alg, ctx1, ctx2, shared = shared_setup
        # ctx1 index 0 reads 5; ctx2 index 0 (the e3 column) reads 7.
        phi = construct_state({ctx1.id: 0, ctx2.id: 0}, registry)
        assert evaluate(phi, ctx1, shared) == 5.0
        assert evaluate(phi, ctx2, shared) == 7.0
        assert not is_stable(phi, shared)

    def test_agreeing_layers_are_stable(self, shared_setup, registry):
        alg, ctx1, ctx2, shared = shared_setup
        phi = construct_state({ctx1.id: 2, ctx2.id: 0}, registry)
        assert evaluate(phi, ctx1, shared) == 7.0
        assert evaluate(phi, ctx2, shared) == 7.0
        assert is_stable(phi, shared)

    def test_stability_requires_membership_everywhere_it_claims(self, shared_setup):
        alg, ctx1, ctx2, shared = shared_setup
        phi = ElementaryState(rng=np.random.default_rng(2))
        phi.set_layer(ctx1, 1)
        # Observable lives only in ctx1; single layer, trivially stable.
        gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        assert is_stable(phi, gen1)


class TestConstructStableOn:
    def test_seed_value_propagates_to_other_contexts(self, shared_setup, registry):
        alg, ctx1, ctx2, shared = shared_setup
        phi = construct_stable_on(
            ctx1, 2, [ctx2], rng=np.random.default_rng(3)
        )
        assert evaluate(phi, ctx1, shared) == 7.0
        assert evaluate(phi, ctx2, shared) == 7.0
        assert is_stable(phi, shared)

    def test_degenerate_value_leaves_freedom_within_block(self, shared_setup):
        alg, ctx1, ctx2, shared = shared_setup
        seen = set()
        for seed in range(30):
            phi = construct_stable_on(
                ctx1, 0, [ctx2], rng=np.random.default_rng(seed)
            )
            # Read-off through the rotated basis carries float rounding.
            assert evaluate(phi, ctx2, shared) == pytest.approx(5.0, abs=1e-12)
            seen.add(phi.layers[ctx2.id].index)
        # Both x-block indices of ctx2 read 5; the draw explores both.
        assert seen == {1, 2}

    def test_no_other_contexts(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        phi = construct_stable_on(ctx1, 1, [])
        assert phi.layers[ctx1.id].index == 1

    def test_another_registrys_context_with_the_seed_id_rejected(self, shared_setup):
        # both registries name their first context ctx-0: skipping ``other``
        # by id would silently drop it, so it is set and rejected instead
        alg, ctx1, _, _ = shared_setup
        gen = AlgebraElement(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2.0]]), alg)
        foreign = context_from_observable(gen, ContextRegistry())
        assert foreign.id == ctx1.id and foreign is not ctx1
        with pytest.raises(ValueError, match="another registry"):
            construct_stable_on(ctx1, 0, [foreign])

    @pytest.mark.parametrize("other", [AlgebraDescriptor(3, (1, 2)), AlgebraDescriptor(2)])
    def test_a_context_of_another_algebra_is_refused(self, shared_setup, other):
        _, ctx1, _, _ = shared_setup
        gen = AlgebraElement.from_diagonal(np.arange(other.dimension, dtype=float), other)
        foreign = context_from_observable(gen, ContextRegistry())
        with pytest.raises(
            ValueError, match=f"context {foreign.id} belongs to a different algebra"
        ):
            construct_stable_on(ctx1, 0, [foreign])

    def test_index_validated(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        with pytest.raises(ValueError):
            construct_stable_on(ctx1, 5, [])


class TestAttachedStateLifecycle:
    def test_json_shape(self, shared_setup, registry):
        _, ctx1, _, shared = shared_setup
        phi = construct_state({ctx1.id: 2}, registry)
        phi.add_stable_record(shared, 7.0)
        assert [(ctx_id, layer.index) for ctx_id, layer in phi.layers.items()] == [(ctx1.id, 2)]
        (fingerprint, record), = phi.stable.items()
        assert record.value == 7.0 and record.element is shared
        assert fingerprint == record.fingerprint and isinstance(fingerprint, str)


class TestCharacterProperties:
    def test_report_on_explicit_layer(self, registry, rng):
        alg = AlgebraDescriptor(3)
        h = random_hermitian(3, rng)
        ctx = context_from_observable(h, registry)
        phi = construct_state({ctx.id: 1}, registry)
        report = check_character_properties(phi, ctx, samples=10, rng=rng)
        assert report["ok"]
        assert report["max_residual"] <= 1e-9
        assert report["context_id"] == ctx.id
        assert report["character_index"] == 1

    def test_report_covers_all_axioms(self, registry, rng):
        alg = AlgebraDescriptor(4)
        h = random_hermitian(4, rng)
        ctx = context_from_observable(h, registry)
        phi = construct_state({ctx.id: 0}, registry)
        report = check_character_properties(phi, ctx, samples=6, rng=rng)
        for key in (
            "zero_residual",
            "unit_residual",
            "linearity_residual",
            "multiplicativity_residual",
            "square_negativity",
            "spectrum_membership_residual",
            "spectrum_exhaustion_residual",
        ):
            assert key in report
            assert report[key] <= 1e-9

    def test_exhaustion_sees_every_index(self, registry, rng):
        # Ranging over all characters of the context recovers the full spectrum.
        alg = AlgebraDescriptor(3)
        gen = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
        ctx = context_from_observable(gen, registry)
        obs = AlgebraElement.from_diagonal([10.0, 20.0, 30.0], alg)
        values = set()
        for k in range(3):
            phi = construct_state({ctx.id: k}, registry)
            values.add(evaluate(phi, ctx, obs))
        assert values == {10.0, 20.0, 30.0}


def _below(x):
    """The float just below ``x``."""
    return float(np.nextafter(x, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    reads=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=7),
    picks=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from([0.0, 1e-12, -1e-9, 1e-9, 2e-9, 1e-6])),
        min_size=1,
        max_size=7,
    ),
)
def test_agreeing_on_a_column_of_values_is_the_rule_per_value(reads, picks):
    # values at, near and beyond STABILITY_TOL of the reads, scaled by |value| above 1
    reads = np.array(reads)
    values = [reads[i % len(reads)] * (1 + step) + step for i, step in picks]
    rows = agreeing(reads, np.array(values)[:, None])
    assert rows.tolist() == [agreeing(reads, value).tolist() for value in values]


class Uniforms:
    """A generator whose uniforms are given: one at a time, or an array of them."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, size=None):
        if size is None:
            out, self.values = float(self.values[0]), self.values[1:]
            return out
        out, self.values = self.values[:size], self.values[size:]
        return out


@pytest.mark.parametrize(
    "probs, uniforms, indices",
    [
        # cdf 0.25, 0.5, 1.0
        ([0.25, 0.25, 0.5], [0.0, 0.25, 0.5, 0.2, 0.75, _below(0.25)], [0, 1, 2, 0, 2, 0]),
        # zero weights inside and at the end: cdf 0.5, 0.5, 1.0, 1.0
        (
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, _below(0.5), 0.75, _below(1.0), 0.25],
            [0, 2, 0, 2, 2, 0],
        ),
    ],
)
def test_zero_weights_and_shapes_draw_the_counted_index(probs, uniforms, indices):
    probs, size = np.array(probs), len(uniforms)
    given = Uniforms(uniforms)
    drawn = [draw_indices(probs, given) for _ in range(size)]
    assert all(type(index) is int for index in drawn) and drawn == indices
    expected = np.bincount(indices, minlength=len(probs)).tolist()
    assert count_draws(probs, Uniforms(uniforms), size).tolist() == expected


@settings(max_examples=300, deadline=None)
@example(weights=[1.0], scale=1.0)
@example(weights=[0.0, 1.0, 0.0], scale=1.0)
@example(weights=[5e-324, 1.0, 5e-324], scale=1.0)
@example(weights=[0.1] * 10, scale=1.0)  # the running sum ends below 1
@given(
    weights=st.lists(
        st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 5e-324, 1e-300])),
        min_size=1,
        max_size=24,
    ),
    scale=st.floats(1.0 - 2e-8, 1.0 + 2e-8),
)
def test_the_last_cdf_entry_is_exactly_one(weights, scale):
    # why count_draws gives the last index every draw left: no uniform in [0, 1) reaches 1.0
    p = np.array(weights) / math.fsum(weights) * scale if sum(weights) else np.array(weights)
    try:
        cdf = _cdf(p)
    except ValueError:
        return  # a p that Generator.choice refuses, too
    assert cdf[-1] == 1.0


# weights with zero-probability outcomes and single outcomes among them
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=7
).filter(lambda w: sum(w) > 0)


class TestBornDraws:
    """``draw_indices`` and ``count_draws`` against ``Generator.choice``."""

    @settings(max_examples=120, deadline=None)
    @given(
        weights=_weights,
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(st.none(), st.integers(0, 3000)),
    )
    def test_indices_and_counts_equal_choice(self, weights, seed, size):
        probs = np.array(weights) / sum(weights)
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if size is None:
            expected = oracle.choice(len(probs), p=probs)
            drawn = draw_indices(probs, rng)
            assert type(drawn) is type(expected) and drawn == expected
            assert rng.random() == oracle.random()
        if isinstance(size, int):
            oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = np.bincount(oracle.choice(len(probs), size, p=probs), minlength=len(probs))
            counts = count_draws(probs, rng, size)
            assert counts.tolist() == expected.tolist()
            assert rng.random() == oracle.random()

    @settings(max_examples=200, deadline=None)
    @example(p=[0.5, np.nan], seed=0)  # each check choice makes, in its order
    @example(p=[np.inf, -np.inf], seed=0)
    @example(p=[1.5, -0.5], seed=0)
    @example(p=[0.5, 0.6], seed=0)
    @example(p=[0.0], seed=0)
    @given(
        p=st.lists(
            st.one_of(st.floats(width=64), st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0])),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bad_weights_raise_as_choice_does(self, p, seed):
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = oracle.choice(len(p), 5, p=p)
        except ValueError as exc:
            with pytest.raises(ValueError) as ours:
                draw_indices(np.array(p), rng)
            assert str(exc).startswith(str(ours.value))
            with pytest.raises(ValueError, match=str(ours.value)):
                count_draws(np.array(p), rng, 5)
        else:
            counts = np.bincount(expected, minlength=len(p))
            assert count_draws(np.array(p), rng, 5).tolist() == counts.tolist()
        assert rng.random() == oracle.random()

    def test_two_dimensional_weights_raise_as_choice_does(self):
        p = np.full((2, 2), 0.25)
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).choice(4, 5, p=p)
        with pytest.raises(ValueError) as ours:
            draw_indices(p, np.random.default_rng(0))
        assert str(ours.value) == str(expected.value) == "p must be 1-dimensional"

    def test_a_uniform_on_a_cdf_value_draws_the_next_index(self):
        probs = np.array([0.25, 0.25, 0.5])  # cdf 0.25, 0.5, 1.0
        uniforms = [0.0, 0.25, 0.5, 0.2, 0.75]
        given = Uniforms(uniforms)
        assert [draw_indices(probs, given) for _ in uniforms] == [0, 1, 2, 0, 2]
        assert count_draws(probs, Uniforms(uniforms), 5).tolist() == [2, 1, 2]

    def test_count_draws_memory_is_flat(self):
        probs = np.array([0.25, 0.75])

        def peak(size):
            tracemalloc.start()
            try:
                count_draws(probs, np.random.default_rng(0), size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # first-call allocations are not the draws'
        small, large = peak(200_000), peak(2_000_000)
        # the index array of rng.choice would add about 17 bytes per sample
        assert large <= small + 64 * 1024

    def test_ensure_layer_draws_without_choice(self, shared_setup):
        _, ctx1, _, _ = shared_setup
        vector = np.array([0.6, 0.0, 0.8j])
        for seed in range(20):
            spy, oracle = ChoiceSpy(np.random.default_rng(seed)), np.random.default_rng(seed)
            layer = ElementaryState(rng=spy, attached_vector=vector).ensure_layer(ctx1)
            weights = np.abs(ctx1.basis.conj().T @ vector) ** 2
            admissible = np.flatnonzero(weights > 0)
            probs = weights[admissible] / weights[admissible].sum()
            assert layer.index == admissible[oracle.choice(2, p=probs)]
            assert spy.choices == 0
            assert spy.random() == oracle.random()
