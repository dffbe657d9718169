"""``measure`` against a plain reference route over random measurement plans.

``reference_measure`` is written from the update rule in ``measure``'s
docstring.  It decides membership through eigenvectors (A is in a context
when A b_k is parallel to b_k for every basis column b_k), reads a value as
b_k^dagger A b_k, and draws a new layer with ``Generator.choice``, so it
shares no code with ``contexts`` reads or the ``states`` sampler.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from contextqm.algebra import AlgebraDescriptor, AlgebraElement, element_fingerprint
from contextqm.contexts import ContextRegistry, context_from_family, context_from_observable
from contextqm.measurement import Instrument, measure, rotated_squared_family
from contextqm.states import ElementaryState

TOL = 1e-9  # membership and agreement, relative to max(1, scale)
ROUNDOFF = 1e-12


class ReferenceState:
    def __init__(self, rng, vector):
        self.rng = rng
        self.vector = vector
        self.layers = {}  # context id -> index
        self.records = {}  # fingerprint -> (element, value)


def _reference_reads(ctx, element):
    """b_k^dagger A b_k for every column, or None unless every A b_k is parallel to b_k."""
    columns = [ctx.basis[:, k] for k in range(ctx.dimension)]
    reads = [np.vdot(b, element.matrix @ b).real for b in columns]
    scale = max(1.0, np.abs(element.matrix).max())
    for b, read in zip(columns, reads):
        if np.linalg.norm(element.matrix @ b - read * b) > TOL * scale:
            return None
    return reads


def reference_measure(state, ctx, element):
    reads = _reference_reads(ctx, element)
    assert reads is not None, "plans only hold members"
    if ctx.id not in state.layers:
        admissible = list(range(ctx.dimension))
        for el, value in state.records.values():
            r = _reference_reads(ctx, el)
            if r is not None:
                admissible = [k for k in admissible if abs(r[k] - value) <= TOL * max(1.0, abs(value))]
        if state.vector is None:
            weights = np.full(len(admissible), 1.0 / len(admissible))
        else:
            weights = np.array([abs(np.vdot(ctx.basis[:, k], state.vector)) ** 2 for k in admissible])
            weights = weights / weights.sum()
        pick = 0 if len(admissible) == 1 else state.rng.choice(len(admissible), p=weights)
        state.layers[ctx.id] = admissible[pick]
    index = state.layers[ctx.id]
    fingerprint = element_fingerprint(element)
    record = state.records.get(fingerprint)
    value = record[1] if record is not None else reads[index]
    if state.vector is not None:
        projected = sum(
            ctx.basis[:, k] * np.vdot(ctx.basis[:, k], state.vector)
            for k in range(ctx.dimension)
            if abs(reads[k] - value) <= TOL * max(1.0, abs(value))
        )
        state.vector = projected / np.linalg.norm(projected)
    state.layers = {ctx.id: index}
    state.records = {
        fp: rec for fp, rec in state.records.items() if _reference_reads(ctx, rec[0]) is not None
    }
    state.records[fingerprint] = (element, value)
    return value


def _plan_pool():
    """(context, member) pairs: three spin-1 squared frames sharing axes, and
    criterion 4's two contexts with their shared observable."""
    registry = ContextRegistry()
    c, s = np.cos(0.7), np.sin(0.7)
    frames = [
        np.eye(3),
        np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),  # shares z with the first
        np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]),  # shares x with the first
    ]
    contexts, observables = [], []
    for frame in frames:
        family = rotated_squared_family(frame)
        contexts.append(context_from_family(family, registry))
        observables += family
    alg = AlgebraDescriptor(3)
    gen1 = AlgebraElement.from_diagonal([3.0, 2.0, 1.0], alg)
    gen2 = AlgebraElement(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), alg)
    contexts += [context_from_observable(gen1, registry), context_from_observable(gen2, registry)]
    observables += [gen1, gen2, AlgebraElement.from_diagonal([5.0, 5.0, 7.0], alg)]
    return [
        (ctx, el) for ctx in contexts for el in observables if _reference_reads(ctx, el) is not None
    ]


POOL = _plan_pool()


def test_the_pool_shares_observables_across_contexts():
    by_observable = {}
    for ctx, el in POOL:
        by_observable.setdefault(element_fingerprint(el), set()).add(ctx.id)
    assert len({ctx.id for ctx, _ in POOL}) == 5
    assert sum(len(ids) > 1 for ids in by_observable.values()) >= 3


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    attached=st.booleans(),
    plan=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=30),
)
def test_measure_follows_the_reference_route(seed, attached, plan):
    vector = None
    if attached:
        raw = np.random.default_rng([seed, 1]).normal(size=(2, 3))
        vector = (raw[0] + 1j * raw[1]) / np.linalg.norm(raw[0] + 1j * raw[1])
    phi = ElementaryState(rng=np.random.default_rng(seed), attached_vector=vector)
    ref = ReferenceState(np.random.default_rng(seed), phi.attached_vector)
    for step in plan:
        ctx, element = POOL[step]
        fingerprint = element_fingerprint(element)
        recorded = phi.stable.get(fingerprint)
        ref_recorded = ref.records.get(fingerprint)
        value, phi = measure(phi, Instrument(ctx), element)
        expected = reference_measure(ref, ctx, element)

        assert {cid: layer.index for cid, layer in phi.layers.items()} == ref.layers
        assert set(phi.stable) == set(ref.records)
        assert (recorded is None) == (ref_recorded is None)
        if recorded is not None:  # a value taken from a record is that record's float
            assert value == recorded.value and expected == ref_recorded[1]
        assert phi.stable[fingerprint].value == value
        scale = max(1.0, np.abs(element.matrix).max())
        assert abs(value - expected) <= ROUNDOFF * scale
        for fp, record in phi.stable.items():
            assert abs(record.value - ref.records[fp][1]) <= ROUNDOFF * max(1.0, abs(record.value))
        if vector is None:
            assert phi.attached_vector is None and ref.vector is None
        else:
            assert np.abs(phi.attached_vector - ref.vector).max() <= ROUNDOFF
