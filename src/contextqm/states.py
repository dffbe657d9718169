"""Elementary states: one character per context, with stability tracking.

An elementary state answers every measurement question by holding, for
each context it has ever been asked about, a single selected joint
eigenvector (a character of that commutative subalgebra).  Different
contexts need not agree; agreement on a shared observable is the
*stability* property, tracked explicitly through records so that layers
materialized later can be conditioned on it.

Invariants kept here:

* A character's value (``Character.value``, ``evaluate``, ``is_stable``,
  and ``measure`` in ``measurement``) is entry ``index`` of the context's
  ``diagonal_values``, read once per context and observable.  The callers
  that need a member read through ``Context.reads``, so a non-member
  raises ``IncompatibleObservableError`` before any layer is drawn.
* A layer is drawn among the indices that agree with every stable record
  the context contains; with no records every index is admissible and no
  read is taken.  ``ensure_layer`` rejects an attached vector whose length
  is not the context's dimension.
* Layers are keyed by context id, unique only within one registry, so a
  context from another registry than a stored layer's is rejected.
  ``construct_stable_on`` refuses a context of another algebra than the
  seed context's, through ``AlgebraDescriptor.require``.
* ``born_weights`` is the one Born rule: every |B^dagger v|^2 of a
  context's basis B, for lazy layers, ensembles and overlap components.
* The Born samplers invert the CDF bit for bit as ``Generator.choice(n,
  size, p=...)`` does, with its checks on ``p``, and leave the generator
  in the same state.  ``draw_indices`` is the scalar draw.  ``count_draws``
  is the one array sampler: it gives the per-index counts of ``size``
  draws from 65536 uniforms at a time, with no index array, so memory
  stays flat at any sample count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .algebra import AlgebraElement, element_fingerprint, spectrum
from .contexts import Context, ContextRegistry

__all__ = [
    "Character",
    "StableRecord",
    "ElementaryState",
    "evaluate",
    "construct_state",
    "construct_stable_on",
    "is_stable",
    "check_character_properties",
    "born_weights",
    "draw_indices",
    "count_draws",
]

# cross-context agreement threshold for stability
STABILITY_TOL = 1e-9
# how far from 1 Born weights may sum, as ``Generator.choice`` allows
SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))
DRAW_CHUNK = 1 << 16  # uniforms per batch in count_draws, so memory stays flat
WEIGHT_FLOOR = 1e-30  # admissible Born weight, of a unit vector's total 1, that counts as none
OVERLAP_TOL = 1e-12  # |<e_i, f_j>|^2 of unit basis vectors, so of 1, above which they overlap


def agreeing(reads: np.ndarray, value) -> np.ndarray:
    """Mask of the context reads that agree with ``value`` to ``STABILITY_TOL``.

    ``value`` is a float, or an array of them that broadcasts against
    ``reads`` (a column of values gives one mask row per value).  The
    builtin ``max`` costs less than ``np.maximum`` on one value, and gives
    the same tolerance.
    """
    try:
        scale = max(1.0, abs(value))
    except ValueError:  # an array of values has no single truth value to compare
        scale = np.maximum(1.0, np.abs(value))
    return np.abs(reads - value) <= STABILITY_TOL * scale


def born_weights(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Born weights |<e_k, v>|^2 of the basis columns e_k, for a vector or a matrix of them."""
    return np.abs(basis.conj().T @ vectors) ** 2


def _cdf(probs) -> list[float]:
    """The normalized cumulative weights that ``Generator.choice`` searches.

    ``probs`` holds at least one float64 weight.  It gets the checks
    ``choice`` makes on ``p``, in its order and with the start of its
    messages: the Kahan sum is not NaN, no entry is negative and the sum is
    1 within ``SUM_TOL``.  The running sums and the division by the last one are
    those of ``cdf = p.cumsum(); cdf /= cdf[-1]``, in Python floats, which
    cost less than array calls at the few weights of a context.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    values = p.tolist()
    total, carry = values[0], 0.0
    for value in values[1:]:
        step = value - carry
        grown = total + step
        carry = (grown - total) - step
        total = grown
    if total != total:
        raise ValueError("Probabilities contain NaN")
    if min(values) < 0:  # no entry is NaN once the sum is not
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError("Probabilities do not sum to 1")
    sums = list(accumulate(values))
    return [c / sums[-1] for c in sums]


def draw_indices(probs, rng) -> int:
    """An index drawn with the weights ``probs`` by inverse CDF: bit for bit
    ``rng.choice(len(probs), p=probs)``, and the generator left in the same state."""
    return bisect_right(_cdf(probs), rng.random())


def count_draws(probs, rng, size: int) -> np.ndarray:
    """How often each index comes up in ``rng.choice(len(probs), size, p=probs)``.

    Index j is drawn when cdf[j - 1] <= u < cdf[j], so u < cdf[j] counts
    the draws at or below j; no index array is formed.  The uniforms come
    ``DRAW_CHUNK`` at a time, which draws the stream of one
    ``rng.random(size)``, so memory does not grow with ``size``.
    """
    cdf = _cdf(probs)
    at_or_below = [0] * (len(cdf) - 1)  # the last index takes every draw left
    for start in range(0, size, DRAW_CHUNK):
        uniforms = rng.random(min(DRAW_CHUNK, size - start))
        at_or_below = [
            count + int(np.count_nonzero(uniforms < c))
            for count, c in zip(at_or_below, cdf)
        ]
    return np.diff([0, *at_or_below, size])


def _unit_vector(vector) -> np.ndarray:
    """The vector scaled to unit length; a zero, non-finite or not 1-D one is rejected."""
    vec = np.asarray(vector, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {vec.shape}")
    length = np.linalg.norm(vec)
    if not 0.0 < length < np.inf:  # a NaN or inf entry makes the norm fail too
        raise ValueError("vector must be nonzero, with no NaN or infinite entry")
    return vec / length


@dataclass(frozen=True)
class Character:
    """Selection of joint eigenvector ``index`` in context ``context``."""

    context: Context
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.context.dimension:
            raise ValueError(
                f"index {self.index} out of range for {self.context.dimension}-dim context"
            )

    def value(self, element: AlgebraElement) -> float:
        """Entry ``index`` of the context's ``diagonal_values``: an eigenvalue."""
        return float(self.context.reads(element)[self.index])


@dataclass(frozen=True)
class StableRecord:
    """An observable the state is pinned on, with its agreed value."""

    fingerprint: str
    element: AlgebraElement
    value: float


class ElementaryState:
    """A multilayer functional under construction.

    Layers are created lazily: querying a context the state has never
    seen draws a character index, restricted to indices consistent with
    all stable records contained in that context, weighted by the Born
    distribution of the attached unit vector when one is present and
    uniformly otherwise.  The vector is attached at construction, and only
    ``measure``'s projection replaces it.  Mutable; a simulation run must
    own it exclusively.
    Layers are keyed by context id, unique only within one registry, so
    a context from another registry than a stored layer's is rejected.
    """

    def __init__(self, rng=None, attached_vector: np.ndarray | None = None):
        self.layers: dict[str, Character] = {}
        self.stable: dict[str, StableRecord] = {}
        self.rng = rng
        self.attached_vector = None
        if attached_vector is not None:
            self.attached_vector = _unit_vector(attached_vector)

    # -- stability records ------------------------------------------------

    def add_stable_record(self, element: AlgebraElement, value: float):
        fp = element_fingerprint(element)
        self.stable[fp] = StableRecord(fp, element, float(value))

    # -- layers -------------------------------------------------------------

    def _admissible_indices(self, ctx: Context) -> np.ndarray:
        """Indices consistent with every stable record contained in ctx."""
        if not self.stable:
            return np.arange(ctx.dimension)
        ok = np.ones(ctx.dimension, dtype=bool)
        for record in self.stable.values():
            reads = ctx.diagonal_values(record.element)
            if reads is not None:
                ok &= agreeing(reads, record.value)
        return np.flatnonzero(ok)

    def _stored_layer(self, ctx: Context) -> Character | None:
        layer = self.layers.get(ctx.id)
        if layer is not None and layer.context is not ctx:
            raise ValueError(f"the state's layer {ctx.id} is another registry's context")
        return layer

    def ensure_layer(self, ctx: Context, rng=None) -> Character:
        """Return the character for ctx, drawing one if absent.  An attached
        vector whose length is not the context's dimension is rejected."""
        vector = self.attached_vector
        if vector is not None and len(vector) != ctx.dimension:
            raise ValueError(
                f"attached vector has length {len(vector)}, "
                f"context {ctx.id} has dimension {ctx.dimension}"
            )
        layer = self._stored_layer(ctx)
        if layer is not None:
            return layer
        rng = rng if rng is not None else self.rng
        admissible = self._admissible_indices(ctx)
        if admissible.size == 0:
            raise ValueError(
                f"no character index in context {ctx.id} is consistent "
                "with the state's stable records"
            )
        if vector is not None:
            weights = born_weights(ctx.basis, vector)[admissible]
            total = weights.sum()
            if total <= WEIGHT_FLOOR:
                raise ValueError(
                    f"attached state has no weight on admissible indices of {ctx.id}"
                )
            weights = weights / total
        else:
            weights = np.full(admissible.size, 1.0 / admissible.size)
        if admissible.size == 1:
            index = int(admissible[0])
        else:
            if rng is None:
                raise ValueError(
                    f"layer for context {ctx.id} is absent and the state has "
                    "no randomness source to draw it"
                )
            index = int(admissible[draw_indices(weights, rng)])
        layer = Character(ctx, index)
        self.layers[ctx.id] = layer
        return layer

    def set_layer(self, ctx: Context, index: int):
        self._stored_layer(ctx)
        self.layers[ctx.id] = Character(ctx, index)

    def __repr__(self):
        return (
            f"ElementaryState(layers={len(self.layers)}, stable={len(self.stable)})"
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def evaluate(phi: ElementaryState, ctx: Context, element: AlgebraElement) -> float:
    """Value of the state on an observable of the given context.

    The result is the eigenvalue of the observable at the selected joint
    eigenvector, so it always lies in the observable's spectrum.  Raises
    when the observable does not belong to the context; materializes the
    layer lazily when the context is new.
    """
    return float(ctx.reads(element)[phi.ensure_layer(ctx).index])


def construct_state(
    assignments: dict[str, int],
    registry: ContextRegistry,
) -> ElementaryState:
    """Build a state with explicitly chosen character indices.

    ``assignments`` maps context ids (already registered) to indices.
    Contexts not mentioned stay unset and will be drawn lazily.  Nothing
    about cross-context consistency is checked or enforced here: states
    with conflicting layers are legal and simply fail ``is_stable`` on
    the conflicted observables.
    """
    phi = ElementaryState()
    for context_id, index in assignments.items():
        ctx = registry.get(context_id)
        phi.set_layer(ctx, int(index))
    return phi


def _overlap_component(ctx: Context, other: Context, index: int) -> np.ndarray:
    """Indices of ``other`` in the same overlap component as ``index``.

    Basis vectors of the two contexts form a bipartite graph with edges
    where |<e_i, f_j>| is appreciable; connected components correspond to
    the joint eigenspaces of all shared observables.  Stability forces the
    other context's index into the component of the seed index.
    """
    edge = born_weights(ctx.basis, other.basis) > OVERLAP_TOL
    reached = np.arange(edge.shape[0]) == index
    while True:
        right = edge[reached].any(axis=0)
        grown = reached | edge[:, right].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(right)
        reached = grown


def construct_stable_on(
    ctx: Context,
    index: int,
    other_contexts,
    rng=None,
) -> ElementaryState:
    """Seeded construction: stable on every observable of ``ctx``.

    The seed context gets the given index.  Every other context receives an
    index from the overlap component of the seed vector, which is exactly
    the set of choices agreeing with the seed on all shared observables;
    within the component the choice is free (drawn from ``rng`` when
    given, lowest index otherwise).  A context of another algebra is
    refused; in one algebra the component is never empty, because the seed
    vector's Born weights over the other basis sum to 1.
    """
    phi = ElementaryState(rng=rng)
    phi.set_layer(ctx, int(index))
    for other in other_contexts:
        if other is ctx:
            continue
        ctx.algebra.require(other.algebra, f"context {other.id}")
        component = _overlap_component(ctx, other, int(index))
        if rng is not None and component.size > 1:
            choice = int(component[rng.choice(component.size)])
        else:
            choice = int(component[0])
        phi.set_layer(other, choice)
    return phi


def is_stable(phi: ElementaryState, element: AlgebraElement) -> bool:
    """True iff all stored layers containing the observable agree.

    A state with no layer containing the observable is vacuously stable
    on it.  Agreement threshold matches the stability tolerance used for
    lazy conditioning.
    """
    values = [
        float(reads[layer.index])
        for layer in phi.layers.values()
        if (reads := layer.context.diagonal_values(element)) is not None
    ]
    if len(values) < 2:
        return True
    scale = max(1.0, max(abs(v) for v in values))
    return (max(values) - min(values)) <= STABILITY_TOL * scale


def check_character_properties(
    phi: ElementaryState,
    ctx: Context,
    samples: int = 20,
    rng=None,
) -> dict:
    """Verify the defining character properties on random context elements.

    Draws random observables diagonal in the context and reports maximum
    residuals for: zero preservation, unit preservation, positivity on
    squares, spectrum membership of values, spectrum exhaustion across
    the context's character indices, multiplicativity and linearity.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    layer = phi.ensure_layer(ctx)
    n = ctx.dimension
    algebra = ctx.algebra
    basis = ctx.basis

    def random_context_element():
        diag = rng.normal(size=n) * rng.choice([0.5, 1.0, 2.0])
        return AlgebraElement(
            (basis * diag) @ basis.conj().T, algebra
        )

    zero = AlgebraElement.zero(algebra)
    identity = AlgebraElement.identity(algebra)
    report = {
        "zero_residual": abs(evaluate(phi, ctx, zero)),
        "unit_residual": abs(evaluate(phi, ctx, identity) - 1.0),
        "square_negativity": 0.0,
        "spectrum_membership_residual": 0.0,
        "spectrum_exhaustion_residual": 0.0,
        "multiplicativity_residual": 0.0,
        "linearity_residual": 0.0,
    }
    for _ in range(samples):
        a = random_context_element()
        b = random_context_element()
        va, vb = evaluate(phi, ctx, a), evaluate(phi, ctx, b)

        v_square = evaluate(phi, ctx, a * a)
        report["square_negativity"] = max(report["square_negativity"], -v_square)

        points = spectrum(a)
        report["spectrum_membership_residual"] = max(
            report["spectrum_membership_residual"],
            min(abs(va - p) for p in points),
        )
        reads = ctx.diagonal_values(a)
        report["spectrum_exhaustion_residual"] = max(
            report["spectrum_exhaustion_residual"],
            max(min(abs(p - r) for r in reads) for p in points),
        )

        report["multiplicativity_residual"] = max(
            report["multiplicativity_residual"],
            abs(evaluate(phi, ctx, a * b) - va * vb),
        )
        s, t = rng.normal(size=2)
        report["linearity_residual"] = max(
            report["linearity_residual"],
            abs(evaluate(phi, ctx, s * a + t * b) - (s * va + t * vb)),
        )

    report["max_residual"] = max(report.values())
    report["ok"] = report["max_residual"] <= STABILITY_TOL
    report["context_id"] = ctx.id
    report["character_index"] = layer.index
    report["samples"] = samples
    return report
