"""Measurement contexts: canonical joint eigenbases of commuting families.

A context is the finite-dimensional stand-in for a maximal commutative
subalgebra: it is fully described by an orthonormal basis that jointly
diagonalizes every observable in the subalgebra.  Contexts are interned
in a registry so that the same basis — reached along different
construction routes, reordered, or rotated by per-vector phases — always
carries the same identity.

Invariants kept here:

* ``diagonal_reads(basis, A)`` is the one read of an observable in a basis:
  the real diagonal of B^dagger A B, or ``None`` when an off-diagonal entry
  exceeds ``DIAGONAL_TOL`` * max(1, max|A|).  Membership and the values of
  the characters are that one fact.  ``Context.diagonal_values`` applies
  it, after ``AlgebraDescriptor.require`` (the one algebra check, which
  also admits each family member) rejects an element of another algebra.
  ``interpolated_generator`` asks it too, before it mixes its two elements.
* ``Context.reads`` is the one refusal of a non-member: it raises
  ``IncompatibleObservableError`` naming the context, and every caller
  that needs a member (``measure``, ``ensemble_average``,
  ``instrument_independence_report``, ``Character.value``, ``evaluate``)
  goes through it.
* ``canonical_basis`` sorts columns by the same read and raises
  ``NonCommutingFamilyError`` for a generator not diagonal in the vectors.
  That sort-key read is also how a family is admitted, relative to each
  member's scale, so a fresh k-member family takes k reads.
* The registry looks contexts up by a sorted fingerprint-sum key, with
  creation order deciding ties, and reuses a match only if it contains the
  generating observables.  It rejects a basis that is not n x n, finite
  and orthonormal.
* An observable's context is its one-member family's, built from the
  observable's own memoized eigenbasis and kept on the element per
  registry, so a repeat call does no work.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    _eigh,
    _grouped,
    _require_hermitian,
)

__all__ = [
    "Context",
    "ContextRegistry",
    "NonCommutingFamilyError",
    "DegenerateObservableError",
    "IncompatibleObservableError",
    "canonical_basis",
    "context_from_observable",
    "context_from_family",
    "contains",
    "diagonal_reads",
    "interpolated_generator",
]

# identity tolerance on context fingerprints (sorted component magnitudes)
FINGERPRINT_TOL = 1e-8
# overlap tolerance of a basis match, far below any gap between distinct contexts
MATCH_TOL = 1000.0 * FINGERPRINT_TOL
# an observable belongs to a context when it is diagonal in its basis to here
DIAGONAL_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10

_PHASE_TOL = 1e-12
_KEY_DECIMALS = 9


class NonCommutingFamilyError(ValueError):
    """A family handed to context construction fails to commute."""


class DegenerateObservableError(ValueError):
    """Joint eigenspaces are not one-dimensional; the context is not unique."""


class IncompatibleObservableError(ValueError):
    """An observable was used with a context that does not contain it."""


class Context:
    """An immutable measurement context.

    ``basis`` is an n x n unitary whose columns are the canonical joint
    eigenvectors.  Instances are created by :class:`ContextRegistry` only,
    which guarantees one object per physical context.
    """

    __slots__ = ("id", "algebra", "basis")

    def __init__(self, id: str, algebra: AlgebraDescriptor, basis: np.ndarray):
        self.id = id
        self.algebra = algebra
        basis = np.array(basis, dtype=np.complex128)
        basis.flags.writeable = False
        self.basis = basis

    @property
    def fingerprint(self) -> np.ndarray:
        """Sorted magnitudes of all basis components (computed per call)."""
        return _magnitudes(self.basis)

    @property
    def dimension(self) -> int:
        return self.algebra.dimension

    def vector(self, k: int) -> np.ndarray:
        return self.basis[:, k]

    def basis_projector(self, k: int) -> AlgebraElement:
        """Rank-one projector onto the k-th joint eigenvector."""
        v = self.basis[:, k]
        return AlgebraElement(np.outer(v, v.conj()), self.algebra)

    def diagonal_values(self, element: AlgebraElement) -> np.ndarray | None:
        """:func:`diagonal_reads` in this basis: the characters' values, or
        None.  An element of another algebra raises ``ValueError``."""
        self.algebra.require(element.algebra, "element")
        return diagonal_reads(self.basis, element.matrix)

    def reads(self, element: AlgebraElement) -> np.ndarray:
        """``diagonal_values`` of a member; a non-member raises ``IncompatibleObservableError``."""
        reads = self.diagonal_values(element)
        if reads is None:
            raise IncompatibleObservableError(f"observable is not contained in context {self.id}")
        return reads

    def __repr__(self):
        return f"Context(id={self.id!r}, dim={self.dimension})"


def _diagonal(basis: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """The real diagonal of B^dagger A B and its largest off-diagonal modulus."""
    transformed = basis.conj().T @ matrix @ basis
    reads = transformed.diagonal().real.copy()
    transformed.flat[:: len(reads) + 1] = 0.0
    return reads, np.abs(transformed).max(initial=0.0)


def diagonal_reads(basis: np.ndarray, matrix: np.ndarray) -> np.ndarray | None:
    """What each column of the basis reads on A: the real diagonal of
    B^dagger A B, or None when A is not diagonal in the basis, that is when
    an off-diagonal entry exceeds DIAGONAL_TOL * max(1, max|A|).  Context
    membership and character values are both this one read."""
    reads, off = _diagonal(basis, matrix)
    # max|A| is needed only above DIAGONAL_TOL; a NaN residual is not membership
    if off <= DIAGONAL_TOL or off <= DIAGONAL_TOL * np.abs(matrix).max(initial=0.0):
        return reads
    return None


def _magnitudes(basis: np.ndarray) -> np.ndarray:
    """The fingerprint: sorted component magnitudes, blind to column order
    and per-column phases."""
    return np.sort(np.abs(basis).ravel())


def canonical_basis(vectors: np.ndarray, generators) -> np.ndarray:
    """Put a joint eigenbasis into canonical form.

    Each column is rotated so its first nonvanishing component is real
    positive; columns are then ordered by descending eigenvalue tuple of
    the generating observables, read by :func:`diagonal_reads`, with
    lexicographic comparison of the (rounded) components as tie-break.  A
    generator not diagonal in the vectors raises ``NonCommutingFamilyError``.
    The map is idempotent bit-for-bit: a canonical basis passes through
    unchanged.
    """
    vecs = np.array(vectors, dtype=np.complex128)
    big = np.abs(vecs) > _PHASE_TOL
    lead = big.argmax(axis=0), np.arange(vecs.shape[1])
    first = np.where(big[lead], vecs[lead], 1.0)
    # hypot, as the scalar abs: the array np.abs of a complex can differ in the last bit
    phase = first / np.hypot(first.real, first.imag)
    turn = phase != 1.0
    vecs[:, turn] *= np.conj(phase[turn])
    lead = lead[0][turn], lead[1][turn]
    vecs[lead] = np.hypot(vecs[lead].real, vecs[lead].imag)  # exact real, no imaginary dust

    reads = [diagonal_reads(vecs, g.matrix) for g in generators]
    for i, read in enumerate(reads):
        if read is None:
            raise NonCommutingFamilyError(f"generator {i} is not diagonal in the given vectors")
    keys = np.concatenate([-np.reshape(reads, (-1, vecs.shape[1])), vecs.real, vecs.imag])
    return vecs[:, np.lexsort(np.round(keys, _KEY_DECIMALS)[::-1])]  # last key sorts first


def _bases_match(b1: np.ndarray, b2: np.ndarray) -> bool:
    """Equality up to column permutation and per-column phases: each column
    of ``b2`` overlaps one column of ``b1`` to within MATCH_TOL of 1 and all
    others to within MATCH_TOL.  For orthonormal bases two columns cannot
    both overlap one column near 1, so the hits form a permutation."""
    overlap = np.abs(b1.conj().T @ b2)
    cols = np.arange(overlap.shape[1])
    hits = np.argmax(overlap, axis=0)
    if not (np.abs(overlap[hits, cols] - 1.0) <= MATCH_TOL).all():
        return False
    overlap[hits, cols] = 0.0
    return bool(overlap.max(initial=0.0) <= MATCH_TOL)


class ContextRegistry:
    """Interning store for contexts, keyed by canonical-basis fingerprint.

    The fingerprint (sorted magnitudes of all basis components) is
    invariant under column order and per-vector phases.  Each algebra keeps
    its contexts sorted by the fingerprint's sum s: bases whose
    fingerprints agree within ``FINGERPRINT_TOL`` entry by entry have sums
    within size * FINGERPRINT_TOL, so a bisected window of s holds every
    candidate.
    Candidates are tried in creation order, and confirmed by an explicit
    permutation-and-phase basis match before an id is reused, so the first
    match is the one a scan over all contexts would find.  Writes are
    serialized by a lock; lookups of immutable contexts are safe to share.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._by_id: dict[str, Context] = {}  # in creation order
        # per algebra: (fingerprint sum, creation index, context), sorted
        self._by_sum: dict[AlgebraDescriptor, list[tuple[float, int, Context]]] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, context_id: str) -> Context:
        try:
            return self._by_id[context_id]
        except KeyError:
            raise KeyError(f"unknown context id {context_id!r}") from None

    def register(
        self, basis: np.ndarray, algebra: AlgebraDescriptor, members=()
    ) -> Context:
        """Return the context for ``basis``, creating it if unseen.

        ``basis`` must be an n x n orthonormal matrix for the algebra's
        dimension n; anything else (including NaN or inf entries) raises
        ``ValueError``.  Bases whose fingerprints agree to ``FINGERPRINT_TOL``
        and whose overlaps match to ``MATCH_TOL`` (after phase and order
        normalization) are identified.  A matching context is reused only if
        it contains every element of ``members`` (the observables that
        generated ``basis``): the match tolerances are looser than
        membership, so a near match can miss a generator, and then ``basis``
        gets a context of its own.
        """
        basis = np.asarray(basis, dtype=np.complex128)
        n = algebra.dimension
        if basis.shape != (n, n):
            raise ValueError(f"basis has shape {basis.shape}, expected ({n}, {n})")
        if not np.isfinite(basis).all():
            raise ValueError("basis has non-finite entries")
        gram = basis.conj().T @ basis
        defect = np.abs(gram - np.eye(n)).max(initial=0.0)
        if not defect <= ORTHONORMALITY_TOL:  # a NaN defect is not orthonormal
            raise ValueError(f"basis is not orthonormal (defect {defect:.2e})")
        fp = _magnitudes(basis)
        s = float(fp.sum())
        # twice the size * tolerance bound, so rounding in the sums loses no one
        reach = 2.0 * fp.size * FINGERPRINT_TOL
        with self._lock:
            keyed = self._by_sum.setdefault(algebra, [])
            lo = bisect_left(keyed, s - reach, key=itemgetter(0))
            hi = bisect_right(keyed, s + reach, key=itemgetter(0))
            for _, _, ctx in sorted(keyed[lo:hi], key=itemgetter(1)):
                if np.abs(ctx.fingerprint - fp).max(initial=0.0) > FINGERPRINT_TOL:
                    continue
                if _bases_match(ctx.basis, basis) and all(
                    ctx.diagonal_values(m) is not None for m in members
                ):
                    return ctx
            index = len(self._by_id)
            ctx = Context(f"ctx-{index}", algebra, basis)
            insort(keyed, (s, index, ctx))
            self._by_id[ctx.id] = ctx
            return ctx


def context_from_observable(element: AlgebraElement, registry: ContextRegistry) -> Context:
    """Context generated by a single nondegenerate observable: the context
    of the one-member family ``(element,)``.

    The answer is kept on the element per registry: a registry only appends
    and returns the first match, so a later call would find the same context.
    """
    memo = element._context
    if memo is not None and memo[0]() is registry:
        return memo[1]
    ctx = context_from_family((element,), registry)
    element._context = (weakref.ref(registry), ctx)
    return ctx


def context_from_family(family, registry: ContextRegistry) -> Context:
    """Context of a commuting family via simultaneous diagonalization.

    The joint eigenbasis is built by recursive refinement: the first member's
    own (memoized) eigenbasis splits the space, then each later observable is
    diagonalized inside the eigenspaces accumulated so far, and
    near-degenerate eigenvalue clusters keep their subspace for later
    members to split.  A member not diagonal in the joint eigenbasis fails
    the sort-key read of :func:`canonical_basis`, which raises
    ``NonCommutingFamilyError``.  All joint eigenspaces must end up
    one-dimensional; a degenerate spectrum leaves the maximal extension
    ambiguous and is rejected, so callers must supply a completing family
    instead.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    algebra = family[0].algebra
    for element in family:
        _require_hermitian(element, "context_from_family")
        algebra.require(element.algebra, "family member")
    # _grouped returns runs of consecutive indices: slice views, not fancy-index copies
    values, vectors = _eigh(family[0])
    subspaces = [vectors[:, g[0] : g[-1] + 1] for g in _grouped(values)]
    for element in family[1:]:
        refined = []
        for span in subspaces:
            if span.shape[1] == 1:
                refined.append(span)
                continue
            compressed = span.conj().T @ element.matrix @ span
            values, rotation = np.linalg.eigh(0.5 * (compressed + compressed.conj().T))
            refined += [span @ rotation[:, g[0] : g[-1] + 1] for g in _grouped(values)]
        subspaces = refined

    # the sort-key read admits the members, so non-commuting is reported first
    basis = canonical_basis(np.concatenate(subspaces, axis=1), family)
    if any(span.shape[1] > 1 for span in subspaces):
        raise DegenerateObservableError(
            "joint eigenspaces of dimension > 1 remain; supply a completing family"
        )
    return registry.register(basis, algebra, members=family)


def contains(ctx: Context, element: AlgebraElement) -> bool:
    """True iff the observable is diagonal in the context basis.

    This is membership in the commutative subalgebra the context models;
    the identity belongs to every context.
    """
    return ctx.diagonal_values(element) is not None


def interpolated_generator(
    a1: AlgebraElement, a2: AlgebraElement, alpha: float
) -> AlgebraElement:
    """cos(alpha) * a1 + sin(alpha) * a2.

    With non-commuting Hermitian inputs, sweeping alpha traces a
    continuum of generators whose contexts are generically all distinct —
    the reason context registries must be lazy.
    """
    a1.algebra.require(a2.algebra, "element")
    _require_hermitian(a1, "interpolated_generator")
    _require_hermitian(a2, "interpolated_generator")
    return AlgebraElement(
        np.cos(alpha) * a1.matrix + np.sin(alpha) * a2.matrix, a1.algebra
    )
