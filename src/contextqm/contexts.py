"""Measurement contexts: canonical joint eigenbases of commuting families.

A context is the finite-dimensional stand-in for a maximal commutative
subalgebra: it is fully described by an orthonormal basis that jointly
diagonalizes every observable in the subalgebra.  Contexts are interned
in a registry so that the same basis — reached along different
construction routes, reordered, or rotated by per-vector phases — always
carries the same identity.
"""

from __future__ import annotations

import math
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
    commutator,
    norm,
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
    "interpolated_generator",
]

# identity tolerance on context fingerprints (sorted component magnitudes)
FINGERPRINT_TOL = 1e-8
# an observable belongs to a context when it is diagonal in its basis to here
DIAGONAL_TOL = 1e-9
# commuting-family admission threshold
COMMUTE_TOL = 1e-10
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
        """The n read-off values <e_k, A e_k> (real parts), or None when the
        observable is not in the context: an off-diagonal entry of
        B^dagger A B exceeds DIAGONAL_TOL * max(1, max|A|).
        """
        transformed = self.basis.conj().T @ element.matrix @ self.basis
        diagonal = np.diag(transformed)
        off = np.abs(transformed - np.diag(diagonal)).max(initial=0.0)
        scale = max(1.0, float(np.abs(element.matrix).max(initial=0.0)))
        if not off <= DIAGONAL_TOL * scale:  # a NaN residual is not membership
            return None
        return np.real(diagonal)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "dimension": self.dimension,
            "block_sizes": list(self.algebra.block_sizes),
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.basis[:, k]]
                for k in range(self.dimension)
            ],
            "fingerprint": [float(x) for x in self.fingerprint],
        }

    def __repr__(self):
        return f"Context(id={self.id!r}, dim={self.dimension})"


def _magnitudes(basis: np.ndarray) -> np.ndarray:
    """The fingerprint: sorted component magnitudes, blind to column order
    and per-column phases."""
    return np.sort(np.abs(basis).ravel())


def canonical_basis(vectors: np.ndarray, generators) -> np.ndarray:
    """Put a joint eigenbasis into canonical form.

    Each column is rotated so its first nonvanishing component is real
    positive; columns are then ordered by descending eigenvalue tuple of
    the generating observables, with lexicographic comparison of the
    (rounded) components as tie-break.  The map is idempotent bit-for-bit:
    a canonical basis passes through unchanged.
    """
    vecs = np.array(vectors, dtype=np.complex128)
    n = vecs.shape[1]
    cols = []
    for j in range(n):
        v = vecs[:, j].copy()
        nz = np.flatnonzero(np.abs(v) > _PHASE_TOL)
        if nz.size:
            lead = v[nz[0]]
            phase = lead / abs(lead)
            if phase != 1.0:
                v *= np.conj(phase)
                v[nz[0]] = abs(v[nz[0]])  # exact real, no residual imaginary dust
        cols.append(v)

    def sort_key(j):
        v = cols[j]
        eigs = tuple(
            -round(float(np.real(np.vdot(v, g.matrix @ v))), _KEY_DECIMALS)
            for g in generators
        )
        return (
            eigs,
            tuple(np.round(v.real, _KEY_DECIMALS)),
            tuple(np.round(v.imag, _KEY_DECIMALS)),
        )

    order = sorted(range(n), key=sort_key)
    return np.column_stack([cols[j] for j in order])


def _bases_match(b1: np.ndarray, b2: np.ndarray, tol: float) -> bool:
    """Equality up to column permutation and per-column phases."""
    overlap = np.abs(b1.conj().T @ b2)
    hits = np.argmax(overlap, axis=0)
    if len(set(int(h) for h in hits)) != overlap.shape[0]:
        return False
    for j, i in enumerate(hits):
        if abs(overlap[i, j] - 1.0) > tol:
            return False
        rest = np.delete(overlap[:, j], i)
        if rest.size and rest.max() > tol:
            return False
    return True


class ContextRegistry:
    """Interning store for contexts, keyed by canonical-basis fingerprint.

    The fingerprint (sorted magnitudes of all basis components) is
    invariant under column order and per-vector phases.  Each algebra keeps
    its contexts sorted by the fingerprint's sum s: bases whose
    fingerprints agree within ``tolerance`` entry by entry have sums within
    size * tolerance, so a bisected window of s holds every candidate.
    Candidates are tried in creation order, and confirmed by an explicit
    permutation-and-phase basis match before an id is reused, so the first
    match is the one a scan over all contexts would find.  Writes are
    serialized by a lock; lookups of immutable contexts are safe to share.
    ``tolerance`` must be finite and positive.
    """

    def __init__(self, tolerance: float = FINGERPRINT_TOL):
        tolerance = float(tolerance)
        if not (math.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError(f"registry tolerance must be finite and > 0, got {tolerance!r}")
        self.tolerance = tolerance
        self._lock = threading.Lock()
        self._by_id: dict[str, Context] = {}  # in creation order
        # per algebra: (fingerprint sum, creation index, context), sorted
        self._by_sum: dict[AlgebraDescriptor, list[tuple[float, int, Context]]] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(list(self._by_id.values()))

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
        ``ValueError``.  Bases closer than the registry tolerance (after
        phase and order normalization) are identified; the match tolerance
        on overlaps is a generous multiple of the fingerprint tolerance, far
        below any separation between genuinely distinct contexts in practice.
        A matching context is reused only if it contains every element of
        ``members`` (the observables that generated ``basis``): the match
        tolerances are looser than membership, so a near match can miss a
        generator, and then ``basis`` gets a context of its own.
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
        reach = 2.0 * fp.size * self.tolerance
        match_tol = 1000.0 * self.tolerance
        with self._lock:
            keyed = self._by_sum.setdefault(algebra, [])
            lo = bisect_left(keyed, s - reach, key=itemgetter(0))
            hi = bisect_right(keyed, s + reach, key=itemgetter(0))
            for _, _, ctx in sorted(keyed[lo:hi], key=itemgetter(1)):
                if np.abs(ctx.fingerprint - fp).max(initial=0.0) > self.tolerance:
                    continue
                if _bases_match(ctx.basis, basis, match_tol) and all(
                    ctx.diagonal_values(m) is not None for m in members
                ):
                    return ctx
            index = len(self._by_id)
            ctx = Context(f"ctx-{index}", algebra, basis)
            insort(keyed, (s, index, ctx))
            self._by_id[ctx.id] = ctx
            return ctx


def context_from_observable(
    element: AlgebraElement,
    registry: ContextRegistry,
    tolerance: float = 1e-9,
) -> Context:
    """Context generated by a single nondegenerate observable.

    The observable's eigenbasis is the joint eigenbasis; a degenerate
    spectrum leaves the maximal extension ambiguous and is rejected —
    callers must supply a completing family instead.

    The answer is kept on the element for this registry and ``tolerance``:
    the registry only appends and returns the first match in creation
    order, so a later call could only find the same context again.
    """
    memo = element._context
    if memo is not None and memo[0]() is registry and memo[1] == tolerance:
        return memo[2]
    _require_hermitian(element, "context_from_observable")
    values, vectors = _eigh(element)
    if any(len(g) > 1 for g in _grouped(values, tolerance)):
        raise DegenerateObservableError(
            "observable has a degenerate spectrum; supply a completing family"
        )
    basis = canonical_basis(vectors, [element])
    ctx = registry.register(basis, element.algebra, members=(element,))
    element._context = (weakref.ref(registry), tolerance, ctx)
    return ctx


def context_from_family(
    family,
    registry: ContextRegistry,
    tolerance: float = 1e-9,
) -> Context:
    """Context of a commuting family via simultaneous diagonalization.

    The joint eigenbasis is built by recursive refinement: each observable
    in turn is diagonalized inside the eigenspaces accumulated so far, and
    near-degenerate eigenvalue clusters keep their subspace for later
    members to split.  All joint eigenspaces must end up one-dimensional.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    algebra = family[0].algebra
    for element in family:
        _require_hermitian(element, "context_from_family")
        if element.algebra != algebra:
            raise ValueError("family members belong to different algebras")
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            c = norm(commutator(family[i], family[j]))
            if c > COMMUTE_TOL:
                raise NonCommutingFamilyError(
                    f"family members {i} and {j} do not commute "
                    f"(commutator norm {c:.2e})"
                )

    n = algebra.dimension
    subspaces = [np.eye(n, dtype=np.complex128)]
    for element in family:
        refined = []
        for span in subspaces:
            if span.shape[1] == 1:
                refined.append(span)
                continue
            compressed = span.conj().T @ element.matrix @ span
            compressed = 0.5 * (compressed + compressed.conj().T)
            values, rotation = np.linalg.eigh(compressed)
            for group in _grouped(values, tolerance):
                refined.append(span @ rotation[:, group])
        subspaces = refined

    if any(span.shape[1] > 1 for span in subspaces):
        raise DegenerateObservableError(
            "family is jointly degenerate: joint eigenspaces of dimension > 1 remain"
        )
    vectors = np.hstack(subspaces)
    basis = canonical_basis(vectors, family)
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
    _require_hermitian(a1, "interpolated_generator")
    _require_hermitian(a2, "interpolated_generator")
    return AlgebraElement(
        np.cos(alpha) * a1.matrix + np.sin(alpha) * a2.matrix, a1.algebra
    )
