"""Finite-dimensional involutive operator algebras.

Elements are complex square matrices that are block diagonal with respect
to a fixed direct-sum structure.  A single block of size n models the full
matrix algebra of a quantum system; n blocks of size 1 model a commutative
(classical) algebra.  All operations are pure and all values are immutable
after construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "AlgebraDescriptor",
    "AlgebraElement",
    "SpectralDecomposition",
    "NonHermitianError",
    "adjoint",
    "commutator",
    "spectrum",
    "spectral_decomposition",
    "norm",
    "is_one_dim_projector",
    "check_positivity_structure",
    "element_fingerprint",
]

# tolerance for accepting a matrix as Hermitian / block structured
HERMITIAN_TOL = 1e-10
BLOCK_TOL = 1e-12

# grouping tolerance for nearly equal eigenvalues, relative to the largest
# eigenvalue magnitude (numerical eigensolvers split degeneracies)
GROUPING_TOL = 1e-9
# absolute residual allowed by the one-dimensional projector predicate
PROJECTOR_TOL = 1e-9
# largest entry of A^2 - R*R, for A the principal square root of R*R, that
# the positivity check admits; relative to max(1, max|R*R|)
SQUARE_ROOT_TOL = 1e-8


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian element."""


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Shape of a block-diagonal matrix algebra.

    Parameters
    ----------
    dimension : int
        Total matrix size n.
    block_sizes : tuple of int
        Sizes of the diagonal blocks; must sum to ``dimension``.  The
        default is a single block (the full n x n algebra).
    """

    dimension: int
    block_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        sizes = tuple(int(b) for b in self.block_sizes) or (self.dimension,)
        object.__setattr__(self, "block_sizes", sizes)
        if any(b < 1 for b in sizes):
            raise ValueError("block sizes must be positive")
        if sum(sizes) != self.dimension:
            raise ValueError(
                f"block sizes {sizes} do not sum to dimension {self.dimension}"
            )

    @property
    def is_full(self) -> bool:
        return len(self.block_sizes) == 1

    def block_slices(self) -> list[slice]:
        edges = (0, *accumulate(self.block_sizes))
        return [slice(a, b) for a, b in zip(edges, edges[1:])]

    def block_mask(self) -> np.ndarray:
        """Boolean n x n mask that is True inside the diagonal blocks."""
        mask = np.zeros((self.dimension, self.dimension), dtype=bool)
        for s in self.block_slices():
            mask[s, s] = True
        return mask

    def require(self, other: "AlgebraDescriptor", what: str):
        """The one algebra check: ``other`` must be this algebra, or
        ``ValueError("<what> belongs to a different algebra")`` is raised."""
        # identity settles the common case without the slower dataclass comparison
        if other is not self and other != self:
            raise ValueError(f"{what} belongs to a different algebra")


def _as_matrix(data, dimension: int) -> np.ndarray:
    mat = np.array(data, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] != dimension:
        raise ValueError(
            f"matrix size {mat.shape[0]} does not match algebra dimension {dimension}"
        )
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return mat


def _hermitian_matrix(mat: np.ndarray) -> bool:
    """max|A - A^dagger| <= HERMITIAN_TOL * max(1, max|A|)."""
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    return bool(np.abs(mat - mat.conj().T).max(initial=0.0) <= HERMITIAN_TOL * scale)


class AlgebraElement:
    """A dynamical quantity: a block-diagonal complex matrix.

    Off-block entries must vanish; they are checked on construction and
    then zeroed exactly so products preserve the structure bit-for-bit.
    Supports ``+``, ``-``, scalar ``*``, and ``@`` / ``*`` for the
    algebra product.

    Four derived slots start empty and are filled on first use, so they
    live exactly as long as the element: ``_eigh``, the read-only result
    of one ``np.linalg.eigh`` of the matrix (see :func:`_eigh`),
    ``_context``, the context this element generated in a registry (see
    ``contexts.context_from_observable``), ``_fp``, the element's
    fingerprint string (see :func:`element_fingerprint`), and
    ``_hermitian``, the answer of :meth:`is_hermitian`.
    """

    __slots__ = ("matrix", "algebra", "_eigh", "_context", "_fp", "_hermitian")

    def __init__(self, matrix, algebra: AlgebraDescriptor):
        mat = _as_matrix(matrix, algebra.dimension)
        if not algebra.is_full:
            mask = algebra.block_mask()
            off = np.abs(mat[~mask])
            if off.size and off.max() > BLOCK_TOL * max(1.0, np.abs(mat).max()):
                raise ValueError("matrix violates the block-diagonal structure")
            mat[~mask] = 0.0
        mat.flags.writeable = False
        self.matrix = mat
        self.algebra = algebra
        self._eigh = None
        self._context = None
        self._fp = None
        self._hermitian = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, algebra: AlgebraDescriptor) -> "AlgebraElement":
        return cls(np.eye(algebra.dimension), algebra)

    @classmethod
    def zero(cls, algebra: AlgebraDescriptor) -> "AlgebraElement":
        return cls(np.zeros((algebra.dimension, algebra.dimension)), algebra)

    @classmethod
    def from_diagonal(cls, values, algebra: AlgebraDescriptor) -> "AlgebraElement":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)), algebra)

    # -- algebra operations ------------------------------------------------

    def __add__(self, other):
        self.algebra.require(other.algebra, "element")
        return AlgebraElement(self.matrix + other.matrix, self.algebra)

    def __sub__(self, other):
        self.algebra.require(other.algebra, "element")
        return AlgebraElement(self.matrix - other.matrix, self.algebra)

    def __neg__(self):
        return AlgebraElement(-self.matrix, self.algebra)

    def __matmul__(self, other):
        self.algebra.require(other.algebra, "element")
        return AlgebraElement(self.matrix @ other.matrix, self.algebra)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.__matmul__(other)
        return AlgebraElement(complex(other) * self.matrix, self.algebra)

    def __rmul__(self, scalar):
        return AlgebraElement(complex(scalar) * self.matrix, self.algebra)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.matrix.conj().T, self.algebra)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self) -> bool:
        """Checked once per element and kept, ``False`` too: the matrix is read-only."""
        if self._hermitian is None:
            self._hermitian = _hermitian_matrix(self.matrix)
        return self._hermitian

    def __repr__(self):
        return f"AlgebraElement(dim={self.algebra.dimension}, blocks={self.algebra.block_sizes})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue / projector pairs of a Hermitian element.

    ``pairs`` is ordered by strictly increasing eigenvalue; the projectors
    are Hermitian idempotents that are mutually orthogonal and sum to the
    identity, all within ``GROUPING_TOL``-level residuals.
    """

    pairs: tuple[tuple[float, AlgebraElement], ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.pairs)

    def reconstruct(self) -> AlgebraElement:
        algebra = self.pairs[0][1].algebra
        total = np.zeros((algebra.dimension, algebra.dimension), dtype=np.complex128)
        for value, proj in self.pairs:
            total += value * proj.matrix
        return AlgebraElement(total, algebra)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def adjoint(element: AlgebraElement) -> AlgebraElement:
    """Involution of the algebra: the conjugate transpose."""
    return element.adjoint()


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b] = ab - ba.  Vanishes exactly iff the elements are compatible."""
    a.algebra.require(b.algebra, "element")
    return AlgebraElement(a.matrix @ b.matrix - b.matrix @ a.matrix, a.algebra)


def _require_hermitian(element: AlgebraElement, who: str):
    if not element.is_hermitian():
        raise NonHermitianError(f"{who} requires a Hermitian element")


def _grouped(values: np.ndarray) -> list[list[int]]:
    """Group near-degenerate eigenvalues of an ascending spectrum.

    Returns lists of indices into ``values``; an eigenvalue within
    ``GROUPING_TOL`` (relative to the largest magnitude) of its group's
    first member joins that group.
    """
    thr = GROUPING_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))
    groups: list[list[int]] = []
    floats = values.tolist()  # the same IEEE arithmetic, without numpy's per-scalar cost
    for k, v in enumerate(floats):
        if groups and v - floats[groups[-1][0]] <= thr:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _group_value(values: np.ndarray, group: list[int]) -> float:
    """A group's spectrum point: the mean of its eigenvalues.  A simple
    eigenvalue is taken as it is, which is that mean exactly."""
    if len(group) == 1:
        return float(values[group[0]])
    return float(np.mean(values[group]))


def _eigh(element: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(values, vectors)`` of ``np.linalg.eigh(element.matrix)``,
    solved once per element: the matrix is immutable, so is the result."""
    if element._eigh is None:
        values, vectors = np.linalg.eigh(element.matrix)
        values.flags.writeable = False
        vectors.flags.writeable = False
        element._eigh = (values, vectors)
    return element._eigh


def spectrum(element: AlgebraElement) -> list[float]:
    """Sorted distinct eigenvalues of a Hermitian element.

    Eigenvalues closer than ``GROUPING_TOL`` (relative to the largest
    magnitude) are merged into one spectrum point.  Because the maximal
    commutative subalgebras of the matrix algebra are full diagonal
    algebras, the spectrum does not depend on which one the element is
    viewed in.
    """
    _require_hermitian(element, "spectrum")
    values = _eigh(element)[0]
    return [_group_value(values, g) for g in _grouped(values)]


def spectral_decomposition(element: AlgebraElement) -> SpectralDecomposition:
    """Resolve a Hermitian element into eigenvalue/projector pairs.

    Projectors of a near-degenerate group are the sums of its rank-one
    eigenprojectors, re-Hermitized for stability; they reconstruct the
    element and sum to the identity.
    """
    _require_hermitian(element, "spectral_decomposition")
    values, vectors = _eigh(element)
    pairs = []
    for g in _grouped(values):
        vecs = vectors[:, g]
        proj = vecs @ vecs.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        pairs.append((_group_value(values, g), AlgebraElement(proj, element.algebra)))
    return SpectralDecomposition(pairs=tuple(pairs))


def norm(element: AlgebraElement) -> float:
    """C*-norm: square root of the largest eigenvalue of R*R.

    Equals the spectral radius of ``element`` itself when the element is
    Hermitian, and satisfies norm(R*R) == norm(R)**2 for every R.
    """
    gram = element.matrix.conj().T @ element.matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def is_one_dim_projector(element: AlgebraElement) -> bool:
    """True iff p* = p, p^2 = p and trace(p) = 1 within ``PROJECTOR_TOL``.

    The unit-trace condition is the finite-dimensional form of
    non-decomposability: a projector of higher rank splits into a sum of
    orthogonal sub-projectors.
    """
    mat = element.matrix
    if np.abs(mat - mat.conj().T).max(initial=0.0) > PROJECTOR_TOL:
        return False
    if np.abs(mat @ mat - mat).max(initial=0.0) > PROJECTOR_TOL:
        return False
    return abs(np.trace(mat) - 1.0) <= PROJECTOR_TOL


def check_positivity_structure(element: AlgebraElement) -> bool:
    """Verify the positivity axioms of the involution on one element.

    Checks that R*R is Hermitian positive semidefinite and that it equals
    A^2 for the principal square root A.  That a vanishing R*R forces R
    itself to vanish follows from norm(R*R) == norm(R)**2 and is not tested
    apart: one fixed tolerance on both R*R and R would reject every R with
    entries between about its value and its square root.
    """
    gram = element.matrix.conj().T @ element.matrix
    scale = max(1.0, float(np.abs(gram).max(initial=0.0)))
    if np.abs(gram - gram.conj().T).max(initial=0.0) > HERMITIAN_TOL * scale:
        return False
    values, vectors = np.linalg.eigh(gram)
    if values[0] < -HERMITIAN_TOL * scale:
        return False
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    return bool(np.abs(root @ root - gram).max(initial=0.0) <= SQUARE_ROOT_TOL * scale)


# ---------------------------------------------------------------------------
# fingerprints and serialization
# ---------------------------------------------------------------------------


def element_fingerprint(element: AlgebraElement) -> str:
    """Deterministic identity string for an observable.

    Entries are rounded to 9 decimal places before hashing so that
    numerically identical observables produced along different code paths
    agree.  The block structure of a non-full algebra is hashed too, so
    the same matrix in two algebras gets two fingerprints.  The matrix is
    read-only, so the string is hashed once per element and then kept.
    """
    if element._fp is not None:
        return element._fp
    mat = element.matrix
    # one rounding over the interleaved real and imaginary parts (the view needs C order)
    rounded = np.round(np.ascontiguousarray(mat).view(np.float64), 9)
    rounded += 0.0  # normalize -0.0 to +0.0 so the byte stream is canonical
    digest = hashlib.sha1()
    digest.update(str(mat.shape[0]).encode())
    if not element.algebra.is_full:
        # only non-full algebras are tagged, so full-algebra fingerprints (and
        # the stable records and reports keyed on them) keep their bytes
        sizes = ",".join(str(size) for size in element.algebra.block_sizes)
        digest.update(f"blocks:{sizes};".encode())
    digest.update(rounded.tobytes())
    element._fp = digest.hexdigest()
    return element._fp
