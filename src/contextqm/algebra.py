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
    "element_to_json_dict",
    "element_from_json_dict",
]

# tolerance for accepting a matrix as Hermitian / block structured
HERMITIAN_TOL = 1e-10
BLOCK_TOL = 1e-12

# default grouping tolerance for nearly equal eigenvalues, relative to the
# largest eigenvalue magnitude (numerical eigensolvers split degeneracies)
GROUPING_TOL = 1e-9


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

    @property
    def is_classical(self) -> bool:
        """True when every block is one-dimensional (commutative algebra)."""
        return all(b == 1 for b in self.block_sizes)

    def block_slices(self) -> list[slice]:
        edges = np.cumsum((0,) + self.block_sizes)
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    def block_mask(self) -> np.ndarray:
        """Boolean n x n mask that is True inside the diagonal blocks."""
        mask = np.zeros((self.dimension, self.dimension), dtype=bool)
        for s in self.block_slices():
            mask[s, s] = True
        return mask


def _as_matrix(data, dimension: int | None = None) -> np.ndarray:
    mat = np.array(data, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dimension is not None and mat.shape[0] != dimension:
        raise ValueError(
            f"matrix size {mat.shape[0]} does not match algebra dimension {dimension}"
        )
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a NaN or infinite entry")
    return mat


class AlgebraElement:
    """A dynamical quantity: a block-diagonal complex matrix.

    Off-block entries must vanish; they are checked on construction and
    then zeroed exactly so products preserve the structure bit-for-bit.
    Supports ``+``, ``-``, scalar ``*``, and ``@`` / ``*`` for the
    algebra product.

    Two derived slots start empty and are filled on first use, so they
    live exactly as long as the element: ``_eigh``, the read-only result
    of one ``np.linalg.eigh`` of the matrix (see :func:`_eigh`), and
    ``_context``, the context this element generated in a registry (see
    ``contexts.context_from_observable``).
    """

    __slots__ = ("matrix", "algebra", "_eigh", "_context")

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

    def _check_same_algebra(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check_same_algebra(other)
        return AlgebraElement(self.matrix + other.matrix, self.algebra)

    def __sub__(self, other):
        self._check_same_algebra(other)
        return AlgebraElement(self.matrix - other.matrix, self.algebra)

    def __neg__(self):
        return AlgebraElement(-self.matrix, self.algebra)

    def __matmul__(self, other):
        self._check_same_algebra(other)
        return AlgebraElement(self.matrix @ other.matrix, self.algebra)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.__matmul__(other)
        return AlgebraElement(complex(other) * self.matrix, self.algebra)

    def __rmul__(self, scalar):
        return AlgebraElement(complex(scalar) * self.matrix, self.algebra)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.matrix.conj().T, self.algebra)

    @property
    def H(self) -> "AlgebraElement":
        return self.adjoint()

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        scale = max(1.0, float(np.abs(self.matrix).max(initial=0.0)))
        return bool(np.abs(self.matrix - self.matrix.conj().T).max(initial=0.0) <= tol * scale)

    def __repr__(self):
        return f"AlgebraElement(dim={self.algebra.dimension}, blocks={self.algebra.block_sizes})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue / projector pairs of a Hermitian element.

    ``pairs`` is ordered by strictly increasing eigenvalue; the projectors
    are Hermitian idempotents that are mutually orthogonal and sum to the
    identity, all within ``tolerance``-level residuals.
    """

    pairs: tuple[tuple[float, AlgebraElement], ...]
    tolerance: float = GROUPING_TOL

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.pairs)

    def reconstruct(self) -> AlgebraElement:
        algebra = self.pairs[0][1].algebra
        total = np.zeros((algebra.dimension, algebra.dimension), dtype=np.complex128)
        for value, proj in self.pairs:
            total += value * proj.matrix
        return AlgebraElement(total, algebra)

    def projector_sum(self) -> AlgebraElement:
        algebra = self.pairs[0][1].algebra
        total = np.zeros((algebra.dimension, algebra.dimension), dtype=np.complex128)
        for _, proj in self.pairs:
            total += proj.matrix
        return AlgebraElement(total, algebra)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def adjoint(element: AlgebraElement) -> AlgebraElement:
    """Involution of the algebra: the conjugate transpose."""
    return element.adjoint()


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b] = ab - ba.  Vanishes exactly iff the elements are compatible."""
    a._check_same_algebra(b)
    return AlgebraElement(a.matrix @ b.matrix - b.matrix @ a.matrix, a.algebra)


def _require_hermitian(element: AlgebraElement, who: str):
    if not element.is_hermitian():
        raise NonHermitianError(f"{who} requires a Hermitian element")


def _grouped(values: np.ndarray, tolerance: float) -> list[list[int]]:
    """Group near-degenerate eigenvalues of an ascending spectrum.

    Returns lists of indices into ``values``; an eigenvalue within
    ``tolerance`` (relative to the largest magnitude) of its group's
    first member joins that group.
    """
    thr = tolerance * max(1.0, float(np.abs(values).max(initial=0.0)))
    groups: list[list[int]] = []
    for k, v in enumerate(values):
        if groups and v - values[groups[-1][0]] <= thr:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _eigh(element: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(values, vectors)`` of ``np.linalg.eigh(element.matrix)``,
    solved once per element: the matrix is immutable, so is the result."""
    if element._eigh is None:
        values, vectors = np.linalg.eigh(element.matrix)
        values.flags.writeable = False
        vectors.flags.writeable = False
        element._eigh = (values, vectors)
    return element._eigh


def spectrum(element: AlgebraElement, tolerance: float = GROUPING_TOL) -> list[float]:
    """Sorted distinct eigenvalues of a Hermitian element.

    Eigenvalues closer than ``tolerance`` (relative to the largest
    magnitude) are merged into one spectrum point.  Because the maximal
    commutative subalgebras of the matrix algebra are full diagonal
    algebras, the spectrum does not depend on which one the element is
    viewed in.
    """
    _require_hermitian(element, "spectrum")
    values = _eigh(element)[0]
    return [float(np.mean(values[g])) for g in _grouped(values, tolerance)]


def spectral_decomposition(
    element: AlgebraElement, tolerance: float = GROUPING_TOL
) -> SpectralDecomposition:
    """Resolve a Hermitian element into eigenvalue/projector pairs.

    Projectors of a near-degenerate group are the sums of its rank-one
    eigenprojectors, re-Hermitized for stability; they reconstruct the
    element and sum to the identity.
    """
    _require_hermitian(element, "spectral_decomposition")
    values, vectors = _eigh(element)
    pairs = []
    for g in _grouped(values, tolerance):
        vecs = vectors[:, g]
        proj = vecs @ vecs.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        pairs.append((float(np.mean(values[g])), AlgebraElement(proj, element.algebra)))
    return SpectralDecomposition(pairs=tuple(pairs), tolerance=tolerance)


def norm(element: AlgebraElement) -> float:
    """C*-norm: square root of the largest eigenvalue of R*R.

    Equals the spectral radius of ``element`` itself when the element is
    Hermitian, and satisfies norm(R*R) == norm(R)**2 for every R.
    """
    gram = element.matrix.conj().T @ element.matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def is_one_dim_projector(element: AlgebraElement, tolerance: float = 1e-9) -> bool:
    """True iff p* = p, p^2 = p and trace(p) = 1 within tolerance.

    The unit-trace condition is the finite-dimensional form of
    non-decomposability: a projector of higher rank splits into a sum of
    orthogonal sub-projectors.
    """
    mat = element.matrix
    if np.abs(mat - mat.conj().T).max(initial=0.0) > tolerance:
        return False
    if np.abs(mat @ mat - mat).max(initial=0.0) > tolerance:
        return False
    return abs(np.trace(mat) - 1.0) <= tolerance


def check_positivity_structure(element: AlgebraElement, tolerance: float = 1e-10) -> bool:
    """Verify the positivity axioms of the involution on one element.

    Checks that R*R is Hermitian positive semidefinite, that it equals
    A^2 for the principal square root A, and that a vanishing norm of
    R*R forces R itself to vanish.
    """
    gram = element.matrix.conj().T @ element.matrix
    scale = max(1.0, float(np.abs(gram).max(initial=0.0)))
    if np.abs(gram - gram.conj().T).max(initial=0.0) > tolerance * scale:
        return False
    values, vectors = np.linalg.eigh(gram)
    if values[0] < -tolerance * scale:
        return False
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    if np.abs(root @ root - gram).max(initial=0.0) > 1e-8 * scale:
        return False
    if norm(AlgebraElement(gram, element.algebra)) <= tolerance:
        return bool(np.abs(element.matrix).max(initial=0.0) <= 1e-10)
    return True


# ---------------------------------------------------------------------------
# fingerprints and serialization
# ---------------------------------------------------------------------------


def element_fingerprint(element: AlgebraElement, decimals: int = 9) -> str:
    """Deterministic identity string for an observable.

    Entries are rounded to ``decimals`` places before hashing so that
    numerically identical observables produced along different code paths
    agree.  The block structure of a non-full algebra is hashed too, so
    the same matrix in two algebras gets two fingerprints.
    """
    mat = element.matrix
    rounded = np.round(mat.real, decimals) + 1j * np.round(mat.imag, decimals)
    rounded += 0.0  # normalize -0.0 to +0.0 so the byte stream is canonical
    digest = hashlib.sha1()
    digest.update(str(mat.shape[0]).encode())
    if not element.algebra.is_full:
        # only non-full algebras are tagged, so full-algebra fingerprints (and
        # the stable records and reports keyed on them) keep their bytes
        sizes = ",".join(str(size) for size in element.algebra.block_sizes)
        digest.update(f"blocks:{sizes};".encode())
    digest.update(np.ascontiguousarray(rounded).tobytes())
    return digest.hexdigest()


def element_to_json_dict(element: AlgebraElement) -> dict:
    """Row-major JSON form: entries as [re, im] pairs plus shape headers."""
    return {
        "dimension": element.algebra.dimension,
        "block_sizes": list(element.algebra.block_sizes),
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in element.matrix
        ],
    }


def element_from_json_dict(doc: dict) -> AlgebraElement:
    algebra = AlgebraDescriptor(
        dimension=int(doc["dimension"]), block_sizes=tuple(doc["block_sizes"])
    )
    mat = np.array(
        [[complex(re, im) for re, im in row] for row in doc["matrix"]],
        dtype=np.complex128,
    )
    return AlgebraElement(mat, algebra)
