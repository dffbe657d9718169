"""Numerical GNS construction: Hilbert space from algebra plus functional.

Given a positive normalized linear functional Psi on the block matrix
algebra, the scalar product Psi(R* S) on elements degenerates on the null
directions; quotienting them out (a rank cutoff on the Gram form) leaves
a genuine Hilbert space on which the algebra acts by left multiplication.
The expectation in the cyclic vector reproduces Psi — the mechanism that
turns the Born rule from an assumption into an identity.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, norm
from .ensembles import QuantumState

__all__ = [
    "StateFunctional",
    "GnsSpace",
    "matrix_units",
    "build_gns",
    "represent",
    "vacuum_expectation",
    "compression_identity_check",
    "class_equality_check",
    "seminorm_ideal",
    "verify_gns",
]

RANK_CUTOFF = 1e-10


class StateFunctional:
    """Linear positive normalized functional on a block matrix algebra.

    Internally density-matrix-backed (every such functional on a matrix
    algebra is trace(rho . )), but the representation is private: the
    public face is only ``value``.
    """

    __slots__ = ("_rho", "algebra")

    def __init__(self, rho, algebra: AlgebraDescriptor):
        rho = np.array(rho, dtype=np.complex128)
        if rho.shape != (algebra.dimension, algebra.dimension):
            raise ValueError("density matrix shape does not match the algebra")
        if np.abs(rho - rho.conj().T).max(initial=0.0) > 1e-12:
            raise ValueError("functional matrix must be Hermitian")
        eigenvalues = np.linalg.eigvalsh(rho)
        if eigenvalues[0] < -1e-12:
            raise ValueError(
                f"functional is not positive (min eigenvalue {eigenvalues[0]:.2e})"
            )
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("functional is not normalized: Psi(I) != 1")
        rho.flags.writeable = False
        self._rho = rho
        self.algebra = algebra

    @classmethod
    def from_vector(cls, vector, algebra: AlgebraDescriptor) -> "StateFunctional":
        """The pure functional <tau, . tau> of a unit vector."""
        vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
        length = np.linalg.norm(vec)
        if length <= 0.0:
            raise ValueError("state vector must be nonzero")
        vec = vec / length
        return cls(np.outer(vec, vec.conj()), algebra)

    @classmethod
    def from_quantum_state(cls, psi: QuantumState) -> "StateFunctional":
        return cls.from_vector(psi.vector, psi.algebra)

    @classmethod
    def tracial(cls, algebra: AlgebraDescriptor) -> "StateFunctional":
        """The normalized trace — faithful on the whole algebra."""
        n = algebra.dimension
        return cls(np.eye(n) / n, algebra)

    def value(self, element: AlgebraElement) -> complex:
        return complex(np.trace(self._rho @ element.matrix))

    def __repr__(self):
        return f"StateFunctional(dim={self.algebra.dimension})"


def matrix_units(algebra: AlgebraDescriptor) -> list[tuple[int, int]]:
    """Index pairs (row, col) of the matrix units spanning the algebra.

    Ordered block by block, row-major inside each block: the unit E_i is
    the matrix with a single 1 at the i-th pair.  A full n x n algebra
    has n^2 units; a block algebra has sum(b_k^2).
    """
    pairs = []
    for block in algebra.block_slices():
        for row in range(block.start, block.stop):
            for col in range(block.start, block.stop):
                pairs.append((row, col))
    return pairs


class GnsSpace:
    """The quotient Hilbert space of a functional, with its representation.

    ``class_vector`` maps an algebra element to its equivalence class
    (an r-vector); ``represent`` maps an element to the operator of left
    multiplication on classes.  Pure data after construction.
    """

    def __init__(self, functional: StateFunctional, tolerance: float = RANK_CUTOFF):
        self.functional = functional
        self.algebra = functional.algebra
        self.tolerance = float(tolerance)
        self.units = matrix_units(self.algebra)

        # Gram form of the scalar product on matrix units:
        #   E_i* E_j = delta(row_i, row_j) * unit(col_i, col_j)
        # so G[i, j] = Psi(unit(col_i, col_j)) when rows coincide, else 0.
        count = len(self.units)
        rho = functional._rho
        gram = np.zeros((count, count), dtype=np.complex128)
        for i, (row_i, col_i) in enumerate(self.units):
            for j, (row_j, col_j) in enumerate(self.units):
                if row_i == row_j:
                    gram[i, j] = rho[col_j, col_i]
        gram = 0.5 * (gram + gram.conj().T)
        self.gram = gram

        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        top = float(eigenvalues[-1])
        if eigenvalues[0] < -1e-10 * max(top, 1.0):
            raise ValueError("functional induces a non-positive Gram form")
        keep = eigenvalues > self.tolerance * max(top, 0.0)
        # descending order for a stable, leading-first quotient basis
        order = np.argsort(eigenvalues[keep])[::-1]
        kept_values = eigenvalues[keep][order]
        kept_vectors = eigenvectors[:, keep][:, order]
        self.rank = int(kept_values.size)
        self._scale = np.sqrt(kept_values)
        self._frame = kept_vectors  # columns: orthonormal kept directions

    # -- maps -----------------------------------------------------------------

    def coefficients(self, element: AlgebraElement) -> np.ndarray:
        """Coordinates of an element in the matrix-unit basis."""
        mat = element.matrix
        return np.array([mat[row, col] for row, col in self.units])

    def class_vector(self, element: AlgebraElement) -> np.ndarray:
        """The r-vector of the element's equivalence class, with
        <class_vector(R), class_vector(S)> = Psi(R* S)."""
        coeff = self.coefficients(element)
        return self._scale * (self._frame.conj().T @ coeff)

    def _left_multiplication(self, element: AlgebraElement) -> np.ndarray:
        """Matrix of S . acting on unit coefficients."""
        count = len(self.units)
        index = {pair: i for i, pair in enumerate(self.units)}
        op = np.zeros((count, count), dtype=np.complex128)
        mat = element.matrix
        for j, (row_j, col_j) in enumerate(self.units):
            # S @ unit(row_j, col_j) has column col_j equal to S[:, row_j]
            for row_i in range(mat.shape[0]):
                target = index.get((row_i, col_j))
                if target is not None:
                    op[target, j] = mat[row_i, row_j]
        return op

    def represent(self, element: AlgebraElement) -> np.ndarray:
        """The GNS operator: left multiplication pushed to the quotient."""
        if element.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        lifted = self._frame.conj().T @ self._left_multiplication(element) @ self._frame
        return (self._scale[:, None] * lifted) / self._scale[None, :]

    def cyclic_vector(self) -> np.ndarray:
        return self.class_vector(AlgebraElement.identity(self.algebra))

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.algebra.dimension,
            "block_sizes": list(self.algebra.block_sizes),
            "units": len(self.units),
            "rank": self.rank,
            "tolerance": self.tolerance,
        }


def build_gns(functional: StateFunctional, algebra: AlgebraDescriptor | None = None,
              tolerance: float = RANK_CUTOFF) -> GnsSpace:
    """Construct the GNS space of a functional.

    ``algebra`` is accepted for signature clarity but must agree with the
    functional's own algebra when given.
    """
    if algebra is not None and algebra != functional.algebra:
        raise ValueError("functional is not defined on the requested algebra")
    return GnsSpace(functional, tolerance=tolerance)


def represent(space: GnsSpace, element: AlgebraElement) -> np.ndarray:
    return space.represent(element)


def vacuum_expectation(space: GnsSpace, element: AlgebraElement) -> complex:
    """<class(I), Pi(S) class(I)> — the representation-side expectation.

    Agreement with Psi(S) is the content of the Born-rule identity; it is
    exercised over random elements by the acceptance suite.
    """
    cyclic = space.cyclic_vector()
    return complex(np.vdot(cyclic, space.represent(element) @ cyclic))


def compression_identity_check(
    psi: QuantumState,
    element: AlgebraElement,
    rng=None,
    samples: int = 8,
) -> float:
    """Residual of the compression identity p A p = Psi(A) p.

    Also verifies invariance of the vector functional under compression,
    Psi(S) = Psi(p S p), on random elements; the returned value is the
    worst residual of both checks.
    """
    p = psi.projector.matrix
    # The sandwiched expectation is complex for non-Hermitian elements.
    value = complex(np.trace(p @ element.matrix))
    compressed = p @ element.matrix @ p
    residual = norm(
        AlgebraElement(compressed - value * p, psi.algebra)
    )
    rng = rng if rng is not None else np.random.default_rng(0)
    n = psi.algebra.dimension
    functional = StateFunctional.from_quantum_state(psi)
    for _ in range(samples):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = AlgebraElement(raw, psi.algebra)
        s_compressed = AlgebraElement(p @ raw @ p, psi.algebra)
        residual = max(
            residual, abs(functional.value(s) - functional.value(s_compressed))
        )
    return residual


def class_equality_check(space: GnsSpace, p: AlgebraElement, tolerance: float = 1e-9) -> bool:
    """Whether the classes of ``p`` and the identity coincide.

    For the pure functional of a vector tau and p its projector, the
    difference I - p has vanishing scalar square, so the two classes are
    one point of the quotient space.
    """
    diff = space.class_vector(p) - space.class_vector(
        AlgebraElement.identity(space.algebra)
    )
    return bool(np.linalg.norm(diff) <= tolerance)


def seminorm_ideal(algebra: AlgebraDescriptor, functionals) -> dict:
    """Null ideal of a family of functionals, with quotient bookkeeping.

    J collects the elements R with Psi(R* R) = 0 for every member of the
    family — the directions all of them are blind to.  Returned is a
    basis of J (as elements) plus the ideal/quotient dimensions.  A
    faithful member forces J = {0}.
    """
    functionals = list(functionals)
    if not functionals:
        raise ValueError("empty functional family")
    spaces = [GnsSpace(f) for f in functionals]
    total = sum(space.gram for space in spaces)
    eigenvalues, eigenvectors = np.linalg.eigh(total)
    top = float(eigenvalues[-1])
    null_mask = eigenvalues <= RANK_CUTOFF * max(top, 1.0)
    units = matrix_units(algebra)
    basis = []
    n = algebra.dimension
    for column in np.flatnonzero(null_mask):
        coeff = eigenvectors[:, column]
        mat = np.zeros((n, n), dtype=np.complex128)
        for value, (row, col) in zip(coeff, units):
            mat[row, col] = value
        basis.append(AlgebraElement(mat, algebra))
    return {
        "basis": basis,
        "ideal_dimension": len(basis),
        "quotient_dimension": len(units) - len(basis),
    }


def verify_gns(space: GnsSpace, samples: int, rng) -> dict:
    """Residual report over random elements: the GNS health check.

    Covers the scalar-product identity, *-homomorphism property of the
    representation, and the cyclic-expectation identity.  All residuals
    are hard-thresholded by the caller (the CLI's ``gns-check`` exits
    nonzero when any exceeds 1e-10).
    """
    n = space.algebra.dimension

    def random_element():
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if not space.algebra.is_full:
            mask = space.algebra.block_mask()
            raw = raw * mask
        return AlgebraElement(raw, space.algebra)

    scalar_residual = 0.0
    homomorphism_residual = 0.0
    adjoint_residual = 0.0
    expectation_residual = 0.0
    for _ in range(samples):
        r, s = random_element(), random_element()
        scalar_residual = max(
            scalar_residual,
            abs(
                np.vdot(space.class_vector(r), space.class_vector(s))
                - space.functional.value(r.adjoint() * s)
            ),
        )
        pi_r, pi_s = space.represent(r), space.represent(s)
        homomorphism_residual = max(
            homomorphism_residual,
            float(np.abs(pi_r @ pi_s - space.represent(r * s)).max(initial=0.0)),
        )
        adjoint_residual = max(
            adjoint_residual,
            float(
                np.abs(space.represent(r.adjoint()) - pi_r.conj().T).max(initial=0.0)
            ),
        )
        expectation_residual = max(
            expectation_residual,
            abs(vacuum_expectation(space, s) - space.functional.value(s)),
        )
    return {
        "rank": space.rank,
        "samples": samples,
        "scalar_product_residual": scalar_residual,
        "homomorphism_residual": homomorphism_residual,
        "adjoint_residual": adjoint_residual,
        "expectation_residual": expectation_residual,
    }
