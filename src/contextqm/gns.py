"""Numerical GNS construction: Hilbert space from algebra plus functional.

Given a positive normalized linear functional Psi on the block matrix
algebra, the scalar product Psi(R* S) on elements degenerates on the null
directions; quotienting them out (a rank cutoff) leaves a genuine Hilbert
space on which the algebra acts by left multiplication.  Every such Psi
is trace(rho .), and Psi(R* S) = <R rho^1/2, S rho^1/2>_HS, so the space
is built in closed form, block by block, from the eigenpairs of the
diagonal blocks of rho: no Gram matrix over the matrix units is formed
or eigensolved (the test suite builds one, as the construction's oracle).
The expectation in the cyclic vector reproduces Psi — the mechanism that
turns the Born rule from an assumption into an identity.

Invariants kept here:

* An element or functional of another algebra is refused, before any
  arithmetic, by ``AlgebraDescriptor.require``: in ``StateFunctional.value``,
  ``class_vector``, ``represent``, ``compression_identity_check`` and
  ``seminorm_ideal``.
* ``StateFunctional`` judges positivity on the algebra: each diagonal
  block of rho is eigensolved once, so a density matrix that is
  indefinite only off the blocks is accepted, and NaN or infinite
  matrices and vectors are rejected.  The kept factors W_b, with
  W_b W_b* = rho_b, are all ``build_gns`` reads: it runs no eigensolve.
* The class of R is vec(R W) and the representation of S is S (x) I, block
  by block; seminorm ideals are the null spaces of the summed density
  matrices.
* ``pure_state_trials`` (``gns-check``'s random pure-state trials) runs as
  stacked batches.  Its residuals and the generator's state afterwards are
  bit for bit those of the per-trial loop over ``StateFunctional``,
  ``build_gns``, ``vacuum_expectation`` and ``compression_identity_check``,
  which stay public as that loop's oracle.
* ``verify_gns`` (the tracial summary of ``gns-check``) runs its random
  element pairs as stacked batches too, bit for bit the per-sample loop
  over ``AlgebraElement``, ``class_vector``, ``represent`` and
  ``vacuum_expectation``, which the tests keep as its oracle.
* A batch holds as many items as keep each stack of complex matrices in it
  within ``STACK_BYTES``, and at least one (``_batch_size``), so a batch
  stays cache-sized and memory is flat in the item count and in n.  Every
  stacked step is per item and the generator is drawn in item order, so
  no result depends on the batch size.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement
from .ensembles import QuantumState
from .states import _unit_vector

__all__ = [
    "StateFunctional",
    "GnsSpace",
    "build_gns",
    "vacuum_expectation",
    "compression_identity_check",
    "pure_state_trials",
    "class_equality_check",
    "seminorm_ideal",
    "verify_gns",
]

RANK_CUTOFF = 1e-10
CLASS_TOL = 1e-9  # classes this close are one point of the quotient
# Hermiticity, positivity and normalization gaps a functional's density
# matrix may have; absolute, and so relative to the unit trace Psi(I) = 1
FUNCTIONAL_TOL = 1e-12
STACK_BYTES = 128 * 1024  # bytes per stack of complex matrices in one batch
COMPRESSION_SAMPLES = 8  # random elements per compression-invariance check


class StateFunctional:
    """Linear positive normalized functional on a block matrix algebra.

    Every such functional is trace(rho .) and sees only the diagonal blocks
    rho_b, so it keeps their projection and judges positivity on the
    algebra, from one eigensolve per block; the kept eigenpairs give the
    factors W_b = V_b sqrt(lambda_b), rho_b = W_b W_b*, that ``GnsSpace``
    reads.  The representation is private: the public face is ``value``.
    """

    __slots__ = ("_rho", "_factors", "algebra")

    def __init__(self, rho, algebra: AlgebraDescriptor):
        rho = np.array(rho, dtype=np.complex128)
        if rho.shape != (algebra.dimension, algebra.dimension):
            raise ValueError("density matrix shape does not match the algebra")
        if not np.isfinite(rho).all():
            raise ValueError("functional matrix has a NaN or infinite entry")
        if not algebra.is_full:
            rho[~algebra.block_mask()] = 0.0
        if np.abs(rho - rho.conj().T).max(initial=0.0) > FUNCTIONAL_TOL:
            raise ValueError("functional matrix must be Hermitian")
        spectra, top = _block_spectra(rho, algebra.block_slices())
        lowest = min(float(values[0]) for values, _ in spectra)
        if lowest < -FUNCTIONAL_TOL:
            raise ValueError(f"functional is not positive (min eigenvalue {lowest:.2e})")
        if abs(np.trace(rho).real - 1.0) > FUNCTIONAL_TOL:
            raise ValueError("functional is not normalized: Psi(I) != 1")
        # The Gram form on matrix units is block-diag_b(I_{n_b} (x) rho_b^T),
        # whose spectrum is each rho_b spectrum repeated n_b times: the rank
        # cutoff on it is a cutoff on the rho_b eigenvalues.
        cutoff = RANK_CUTOFF * max(top, 0.0)
        self._factors = [
            vectors[:, values > cutoff] * np.sqrt(values[values > cutoff])
            for values, vectors in spectra
        ]
        rho.flags.writeable = False
        self._rho = rho
        self.algebra = algebra

    @classmethod
    def from_vector(cls, vector, algebra: AlgebraDescriptor) -> "StateFunctional":
        """The pure functional <tau, . tau> of a unit vector."""
        vec = _unit_vector(np.reshape(vector, -1))
        return cls(np.outer(vec, vec.conj()), algebra)

    @classmethod
    def tracial(cls, algebra: AlgebraDescriptor) -> "StateFunctional":
        """The normalized trace — faithful on the whole algebra."""
        n = algebra.dimension
        return cls(np.eye(n) / n, algebra)

    def value(self, element: AlgebraElement) -> complex:
        self.algebra.require(element.algebra, "element")
        return complex(np.trace(self._rho @ element.matrix))

    def __repr__(self):
        return f"StateFunctional(dim={self.algebra.dimension})"


def _block_spectra(matrix: np.ndarray, blocks):
    """eigh of each diagonal block, plus the largest eigenvalue over all."""
    spectra = [np.linalg.eigh(matrix[b, b]) for b in blocks]
    return spectra, max(float(values[-1]) for values, _ in spectra)


def _kron_identity(mat: np.ndarray, r: int) -> np.ndarray:
    """mat (x) I_r: r copies of mat filled into the diagonal of zeros.

    ``mat`` may be a stack of matrices; each item is expanded.  The values
    are those of ``np.kron(mat, np.eye(r))``, which costs more here.
    """
    n = mat.shape[-1]
    wide = np.zeros(mat.shape[:-2] + (n, r, n, r), dtype=mat.dtype)
    for i in range(r):
        wide[..., :, i, :, i] = mat
    return wide.reshape(mat.shape[:-2] + (n * r, n * r))


def _block_diag(parts) -> np.ndarray:
    """Square matrices laid along the diagonal of one complex matrix.

    The parts may be equal-length stacks of matrices; each item is laid out.
    """
    if len(parts) == 1:
        return parts[0]
    size = sum(part.shape[-1] for part in parts)
    out = np.zeros(parts[0].shape[:-2] + (size, size), dtype=np.complex128)
    offset = 0
    for part in parts:
        end = offset + part.shape[-1]
        out[..., offset:end, offset:end] = part
        offset = end
    return out


class GnsSpace:
    """The quotient Hilbert space of a functional, with its representation.

    Built block by block from the functional's spectral factors W_b, with
    rho_b = W_b W_b*: Psi(R* S) = sum_b <R_b W_b, S_b W_b>_HS, so the
    quotient is sum_b C^{n_b} (x) range(rho_b): ``class_vector`` maps an
    element R to the concatenated row-major vec(R_b W_b) (an r-vector), and
    ``represent`` maps S to left multiplication on classes,
    block-diag_b(S_b (x) I_{r_b}).  Pure data after construction.
    """

    def __init__(self, functional: StateFunctional):
        self.functional = functional
        self.algebra = functional.algebra
        self._blocks = self.algebra.block_slices()
        self._factors = functional._factors
        self.rank = sum(w.shape[0] * w.shape[1] for w in self._factors)

    # -- maps -----------------------------------------------------------------

    def _classes(self, mat: np.ndarray) -> np.ndarray:
        """Class vectors of a matrix, or of each item of a stack of them."""
        lead = mat.shape[:-2]
        return np.concatenate(
            [
                (mat[..., b, b] @ w).reshape(lead + (-1,))
                for b, w in zip(self._blocks, self._factors)
            ],
            axis=-1,
        )

    def _represent(self, mat: np.ndarray) -> np.ndarray:
        """GNS operators of a matrix, or of each item of a stack of them."""
        return _block_diag(
            [
                _kron_identity(mat[..., b, b], w.shape[1])
                for b, w in zip(self._blocks, self._factors)
            ]
        )

    def class_vector(self, element: AlgebraElement) -> np.ndarray:
        """The r-vector of the element's equivalence class, with
        <class_vector(R), class_vector(S)> = Psi(R* S)."""
        self.algebra.require(element.algebra, "element")
        return self._classes(element.matrix)

    def represent(self, element: AlgebraElement) -> np.ndarray:
        """The GNS operator: left multiplication pushed to the quotient."""
        self.algebra.require(element.algebra, "element")
        return self._represent(element.matrix)

    def cyclic_vector(self) -> np.ndarray:
        """The class of the identity: the concatenated vec(W_b)."""
        return np.concatenate([w.reshape(-1) for w in self._factors])


def build_gns(functional: StateFunctional) -> GnsSpace:
    """Construct the GNS space of a functional from its spectral factors."""
    return GnsSpace(functional)


def vacuum_expectation(space: GnsSpace, element: AlgebraElement) -> complex:
    """<class(I), Pi(S) class(I)> — the representation-side expectation.

    Agreement with Psi(S) is the content of the Born-rule identity; it is
    exercised over random elements by the acceptance suite.
    """
    cyclic = space.cyclic_vector()
    return complex(np.vdot(cyclic, space.represent(element) @ cyclic))


def _compression_residuals(p, a, raw) -> list[float]:
    """Per-item residuals of the compression identity p A p = Psi(A) p.

    ``p`` is a stack of m state projectors, ``a`` a stack of m elements and
    ``raw`` an (m, samples, n, n) stack of sample batches, one per item.
    Each item's residual is the worst of the C*-norm ||p A p - Psi(A) p||
    (the square root of the top eigenvalue of R*R, as ``norm`` takes it) and
    the invariance gaps |Psi(S) - Psi(p S p)| over its samples.  Every
    product and trace runs over the whole stack, and each residual is bit
    for bit the one of the per-item products and per-item trace sums.
    """
    # The sandwiched expectation is complex for non-Hermitian elements.
    value = np.trace(p @ a, axis1=1, axis2=2)
    gap = p @ a @ p - value[:, None, None] * p
    tops = np.linalg.eigvalsh(gap.conj().transpose(0, 2, 1) @ gap)[:, -1]
    norms = np.sqrt(np.maximum(tops, 0.0))
    # p S p: the left product per sample, then one right product per item on
    # its samples stacked as rows; a product over the stacked columns of S
    # rounds differently
    m, count, n = raw.shape[:3]
    left = p[:, None] @ raw
    sandwiched = (left.reshape(m, count * n, n) @ p).reshape(raw.shape)
    # Psi(S) = trace(p S) against Psi(p S p), one trace sum over the items
    # per sample slot; summing every slot in one einsum rounds differently
    gaps = np.empty((m, count), dtype=np.complex128)
    for s in range(count):
        psi_s = np.einsum("kij,kji->k", p, raw[:, s])
        gaps[:, s] = psi_s - np.einsum("kij,kji->k", p, sandwiched[:, s])
    invariance = np.abs(gaps).max(axis=1, initial=0.0)
    return np.maximum(norms, invariance).tolist()


def compression_identity_check(
    psi: QuantumState,
    element: AlgebraElement,
    rng,
    samples: int = COMPRESSION_SAMPLES,
) -> float:
    """Residual of the compression identity p A p = Psi(A) p.

    Also verifies invariance of the vector functional under compression,
    Psi(S) = Psi(p S p), on random elements; the returned value is the
    worst residual of both checks.
    """
    psi.algebra.require(element.algebra, "element")
    n = psi.algebra.dimension
    # one (sample, re/im, n, n) draw consumes the generator exactly as
    # drawing each sample's real then imaginary part in turn would
    draws = rng.normal(size=(samples, 2, n, n))
    raw = draws[:, 0] + 1j * draws[:, 1]
    if not psi.algebra.is_full:
        raw = raw * psi.algebra.block_mask()
    p = psi.projector.matrix
    return _compression_residuals(p[None], element.matrix[None], raw[None])[0]


def _batch_size(matrices: int, size: int) -> int:
    """Items per batch when each item stacks ``matrices`` complex
    size x size matrices: as many as fit in ``STACK_BYTES``, at least one."""
    return max(1, STACK_BYTES // (16 * matrices * size * size))


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row over its length, as ``np.linalg.norm`` takes it bit for bit.

    The norm is the dot product of the strided real parts plus that of the
    imaginary parts; a stacked row-times-column product is that same dot,
    where ``einsum`` or a summed square round differently.
    """
    re, im = vectors.real, vectors.imag
    square = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return vectors / np.sqrt(square[:, 0])


def pure_state_trials(algebra: AlgebraDescriptor, trials: int, rng):
    """Born-rule and compression checks on ``trials`` random pure states.

    Each trial draws, in this order, a vector tau, an element A and the
    compression samples.  It checks that the cyclic vector of the GNS space
    of Psi = <tau, . tau> gives <cyclic, Pi(A) cyclic> = Psi(A), and that
    the compression identity holds for the Hermitian part of A.  Returned
    are the worst expectation residual, the worst compression residual and
    whether every GNS space had rank n.

    The trials run as stacked batches whose stack of compression samples
    takes at most ``STACK_BYTES``, and no step of a batch loops over its
    trials in Python: the GNS operators fill diagonals (``_kron_identity``)
    and the compression check takes its products and trace sums over the
    whole stack (``_compression_residuals``).  Every
    residual and the generator's state afterwards are bit for bit those of
    looping over ``QuantumState``, ``build_gns(StateFunctional...)``,
    ``vacuum_expectation`` and ``compression_identity_check`` trial by trial.
    """
    if not algebra.is_full:
        raise ValueError("pure-state trials run on a full matrix algebra")
    n = algebra.dimension
    batch = _batch_size(COMPRESSION_SAMPLES, n)
    expectation, compression, rank_ok = 0.0, 0.0, True
    for start in range(0, trials, batch):
        m = min(batch, trials - start)
        # one row per trial: vector re, im; element re, im; samples
        draws = rng.normal(size=(m, 2 * n + (2 + 2 * COMPRESSION_SAMPLES) * n * n))
        raw = draws[:, :n] + 1j * draws[:, n : 2 * n]
        element = draws[:, 2 * n : 2 * n + 2 * n * n].reshape(m, 2, n, n)
        element = element[:, 0] + 1j * element[:, 1]
        samples = draws[:, 2 * n + 2 * n * n :].reshape(m, COMPRESSION_SAMPLES, 2, n, n)
        samples = samples[:, :, 0] + 1j * samples[:, :, 1]
        # the per-trial route normalizes three times: the caller,
        # QuantumState (its vector gives p) and from_vector (it gives rho)
        state = _unit_rows(_unit_rows(raw))
        vector = _unit_rows(state)
        rho = vector[:, :, None] * vector.conj()[:, None, :]
        values, vectors = np.linalg.eigh(rho)
        cutoff = RANK_CUTOFF * np.maximum(values[:, -1], 0.0)
        # eigh sorts ascending, so the kept eigenvalues are the last ones
        kept = (values > cutoff[:, None]).sum(axis=1)
        rank_ok = rank_ok and bool((kept == 1).all())
        vacuum = np.empty(m, dtype=np.complex128)
        for k in np.unique(kept):
            rows = kept == k
            low = n - k
            factor = vectors[rows, :, low:] * np.sqrt(values[rows, None, low:])
            cyclic = factor.reshape(-1, n * k)
            image = _kron_identity(element[rows], k) @ cyclic[:, :, None]
            vacuum[rows] = (cyclic.conj()[:, None, :] @ image)[:, 0, 0]
        value = np.trace(rho @ element, axis1=1, axis2=2)
        # a Python abs of Python complex values gives the per-trial bits
        expectation = max(expectation, *map(abs, (vacuum - value).tolist()))
        hermitian = 0.5 * (element + element.conj().transpose(0, 2, 1))
        p = state[:, :, None] * state.conj()[:, None, :]
        compression = max(compression, *_compression_residuals(p, hermitian, samples))
    return expectation, compression, rank_ok


def class_equality_check(space: GnsSpace, p: AlgebraElement) -> bool:
    """Whether the classes of ``p`` and the identity lie within ``CLASS_TOL``.

    For the pure functional of a vector tau and p its projector, the
    difference I - p has vanishing scalar square, so the two classes are
    one point of the quotient space.
    """
    diff = space.class_vector(p) - space.class_vector(
        AlgebraElement.identity(space.algebra)
    )
    return bool(np.linalg.norm(diff) <= CLASS_TOL)


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
    for f in functionals:
        algebra.require(f.algebra, "functional")
    # Sum_k Psi_k(R* R) = sum_b trace(R_b sigma_b R_b*) with sigma = sum_k rho_k,
    # so R is null iff every row of every R_b is u* for u in null(sigma_b).
    total = sum(f._rho for f in functionals)
    blocks = algebra.block_slices()
    spectra, top = _block_spectra(total, blocks)
    cutoff = RANK_CUTOFF * max(top, 1.0)
    n = algebra.dimension
    basis = []
    for b, (values, vectors) in zip(blocks, spectra):
        for u in vectors[:, values <= cutoff].T:
            for row in range(b.start, b.stop):
                mat = np.zeros((n, n), dtype=np.complex128)
                mat[row, b] = u.conj()
                basis.append(AlgebraElement(mat, algebra))
    return {
        "basis": basis,
        "ideal_dimension": len(basis),
        "quotient_dimension": sum(b * b for b in algebra.block_sizes) - len(basis),
    }


def verify_gns(space: GnsSpace, samples: int, rng) -> dict:
    """Residual report over random elements: the GNS health check.

    Covers the scalar-product identity, *-homomorphism property of the
    representation, and the cyclic-expectation identity.  All residuals
    are hard-thresholded by the caller (the CLI's ``gns-check`` exits
    nonzero when any exceeds 1e-10).

    Each sample draws an element R, then an element S, each as its real
    then imaginary part.  The samples run as stacked batches whose
    rank x rank representations take at most ``STACK_BYTES`` per stack;
    every residual and the generator's state afterwards are bit for bit
    those of checking ``AlgebraElement`` pairs one by one through
    ``class_vector``, ``represent``, ``vacuum_expectation`` and the
    functional's ``value``.
    """
    algebra = space.algebra
    n = algebra.dimension
    rho = space.functional._rho
    cyclic = space.cyclic_vector()
    scalar_residual = 0.0
    homomorphism_residual = 0.0
    adjoint_residual = 0.0
    expectation_residual = 0.0
    batch = _batch_size(1, space.rank)
    for start in range(0, samples, batch):
        m = min(batch, samples - start)
        # one row per sample: R re, R im, S re, S im
        draws = rng.normal(size=(m, 4, n, n))
        r = draws[:, 0] + 1j * draws[:, 1]
        s = draws[:, 2] + 1j * draws[:, 3]
        if not algebra.is_full:
            mask = algebra.block_mask()
            r, s = r * mask, s * mask
        # a transposed view: the layout of the copy AlgebraElement makes of
        # R*, so the products below take the per-sample products' bits
        r_star = r.conj().transpose(0, 2, 1)
        psi_r_star_s = np.trace(rho @ (r_star @ s), axis1=1, axis2=2)
        psi_s = np.trace(rho @ s, axis1=1, axis2=2)
        class_r, class_s = space._classes(r), space._classes(s)
        pi_r, pi_s = space._represent(r), space._represent(s)
        vacuum = pi_s @ cyclic
        # a stacked row-times-column product gives np.vdot's bits per sample;
        # a Python abs of Python complex values keeps the per-sample bits,
        # where np.abs of a complex array rounds differently
        scalar = (class_r.conj()[:, None, :] @ class_s[:, :, None])[:, 0, 0]
        expectation = (cyclic.conj()[None, :] @ vacuum[:, :, None])[:, 0, 0]
        scalar_residual = max(scalar_residual, *map(abs, (scalar - psi_r_star_s).tolist()))
        expectation_residual = max(
            expectation_residual, *map(abs, (expectation - psi_s).tolist())
        )
        homomorphism_gap = pi_r @ pi_s - space._represent(r @ s)
        homomorphism_residual = max(
            homomorphism_residual, float(np.abs(homomorphism_gap).max(initial=0.0))
        )
        adjoint_gap = space._represent(r_star) - pi_r.conj().transpose(0, 2, 1)
        adjoint_residual = max(adjoint_residual, float(np.abs(adjoint_gap).max(initial=0.0)))
    return {
        "rank": space.rank,
        "samples": samples,
        "scalar_product_residual": scalar_residual,
        "homomorphism_residual": homomorphism_residual,
        "adjoint_residual": adjoint_residual,
        "expectation_residual": expectation_residual,
    }
