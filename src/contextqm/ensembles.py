"""Born-consistent ensembles of elementary states and quantum averages.

A quantum state (unit vector tau, equivalently its rank-one projector)
labels an ensemble of elementary states.  Sampling a member draws each
requested context's character index from the Born weights |<e_k, tau>|^2,
independently per context: the model never defines — deliberately — a
joint law across incompatible contexts, only the per-context marginals.
Averages over samples converge to the exact functional trace(p_tau A).

Every function that pairs a state with a context or an element first
asks ``AlgebraDescriptor.require`` that both belong to the state's
algebra, so a mismatch raises ``ValueError`` before any draw or product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, element_fingerprint, spectrum
from .contexts import Context
from .states import ElementaryState, agreeing, born_weights, count_draws

__all__ = [
    "QuantumState",
    "EnsembleReport",
    "born_distribution",
    "sample_elementary_state",
    "ensemble_average",
    "quantum_average_exact",
    "linearity_residual",
    "instrument_independence_report",
    "within_band",
    "x_polarized",
]

STAT_BAND = 4.0  # standard errors a statistical check may miss by
NORM_TOL = 1e-6  # how far from 1 a state vector's norm may be before it is refused
MARGINAL_TOL = 1e-12  # largest exact marginal CDF gap of two instruments; of probabilities, so of 1


def within_band(deviation: float, se: float) -> bool:
    """``deviation`` within ``STAT_BAND`` standard errors ``se``; a zero
    standard error leaves no spread, so only a zero deviation passes."""
    return deviation <= STAT_BAND * se if se > 0 else deviation == 0.0


class QuantumState:
    """Unit vector tau with its rank-one projector p_tau.

    ``home_context`` marks the context on which members of the ensemble
    are stable by definition of the equivalence class; leave it unset for
    plain per-context Born sampling.  It must be a context of ``algebra``.
    """

    __slots__ = ("vector", "algebra", "home_context")

    def __init__(self, vector, algebra: AlgebraDescriptor, home_context: Context | None = None):
        vec = np.array(vector, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != algebra.dimension:
            raise ValueError(
                f"vector length {vec.shape[0]} does not match dimension {algebra.dimension}"
            )
        if not np.isfinite(vec).all():
            raise ValueError("state vector has a NaN or infinite entry")
        if home_context is not None:
            algebra.require(home_context.algebra, f"home context {home_context.id}")
        length = np.linalg.norm(vec)
        if abs(length - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalized (norm {length:.3e})")
        if abs(length - 1.0) > 0:
            vec = vec / length
        vec.flags.writeable = False
        self.vector = vec
        self.algebra = algebra
        self.home_context = home_context

    @property
    def projector(self) -> AlgebraElement:
        return AlgebraElement(np.outer(self.vector, self.vector.conj()), self.algebra)

    def expectation(self, element: AlgebraElement) -> complex:
        """<tau, S tau> for arbitrary (not necessarily Hermitian) S."""
        self.algebra.require(element.algebra, "element")
        return complex(np.vdot(self.vector, element.matrix @ self.vector))

    def __repr__(self):
        return f"QuantumState(dim={self.algebra.dimension})"


def x_polarized() -> QuantumState:
    """Spin-1/2 state polarized along +x (equal superposition)."""
    return QuantumState(np.array([1.0, 1.0]) / np.sqrt(2.0), AlgebraDescriptor(2))


@dataclass
class EnsembleReport:
    """Empirical-vs-exact summary of one sampled observable.

    ``histogram`` counts samples per spectrum point.
    """

    observable_fingerprint: str
    sample_count: int
    empirical_mean: float
    exact_mean: float
    sample_variance: float
    histogram: dict = field(default_factory=dict)

    @property
    def standard_error(self) -> float:
        if self.sample_count <= 0:
            return float("inf")
        return float(np.sqrt(self.sample_variance / self.sample_count))

    def to_json_dict(self) -> dict:
        return {
            "observable": self.observable_fingerprint,
            "sample_count": self.sample_count,
            "empirical_mean": self.empirical_mean,
            "exact_mean": self.exact_mean,
            "standard_error": self.standard_error,
            "histogram": {str(k): int(v) for k, v in sorted(self.histogram.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def born_distribution(psi: QuantumState, ctx: Context) -> np.ndarray:
    """Probabilities |<e_k, tau>|^2 of the context's character indices."""
    psi.algebra.require(ctx.algebra, f"context {ctx.id}")
    return born_weights(ctx.basis, psi.vector)


def sample_elementary_state(psi: QuantumState, contexts, rng) -> ElementaryState:
    """Draw one member of the ensemble labeled by ``psi``.

    Every context in ``contexts`` gets a layer immediately; unseen
    contexts will be drawn lazily from the same attached vector.  When
    the state has a home context, its layer is drawn first and the basis
    projectors of the home context become stable records, so any other
    context containing them is conditioned accordingly.  A context of
    another algebra than the state's raises ``ValueError`` before any draw.
    """
    contexts = tuple(contexts)
    for ctx in contexts:
        psi.algebra.require(ctx.algebra, f"context {ctx.id}")
    phi = ElementaryState(rng=rng, attached_vector=psi.vector)
    if psi.home_context is not None:
        home = psi.home_context
        layer = phi.ensure_layer(home)
        for k in range(home.dimension):
            phi.add_stable_record(
                home.basis_projector(k), 1.0 if k == layer.index else 0.0
            )
    for ctx in contexts:
        phi.ensure_layer(ctx)
    return phi


def ensemble_average(
    psi: QuantumState,
    element: AlgebraElement,
    ctx: Context,
    sample_count: int,
    rng,
) -> EnsembleReport:
    """Empirical mean of an observable over a fresh sample of the ensemble.

    Each sample is an independent elementary state; only its character
    index in ``ctx`` matters for this observable, so ``count_draws``
    tallies the draws per index, with no index array, and the mean and
    ddof=1 variance weigh each read by its count.  The histogram is
    counted per index: a spectrum point's count sums the draws of the
    indices whose reads agree with it.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    reads = ctx.reads(element)
    probs = born_distribution(psi, ctx)
    counts = count_draws(probs / probs.sum(), rng, sample_count)
    mean = float(counts @ reads) / sample_count
    spread = float(counts @ (reads - mean) ** 2)
    variance = spread / (sample_count - 1) if sample_count > 1 else 0.0

    points = spectrum(element)
    hits = agreeing(reads, np.array(points)[:, None]) @ counts  # one row per point
    histogram = {round(point, 12): hit for point, hit in zip(points, hits.tolist()) if hit}

    return EnsembleReport(
        observable_fingerprint=element_fingerprint(element),
        sample_count=sample_count,
        empirical_mean=mean,
        exact_mean=float(np.real(psi.expectation(element))),
        sample_variance=variance,
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# exact functionals
# ---------------------------------------------------------------------------


def quantum_average_exact(psi: QuantumState, element: AlgebraElement) -> float:
    """The ensemble average extracted from the compression identity.

    p_tau A p_tau is proportional to p_tau; the coefficient is
    trace(p_tau A), which this returns.  It coincides with <tau, A tau>
    to machine precision — both forms are exercised by the test suite.
    """
    psi.algebra.require(element.algebra, "element")
    return float(np.real(np.trace(psi.projector.matrix @ element.matrix)))


def linearity_residual(
    psi: QuantumState, a: AlgebraElement, b: AlgebraElement
) -> float:
    """|Psi(A+B) - Psi(A) - Psi(B)|, meaningful precisely because it is
    checked on non-commuting pairs: additivity of the ensemble average
    does not require compatibility."""
    return abs(
        quantum_average_exact(psi, a + b)
        - quantum_average_exact(psi, a)
        - quantum_average_exact(psi, b)
    )


def instrument_independence_report(
    psi: QuantumState,
    element: AlgebraElement,
    ctx1: Context,
    ctx2: Context,
    sample_count: int,
    rng,
) -> dict:
    """Compare an observable's distribution measured via two contexts.

    Both contexts must contain the observable.  The exact marginals are
    computed from the Born weights (they agree identically, being sums of
    the same eigenprojector expectations); the empirical cumulative
    distributions at every spectrum threshold are compared against the
    4-pooled-standard-error band.  The draws are tallied per index by ``count_draws``,
    so memory stays flat in ``sample_count``; a threshold sums its indices' tallies.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    contexts = (ctx1, ctx2)
    reads = [ctx.reads(element) for ctx in contexts]
    points = sorted(spectrum(element))
    probs = [born_distribution(psi, ctx) for ctx in contexts]
    counts = [count_draws(p / p.sum(), rng, sample_count) for p in probs]

    thresholds = []
    max_exact_diff = 0.0
    worst_band_ratio = 0.0
    for point in points:
        # the indices whose reads count at this CDF threshold
        below = [(r <= point) | agreeing(r, point) for r in reads]
        exact1, exact2 = (float(p[b].sum()) for p, b in zip(probs, below))
        f1, f2 = (int(c[b].sum()) / sample_count for c, b in zip(counts, below))
        pooled = (f1 * sample_count + f2 * sample_count) / (2 * sample_count)
        pooled_se = float(np.sqrt(pooled * (1 - pooled) * (2.0 / sample_count)))
        diff = abs(f1 - f2)
        band = STAT_BAND * pooled_se
        # degenerate thresholds (pooled 0 or 1) have zero variance and must
        # agree exactly
        ratio = diff / band if band > 0 else (0.0 if diff == 0 else np.inf)
        worst_band_ratio = max(worst_band_ratio, ratio)
        max_exact_diff = max(max_exact_diff, abs(exact1 - exact2))
        thresholds.append(
            {
                "threshold": float(point),
                "empirical_cdf_1": f1,
                "empirical_cdf_2": f2,
                "exact_cdf": exact1,
                "pooled_se": pooled_se,
                "within_band": within_band(diff, pooled_se),
            }
        )

    return {
        "context_1": ctx1.id,
        "context_2": ctx2.id,
        "sample_count": sample_count,
        "thresholds": thresholds,
        "max_exact_marginal_diff": max_exact_diff,
        "worst_band_ratio": float(worst_band_ratio),
        "ok": bool(max_exact_diff <= MARGINAL_TOL and worst_band_ratio <= 1.0),
    }
