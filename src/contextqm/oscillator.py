"""Truncated-ladder harmonic oscillator and its time-ordered correlations.

Vacuum expectations of products of position operators are computed along
two independent routes — explicit matrix products on a finite Fock
truncation, and the pairing expansion over the closed-form two-point
kernel — and the library trusts the closed form only because the routes
agree.  On top sit the damped-projector limits, the Gaussian generating
functional of a classical source, and its finite-difference functional
derivatives.

``propagator_quadrature``, the energy-integral route kept for validation,
is the package's only user of scipy: it imports ``scipy.integrate`` on its
first call, so importing this module (or the CLI) does not load scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement
from .gns import StateFunctional

__all__ = [
    "CoarseGridWarning",
    "FockTruncation",
    "TimeGrid",
    "SourceFunction",
    "two_point",
    "perfect_matchings",
    "wick_green",
    "fock_oracle_green",
    "propagator_quadrature",
    "ground_projector_limit",
    "hamiltonian_sandwich_residual",
    "damped_ladder_magnitude",
    "generating_functional",
    "functional_derivative_green",
]

# not a cost limit (the hafnian recursion scales as n 2^n): the cap is the
# CLI's ``green --n`` range, which the CLI tests pin
MAX_WICK_ORDER = 12
# the oracle multiplies dense cutoff x cutoff complex matrices: 512 levels
# take 4 MiB each, and any cutoff above the order is already exact
MAX_FOCK_CUTOFF = 512
# levels the oracle keeps above the order when no cutoff is given
FOCK_MARGIN = 6
# the i*eps regulator of propagator_quadrature's energy integral
QUADRATURE_EPSILON = 1e-6


class CoarseGridWarning(UserWarning):
    """The source grid step resolves the oscillation poorly."""


def _check_omega(omega: float):
    if not 0.0 < omega < math.inf:  # NaN fails every comparison
        raise ValueError(f"omega must be positive and finite, got {omega!r}")


def _finite_times(times) -> list[float]:
    times = [float(t) for t in times]
    if not all(map(math.isfinite, times)):
        raise ValueError("times must all be finite")
    return times


class FockTruncation:
    """Ladder operators on the lowest ``cutoff`` levels.

    The lowering operator annihilates level 0 and maps level k to
    sqrt(k) times level k-1; the canonical commutator holds exactly
    except in the very top diagonal entry, which truncation spoils.
    """

    def __init__(self, cutoff: int, omega: float = 1.0):
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        _check_omega(omega)
        self.cutoff = int(cutoff)
        self.omega = float(omega)
        self.lowering = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(
            np.complex128
        )
        self.raising = self.lowering.conj().T
        self.number = self.raising @ self.lowering
        self.hamiltonian = omega * (self.number + 0.5 * np.eye(cutoff))

    def position_operator(self, t: float) -> np.ndarray:
        """Heisenberg position at time t."""
        phase = np.exp(-1j * self.omega * t)
        return (self.lowering * phase + self.raising * np.conj(phase)) / np.sqrt(
            2.0 * self.omega
        )


def two_point(t1: float, t2: float, omega: float) -> complex:
    """Time-ordered vacuum two-point function of the position operator.

    Closed form exp(-i omega |t1 - t2|) / (2 omega), symmetric in its
    time arguments.  Its validity rests on the agreement of the
    energy-integral quadrature and the Fock-truncation oracle, both kept
    in this module and compared in the test suite.
    """
    _check_omega(omega)
    return complex(_kernel(t1 - t2, omega))


def _kernel(delta_t, omega: float) -> np.ndarray:
    """exp(-i omega |t|) / (2 omega), elementwise over the time differences."""
    return np.exp(-1j * omega * np.abs(delta_t)) / (2.0 * omega)


def perfect_matchings(indices) -> list[list[tuple]]:
    """All perfect matchings of an even index set (smallest-first recursion).

    Factorial in size; kept as the explicit-sum oracle for ``wick_green``.
    """
    indices = list(indices)
    if len(indices) % 2:
        raise ValueError("perfect matchings need an even number of indices")
    if not indices:
        return [[]]
    first, rest = indices[0], indices[1:]
    matchings = []
    for pick in range(len(rest)):
        partner = rest[pick]
        remaining = rest[:pick] + rest[pick + 1 :]
        for tail in perfect_matchings(remaining):
            matchings.append([(first, partner)] + tail)
    return matchings


def wick_green(times, omega: float) -> complex:
    """n-point vacuum correlation as a sum over pairings: a hafnian.

    Odd orders vanish identically.  Even orders are the hafnian of the
    two-point kernel K[i, j] = two_point(t_i, t_j), memoized over bitmasks
    of unpaired arguments: haf(S) sums K[m, p] haf(S - {m, p}) over the
    partners p of m = min S, with haf of the empty set equal to 1.  Each
    subset's hafnian is computed once and shared by every partial pairing
    that leaves it, so the cost is at most n 2^n steps, not the (n-1)!!
    pairings of ``perfect_matchings``.  Orders above MAX_WICK_ORDER are
    rejected.
    """
    times = _finite_times(times)
    _check_omega(omega)
    n = len(times)
    if n > MAX_WICK_ORDER:
        raise ValueError(f"order {n} exceeds the cap {MAX_WICK_ORDER}")
    if n % 2:
        return 0.0 + 0.0j
    if n == 0:
        return 1.0 + 0.0j
    kernel = _kernel(np.subtract.outer(times, times), omega).tolist()
    hafnians = {0: 1.0 + 0.0j}

    def hafnian(mask: int) -> complex:
        if mask not in hafnians:
            first = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << first)
            row = kernel[first]
            hafnians[mask] = sum(
                row[p] * hafnian(rest ^ (1 << p))
                for p in range(first + 1, n)
                if rest >> p & 1
            )
        return hafnians[mask]

    return hafnian((1 << n) - 1)


def fock_oracle_green(times, omega: float, cutoff: int | None = None) -> complex:
    """n-point correlation by explicit truncated matrix products.

    Times are applied latest-leftmost (chronological ordering); the
    result is the vacuum-vacuum matrix element, i.e. the coefficient
    multiplying the ground projector after compressing the ordered
    product.  Position couples adjacent levels only, so any cutoff above
    the order is exact; the default keeps FOCK_MARGIN levels above it.  A
    cutoff above MAX_FOCK_CUTOFF is rejected.
    """
    times = _finite_times(times)
    _check_omega(omega)
    n = len(times)
    if cutoff is None:
        cutoff = n + FOCK_MARGIN
    if cutoff < n + 2:
        raise ValueError(f"cutoff {cutoff} too small for an order-{n} correlation")
    if cutoff > MAX_FOCK_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the cap {MAX_FOCK_CUTOFF}")
    if n == 0:
        return 1.0 + 0.0j
    fock = FockTruncation(cutoff, omega)
    product = np.eye(cutoff, dtype=np.complex128)
    for t in sorted(times, reverse=True):
        product = product @ fock.position_operator(t)
    return complex(product[0, 0])


def propagator_quadrature(t1: float, t2: float, omega: float) -> complex:
    """Energy-integral route to the two-point kernel, for validation only.

    Evaluates (1/2pi) * integral dE exp(-iE(t1-t2)) / (omega^2 - E^2 - i eps)
    by real-axis quadrature with a small finite regulator.  The integrand
    is even in E, so only the cosine part survives; the Lorentzian spike
    at E = omega is resolved by splitting the axis and hinting the peak.
    Returns the regulated kernel, which tends to i/(2 omega) *
    exp(-i omega |t|) as the regulator vanishes.

    Imports ``scipy.integrate`` on the first call; no other route needs it.
    """
    from scipy import integrate

    _check_omega(omega)
    t = abs(t1 - t2)
    delta = 1e-2 * omega

    def base_real(e):
        d = omega * omega - e * e
        return d / (d * d + QUADRATURE_EPSILON * QUADRATURE_EPSILON)

    def base_imag(e):
        d = omega * omega - e * e
        return QUADRATURE_EPSILON / (d * d + QUADRATURE_EPSILON * QUADRATURE_EPSILON)

    quad_opts = dict(limit=400, epsabs=1e-13, epsrel=1e-11)
    total = 0.0 + 0.0j
    for base, unit in ((base_real, 1.0 + 0.0j), (base_imag, 0.0 + 1.0j)):
        inner, _ = integrate.quad(
            lambda e: base(e) * math.cos(e * t), 0.0, omega - delta, **quad_opts
        )
        with warnings.catch_warnings():
            # the regulator spike is 1e6 tall and 1e-6 wide: roundoff noise
            # beyond the requested tolerance is expected and harmless there
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            spike, _ = integrate.quad(
                lambda e: base(e) * math.cos(e * t),
                omega - delta,
                omega + delta,
                points=[omega],
                **quad_opts,
            )
        if t > 0:
            tail, _ = integrate.quad(
                base, omega + delta, np.inf, weight="cos", wvar=t, limit=400
            )
        else:
            tail, _ = integrate.quad(base, omega + delta, np.inf, **quad_opts)
        total += unit * (inner + spike + tail)
    # even integrand: the half-axis doubles; 1/(2 pi) normalization
    return complex(total / np.pi)


# ---------------------------------------------------------------------------
# damped projector limits
# ---------------------------------------------------------------------------


def ground_projector_limit(r: float, cutoff: int) -> tuple[np.ndarray, float]:
    """exp(-r a+ a-) on the truncation, and its distance to the ground projector.

    Both operators are diagonal, so the operator-norm distance is the
    largest suppressed entry, exactly exp(-r) for positive r — no
    eigensolver is involved, keeping the identity sharp to the last bit.
    """
    if not 0.0 <= r < math.inf:  # NaN fails every comparison
        raise ValueError(f"r must be finite and nonnegative, got {r!r}")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    levels = np.arange(cutoff, dtype=float)
    damped = np.diag(np.exp(-r * levels)).astype(np.complex128)
    target = np.zeros(cutoff)
    target[0] = 1.0
    deviation = float(np.max(np.abs(np.exp(-r * levels) - target)))
    return damped, deviation


def hamiltonian_sandwich_residual(r: float, omega: float, cutoff: int) -> float:
    """Norm of exp(-rN) H exp(-rN) - (omega/2) exp(-2rN).

    The compressed energy tends to the ground energy times the compressed
    identity as the damping grows; on the truncation the residual is
    omega * max_k k exp(-2rk), dominated by the first excited level once
    r is order one.
    """
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    _check_omega(omega)
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    levels = np.arange(cutoff, dtype=float)
    sandwich = np.exp(-r * levels) * (omega * (levels + 0.5)) * np.exp(-r * levels)
    compressed_identity = 0.5 * omega * np.exp(-2.0 * r * levels)
    return float(np.max(np.abs(sandwich - compressed_identity)))


def damped_ladder_magnitude(
    k: int,
    l: int,
    r1: float,
    r2: float,
    cutoff: int,
    functional: StateFunctional,
) -> float:
    """|Psi(exp(-r1 N) (a+)^k (a-)^l exp(-r2 N))| on the truncation.

    The damping factors suppress the ladder words by exp(-r1 k - r2 l)
    up to a cutoff-dependent constant; the decay is what lets weak limits
    of damped words vanish level by level.  k = l = 0 is excluded — there
    is nothing to suppress, and a functional of any algebra but the full
    cutoff x cutoff truncation is refused.
    """
    if k < 0 or l < 0:
        raise ValueError("ladder powers must be nonnegative")
    if k == 0 and l == 0:
        raise ValueError("k + l must be positive")
    for name, r in (("r1", r1), ("r2", r2)):
        if not math.isfinite(r):
            raise ValueError(f"{name} must be finite, got {r!r}")
    AlgebraDescriptor(cutoff).require(functional.algebra, "functional")
    fock = FockTruncation(cutoff)
    damp1 = np.diag(np.exp(-r1 * np.arange(cutoff, dtype=float)))
    damp2 = np.diag(np.exp(-r2 * np.arange(cutoff, dtype=float)))
    word = np.linalg.matrix_power(fock.raising, k) @ np.linalg.matrix_power(
        fock.lowering, l
    )
    sandwiched = AlgebraElement(damp1 @ word @ damp2, functional.algebra)
    return abs(functional.value(sandwiched))


# ---------------------------------------------------------------------------
# sources and the generating functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_min, t_max] with ``steps`` nodes."""

    t_min: float
    t_max: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("a grid needs at least 2 nodes")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("grid bounds must be finite")
        if not self.t_max > self.t_min:
            raise ValueError("grid must be strictly increasing")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.steps - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.steps, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def node_index(self, t: float) -> int:
        """Index of the node at time t; rejects off-grid times."""
        position = (t - self.t_min) / self.dt
        index = int(round(position))
        if index < 0 or index >= self.steps or abs(position - index) > 1e-9:
            raise ValueError(f"time {t} is not a node of the grid")
        return index


@dataclass(frozen=True)
class SourceFunction:
    """Real source j(t) sampled on a uniform grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.steps,):
            raise ValueError("sample count does not match the grid")
        if not np.isfinite(samples).all():
            raise ValueError("source samples must all be finite")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_callable(cls, fn, grid: TimeGrid) -> "SourceFunction":
        return cls(grid, np.array([fn(t) for t in grid.nodes()], dtype=float))


def generating_functional(source: SourceFunction, omega: float) -> complex:
    """Z(j) = exp((i/2) double-integral of j D j), by trapezoid quadrature.

    D is the time-ordered kernel of ``two_point`` (times i); the kernel
    normalization is pinned by the finite-difference route reproducing
    the two-point function, not by convention.  A grid step above
    0.1/omega triggers a CoarseGridWarning.
    """
    _check_omega(omega)
    grid = source.grid
    if grid.dt > 0.1 / omega:
        warnings.warn(
            f"grid step {grid.dt:.3g} exceeds 0.1/omega = {0.1 / omega:.3g}; "
            "quadrature of the oscillating kernel will be coarse",
            CoarseGridWarning,
            stacklevel=2,
        )
    nodes = grid.nodes()
    weights = grid.trapezoid_weights()
    weighted = weights * source.samples
    kernel = 1j * _kernel(nodes[:, None] - nodes[None, :], omega)
    exponent = 0.5j * (weighted @ kernel @ weighted)
    return complex(np.exp(exponent))


def functional_derivative_green(
    grid: TimeGrid,
    times,
    omega: float,
    h: float = 1e-3,
) -> complex:
    """n-point function from finite differences of the generating functional.

    Each requested time carries a delta source realized as a single-node
    spike whose height compensates the node's trapezoid weight, so its
    integral is the source strength exactly.  Central differences in the
    strengths give the mixed n-th derivative at zero source, and the
    (1/i)^n prefactor converts it to the correlation function; the error
    is O(h^2) plus the quadrature error of the kernel integral.

    The trapezoid double integral of ``generating_functional`` collapses
    onto the spiked nodes, so each of the 2^n sign patterns s in {+1, -1}^n
    is Z = exp((i/2) h^2 s^T K s) with K the causal kernel on those n nodes
    alone, built once.
    """
    times = _finite_times(times)
    _check_omega(omega)
    n = len(times)
    if n == 0:
        return 1.0 + 0.0j
    spikes = grid.nodes()[[grid.node_index(t) for t in times]]
    sub_kernel = 1j * _kernel(spikes[:, None] - spikes[None, :], omega)
    # row c holds the strengths' signs for pattern c: bit m set means -h
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    forms = np.einsum("ci,ij,cj->c", signs, sub_kernel, signs)
    total = np.sum(np.prod(signs, axis=1) * np.exp(0.5j * h * h * forms))
    derivative = total / (2.0 * h) ** n
    return complex(derivative * (1.0 / 1j) ** n)
