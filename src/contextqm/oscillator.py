"""Truncated-ladder harmonic oscillator and its time-ordered correlations.

Vacuum expectations of products of position operators are computed along
two independent routes — explicit matrix products on a finite Fock
truncation, and the pairing expansion over the closed-form two-point
kernel — and the library trusts the closed form only because the routes
agree.  The truncation is exact, not an approximation: position moves one
level up or down, so a vacuum-to-vacuum path of n steps never climbs above
level n/2, and any truncation keeping that level gives the same products.
On top sit the damped-projector limits, the Gaussian generating functional
of a classical source, and its finite-difference functional derivatives.
The test suite also checks the closed-form kernel against an
energy-integral quadrature and the hafnian against an explicit sum over
the pairings; both oracles live beside those tests.
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
    "wick_green",
    "fock_oracle_green",
    "ground_projector_limit",
    "hamiltonian_sandwich_residual",
    "damped_ladder_magnitude",
    "generating_functional",
    "functional_derivative_green",
]

# not a cost limit (the hafnian recursion scales as n 2^n): the cap is the
# CLI's ``green --n`` range, which the CLI tests pin
MAX_WICK_ORDER = 12
# levels the oracle keeps above the order: any margin is exact (n/2 + 1
# levels suffice), and 6 keeps the bits of every report taken so far
FOCK_MARGIN = 6


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
        self.omega = float(omega)
        self.lowering = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(
            np.complex128
        )
        self.raising = self.lowering.conj().T

    def position_operator(self, t: float) -> np.ndarray:
        """Heisenberg position at time t."""
        phase = np.exp(-1j * self.omega * t)
        return (self.lowering * phase + self.raising * np.conj(phase)) / np.sqrt(
            2.0 * self.omega
        )


def two_point(t1: float, t2: float, omega: float) -> complex:
    """Time-ordered vacuum two-point function of the position operator.

    Closed form exp(-i omega |t1 - t2|) / (2 omega), symmetric in its
    time arguments.  Its validity rests on its agreement with the
    Fock-truncation oracle, kept in this module, and with an energy-integral
    quadrature that the test suite keeps.
    """
    _check_omega(omega)
    return complex(_kernel(t1 - t2, omega))


def _kernel(delta_t, omega: float) -> np.ndarray:
    """exp(-i omega |t|) / (2 omega), elementwise over the time differences."""
    return np.exp(-1j * omega * np.abs(delta_t)) / (2.0 * omega)


def wick_green(times, omega: float) -> complex:
    """n-point vacuum correlation as a sum over pairings: a hafnian.

    Odd orders vanish identically.  Even orders are the hafnian of the
    two-point kernel K[i, j] = two_point(t_i, t_j), memoized over bitmasks
    of unpaired arguments: haf(S) sums K[m, p] haf(S - {m, p}) over the
    partners p of m = min S, with haf of the empty set equal to 1.  Each
    subset's hafnian is computed once and shared by every partial pairing
    that leaves it, so the cost is at most n 2^n steps, not the (n-1)!!
    pairings one by one.  Orders above MAX_WICK_ORDER are rejected.
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


def fock_oracle_green(times, omega: float) -> complex:
    """n-point correlation by explicit truncated matrix products.

    Times are applied latest-leftmost (chronological ordering); the
    result is the vacuum-vacuum matrix element, i.e. the coefficient
    multiplying the ground projector after compressing the ordered
    product.  Position couples adjacent levels only, so the n steps of a
    path from the vacuum back to it never climb above level n/2: the
    n + FOCK_MARGIN levels kept are exact, not an approximation.
    """
    times = _finite_times(times)
    _check_omega(omega)
    cutoff = len(times) + FOCK_MARGIN
    fock = FockTruncation(cutoff, omega)
    product = np.eye(cutoff, dtype=np.complex128)
    for t in sorted(times, reverse=True):
        product = product @ fock.position_operator(t)
    return complex(product[0, 0])


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

    H = omega (N + 1/2) is diagonal in the number basis, so the product is
    formed from this closed form, level by level.  The compressed energy
    tends to the ground energy times the compressed identity as the
    damping grows; on the truncation the residual is
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
    functional: StateFunctional,
) -> float:
    """|Psi(exp(-r1 N) (a+)^k (a-)^l exp(-r2 N))| on the truncation.

    The truncation is the functional's algebra: its dimension is the
    number of levels kept, and a functional of a block algebra is refused.
    The truncated word is exactly the compression of the untruncated one,
    for the reason ``fock_oracle_green`` is exact: each factor moves one
    level, and (a-)^l only descends before (a+)^k only climbs, so no path
    leaves the kept levels and comes back.  The damping factors suppress the ladder words by
    exp(-r1 k - r2 l) up to a cutoff-dependent constant; the decay is what
    lets weak limits of damped words vanish level by level.  k = l = 0 is
    excluded — there is nothing to suppress.
    """
    if k < 0 or l < 0:
        raise ValueError("ladder powers must be nonnegative")
    if k == 0 and l == 0:
        raise ValueError("k + l must be positive")
    for name, r in (("r1", r1), ("r2", r2)):
        if not math.isfinite(r):
            raise ValueError(f"{name} must be finite, got {r!r}")
    cutoff = functional.algebra.dimension
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
