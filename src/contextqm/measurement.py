"""Measurement instruments, the repeatable-update rule, and ray-coloring search.

A measurement asks one context's question of an elementary state.  The
update rule keeps the acting context's character untouched (so immediate
repeats agree), pins the measured observable (so any instrument sharing
it reproduces the value), and wipes everything else for lazy
re-draw — the controlled part of the state survives, the rest does not.

The module also hosts the spin-1 squared-projection observables and an
exhaustive search for noncontextual {0,1} assignments on ray sets, which
certifies that no context-independent valuation exists for the bundled
33-ray set while the contextual state model happily reproduces the
quantum statistics on the same observables.  The search backtracks on an
explicit stack of decisions, so any number of rays fits, and its node
count is the number of values tried.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, element_fingerprint
from .contexts import Context, contains
from .reports import parse_float_csv
from .states import ElementaryState, StableRecord, agreeing

__all__ = [
    "Instrument",
    "MeasurementRecord",
    "KsSearchResult",
    "measure",
    "run_sequence",
    "pauli_matrices",
    "spin_axis_observable",
    "spin1_matrices",
    "spin1_squared_observables",
    "rotated_squared_family",
    "ks_noncontextual_search",
    "load_ray_csv",
    "peres33_rays",
]

ORTHOGONALITY_TOL = 1e-9
SAME_RAY_TOL = 1e-9  # rays with |<u, v>| >= 1 - SAME_RAY_TOL are one ray
RAY_NORM_TOL = 1e-9  # largest | ||u|| - 1 | of a ray the search takes as normalized, so of 1
ZERO_RAY_TOL = 1e-12  # a file's ray shorter than this, in the file's own units, is a zero vector
FRAME_TOL = 1e-10  # largest entry of F F^T - I for an axis frame F of unit rows, so of 1
# weight ||P v|| of the attached unit vector v on the measured eigenspace
# below which it has none; of ||v|| = 1
PROJECTED_WEIGHT_TOL = 1e-12
GRAM_BLOCK = 256  # Gram rows formed per block in _gram_pairs, so memory grows as m, not m^2

# sha256 of the bundled 33-ray coordinate file; refuse to run on a
# corrupted or edited copy
PERES33_SHA256 = "ffdfdbc67cd6952becf91d82aa2f15cff76367156d8ea5c4c9db09e0465c05a6"


@dataclass(frozen=True)
class Instrument:
    """A measuring device: it can probe exactly one context."""

    context: Context
    label: str = ""


@dataclass(frozen=True)
class MeasurementRecord:
    step: int
    instrument_type: str
    instrument_label: str
    observable_fingerprint: str
    value: float
    post_stable: frozenset


def measure(phi: ElementaryState, inst: Instrument, element: AlgebraElement, rng=None):
    """Measure one observable with one instrument; returns (value, phi).

    The state is updated in place:

    * the acting context's character is unchanged (repeats are exact);
    * the measured observable joins the stable records, so every future
      layer — whatever the instrument — reproduces the value bit-for-bit;
    * stable records for other observables survive only if the acting
      context contains them;
    * all other layers are dropped; they are re-drawn lazily, conditioned
      on the surviving records and on the attached state vector, which is
      projected onto the acting context's basis vectors that read the
      observed value, which span its eigenspace.

    Raises ``ValueError``, leaving the state as it was, when the attached
    vector has no weight there (possible only for a layer not drawn from it).
    """
    ctx = inst.context
    reads = ctx.reads(element)
    fingerprint = element_fingerprint(element)
    acting = phi.ensure_layer(ctx, rng)

    record = phi.stable.get(fingerprint)
    value = record.value if record is not None else float(reads[acting.index])

    vector = phi.attached_vector
    if vector is not None:
        eigenspace = ctx.basis[:, agreeing(reads, value)]
        projected = eigenspace @ (eigenspace.conj().T @ vector)
        weight = np.linalg.norm(projected)
        if not weight > PROJECTED_WEIGHT_TOL:
            raise ValueError(f"attached vector has no weight on value {value!r} in {ctx.id}")
        vector = projected / weight

    phi.layers = {ctx.id: acting}
    # the measured observable's record is replaced below; its read was taken above
    kept = {
        fp: rec
        for fp, rec in phi.stable.items()
        if fp == fingerprint or contains(ctx, rec.element)
    }
    kept[fingerprint] = StableRecord(fingerprint, element, value)
    phi.stable = kept
    phi.attached_vector = vector

    return value, phi


def run_sequence(phi0: ElementaryState, plan, rng=None) -> list[MeasurementRecord]:
    """Execute a measurement plan, returning the transcript.

    ``plan`` is a sequence of (Instrument, AlgebraElement) pairs.  The
    state is mutated step by step; the transcript snapshot records the
    stable set after each step.
    """
    plan = list(plan)
    if not plan:
        raise ValueError("measurement plan is empty")
    records = []
    for step, (inst, element) in enumerate(plan):
        value, phi0 = measure(phi0, inst, element, rng)
        records.append(
            MeasurementRecord(
                step=step,
                instrument_type=inst.context.id,
                instrument_label=inst.label,
                observable_fingerprint=element_fingerprint(element),
                value=value,
                post_stable=frozenset(phi0.stable),
            )
        )
    return records


# ---------------------------------------------------------------------------
# spin observables
# ---------------------------------------------------------------------------


def pauli_matrices():
    """(sigma_x, sigma_y, sigma_z) on the 2x2 full algebra."""
    algebra = AlgebraDescriptor(2)
    sx = AlgebraElement([[0, 1], [1, 0]], algebra)
    sy = AlgebraElement([[0, -1j], [1j, 0]], algebra)
    sz = AlgebraElement([[1, 0], [0, -1]], algebra)
    return sx, sy, sz


def spin_axis_observable(theta: float) -> AlgebraElement:
    """Spin component (eigenvalues +1/-1) along the axis at angle theta
    from the x-axis, in the x-z plane.

    The +1 eigenvector at theta = 0 is the x-polarized state, so a state
    polarized along x answers +1 with probability cos(theta/2)**2.
    """
    sx, _, sz = pauli_matrices()
    return np.cos(theta) * sx + np.sin(theta) * sz


def spin1_matrices():
    """Spin-1 component operators (S_x, S_y, S_z), hbar = 1."""
    algebra = AlgebraDescriptor(3)
    s = 1.0 / np.sqrt(2.0)
    sx = AlgebraElement([[0, s, 0], [s, 0, s], [0, s, 0]], algebra)
    sy = AlgebraElement([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]], algebra)
    sz = AlgebraElement([[1, 0, 0], [0, 0, 0], [0, 0, -1]], algebra)
    return sx, sy, sz


def spin1_squared_observables():
    """The three squared spin-1 components along the coordinate axes.

    They commute pairwise, each has spectrum {0, 1}, and they sum to
    twice the identity — the structure behind both the sum rule of the
    ray-coloring search and the compatible-triple measurements.
    """
    sx, sy, sz = spin1_matrices()
    return sx * sx, sy * sy, sz * sz


def rotated_squared_family(axis_frame) -> tuple:
    """Squared spin-1 projections along an orthonormal frame of axes.

    ``axis_frame`` holds three real unit 3-vectors as rows.  Families of
    different frames sharing an axis share that axis's squared
    projection; the rest are generally incompatible.
    """
    frame = np.asarray(axis_frame, dtype=float)
    if frame.shape != (3, 3):
        raise ValueError("axis_frame must be three 3-vectors")
    if np.abs(frame @ frame.T - np.eye(3)).max() > FRAME_TOL:
        raise ValueError("axis frame is not orthonormal")
    sx, sy, sz = spin1_matrices()
    squares = []
    for axis in frame:
        s_axis = axis[0] * sx + axis[1] * sy + axis[2] * sz
        squares.append(s_axis * s_axis)
    return tuple(squares)


# ---------------------------------------------------------------------------
# noncontextual-assignment search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KsSearchResult:
    """Outcome of the exhaustive {0,1}-assignment search.

    ``assignment`` maps ray index to the value of the squared projection
    along that ray; ``None`` is the proof-of-exhaustion marker.
    """

    assignment: dict | None
    nodes: int
    ray_count: int
    triad_count: int
    pair_count: int

    @property
    def satisfiable(self) -> bool:
        return self.assignment is not None

    @property
    def exhausted(self) -> bool:
        return self.assignment is None

    def to_json_dict(self) -> dict:
        return {
            "satisfiable": self.satisfiable,
            "assignment": None
            if self.assignment is None
            else {str(k): int(v) for k, v in sorted(self.assignment.items())},
            "exhausted": self.exhausted,
            "nodes": self.nodes,
            "ray_count": self.ray_count,
            "triad_count": self.triad_count,
            "pair_count": self.pair_count,
        }


def _gram_pairs(rays: np.ndarray, keep) -> np.ndarray:
    """Index pairs (i, j), i < j, in row-major order, whose overlap
    |<r_i, r_j>| passes ``keep``, as an array of shape (count, 2).

    The Gram matrix is formed ``GRAM_BLOCK`` rows at a time and never whole.
    """
    found = []
    for start in range(0, len(rays), GRAM_BLOCK):
        overlap = rays[start : start + GRAM_BLOCK] @ rays.T
        np.abs(overlap, out=overlap)
        hits = np.argwhere(np.triu(keep(overlap), start + 1))  # global column > global row
        del overlap  # freed before the next block is formed
        hits[:, 0] += start
        found.append(hits)
    return np.concatenate(found)


def _orthogonal_structure(rays: np.ndarray):
    """Orthogonal pairs (i < j, row-major), triads (i < j < k) and partners."""
    orthogonal = _gram_pairs(rays, lambda overlap: overlap <= ORTHOGONALITY_TOL)
    pairs = [tuple(p) for p in orthogonal.tolist()]
    orth = {i: set() for i in range(len(rays))}
    for i, j in pairs:
        orth[i].add(j)
        orth[j].add(i)
    triads = [
        (i, j, k)
        for i, j in pairs
        for k in orth[i] & orth[j]
        if k > j
    ]
    return pairs, triads, orth


def ks_noncontextual_search(rays, pair_rule: bool = True) -> KsSearchResult:
    """Exhaustive search for a context-independent valuation of a ray set.

    Values are those of the squared spin projection along each ray.  In
    every complete orthogonal triad the three squares sum to 2, so
    exactly one value is 0.  Two orthogonal rays can never both carry 0:
    completing them to a triad would force the third square to 2, outside
    its spectrum — this pair constraint is implied physics and is applied
    by default so partial triads bind too.

    Depth-first backtracking with unit propagation, run on an explicit
    stack of decisions, so the ray count sets no depth limit.  Each
    decision gives the lowest unassigned ray 0, then 1; ``nodes`` counts
    the values tried.  Exhaustion without a model certifies that no
    assignment exists.
    """
    rays = np.asarray(rays, dtype=float)
    if rays.ndim != 2 or rays.shape[1] != 3 or len(rays) == 0:
        raise ValueError("rays must be a nonempty list of 3-vectors")
    if not np.isfinite(rays).all():
        raise ValueError("rays must be finite")
    if not np.abs(np.linalg.norm(rays, axis=1) - 1.0).max() <= RAY_NORM_TOL:
        raise ValueError("rays must be normalized")

    pairs, triads, orth = _orthogonal_structure(rays)
    if not triads:
        raise ValueError("ray set contains no complete orthogonal triad")

    m = len(rays)
    values = [None] * m
    pair_partners = orth if pair_rule else {i: set() for i in range(m)}
    triads_of = {i: [] for i in range(m)}
    for triad in triads:
        for i in triad:
            triads_of[i].append(triad)

    def settle(trail) -> bool:
        """Apply both rules to each ray on the trail, appending the rays
        they force to it; False on a conflict."""
        for current in trail:  # the trail grows while it is read
            if values[current] == 0:
                for j in pair_partners[current]:
                    if values[j] == 0:
                        return False
                    if values[j] is None:
                        values[j] = 1
                        trail.append(j)
            for triad in triads_of[current]:
                assigned = [values[k] for k in triad if values[k] is not None]
                zeros = assigned.count(0)
                if zeros > 1 or (len(assigned) == 3 and zeros == 0):
                    return False
                if len(assigned) == 2:  # the free ray takes the one 0 unless another holds it
                    (free,) = (k for k in triad if values[k] is None)
                    values[free] = 1 if zeros else 0
                    trail.append(free)
        return True

    nodes = 0
    decisions = []  # (pivot, value, trail), the deepest last
    pivot, value = 0, 0
    while True:
        nodes += 1
        values[pivot] = value
        trail = [pivot]
        decisions.append((pivot, value, trail))
        if settle(trail):
            if None not in values:
                break
            pivot, value = values.index(None), 0
            continue
        while decisions:  # undo up to the deepest decision that can still try 1
            pivot, value, trail = decisions.pop()
            for k in trail:
                values[k] = None
            if value == 0:
                break
        if value == 1:  # both values failed at every level: exhausted
            break
        value = 1

    return KsSearchResult(
        assignment={i: int(values[i]) for i in range(m)} if decisions else None,
        nodes=nodes,
        ray_count=m,
        triad_count=len(triads),
        pair_count=len(pairs),
    )


# ---------------------------------------------------------------------------
# ray-set I/O
# ---------------------------------------------------------------------------


def _rays(text: str, source: str) -> np.ndarray:
    """The normalized rays of CSV ``text``.  An empty set, a zero vector and
    a ray listed twice (a parallel or antiparallel row: two variables for one
    projector) are rejected, naming ``source`` and a repeat's two lines."""
    rays, lines = parse_float_csv(text, 3, source)
    if not len(rays):
        raise ValueError(f"{source} contains no rays")
    norms = np.linalg.norm(rays, axis=1)
    if norms.min() < ZERO_RAY_TOL:
        raise ValueError(f"{source} contains a zero vector")
    rays = rays / norms[:, None]
    same = _gram_pairs(rays, lambda overlap: overlap >= 1.0 - SAME_RAY_TOL)
    if len(same):
        first, second = (lines[k] for k in same[0])
        raise ValueError(f"{source}, lines {first} and {second}: the same ray twice")
    return rays


def load_ray_csv(path) -> np.ndarray:
    """Read rays from CSV lines "x,y,z"; '#' starts a comment; see :func:`_rays`."""
    with open(path, "r", encoding="utf-8") as handle:
        return _rays(handle.read(), f"ray file {path}")


def peres33_rays() -> np.ndarray:
    """The bundled 33-ray set, checksum-verified on every load."""
    ref = resources.files("contextqm.data").joinpath("peres33.csv")
    raw = ref.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != PERES33_SHA256:
        raise RuntimeError(
            f"bundled ray file failed its checksum ({digest}); refusing to use it"
        )
    return _rays(raw.decode("utf-8"), "bundled ray file")
