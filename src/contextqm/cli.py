"""Command-line experiments over the library's constructions.

Each command is one seeded, reproducible experiment emitting a JSON or
CSV report; identical (command, seed, parameters) produce byte-identical
output.  Commands exit nonzero when a hard numerical threshold is
violated, so they compose into shell-level checks.
"""

from __future__ import annotations

import sys
import time

import click
import numpy as np

from .algebra import AlgebraDescriptor
from .contexts import ContextRegistry, context_from_observable
from .ensembles import born_distribution, x_polarized
from .gns import StateFunctional, build_gns, pure_state_trials, verify_gns
from .measurement import (
    ks_noncontextual_search,
    load_ray_csv,
    peres33_rays,
    spin_axis_observable,
)
from .oscillator import (
    FOCK_MARGIN,
    MAX_FOCK_CUTOFF,
    MAX_WICK_ORDER,
    fock_oracle_green,
    wick_green,
)
from .reports import build_envelope, render_csv, render_json, write_text
from .states import count_draws

STAT_BAND = 4.0  # standard-error multiplier for statistical checks
GNS_THRESHOLD = 1e-10
GREEN_THRESHOLD = 1e-8
# spin-demo's sample cap: 10**9 draws at the four default angles take about
# 20 s on a 2-vCPU host, and count_draws keeps memory flat at any count
MAX_SAMPLES = 10**9
# gns-check's trial cap: at --n 6, 2*10**4 trials take 1.1-1.4 s on that
# host, so 3*10**5 take about 20 s; the trials run in chunks, so memory is flat
MAX_TRIALS = 3 * 10**5


def _emit(doc: dict, fmt: str, out: str | None, rows: list[dict]):
    """Write ``doc`` as JSON, or ``rows`` as CSV under the envelope fields.

    An ``--out`` file that cannot be written, say in a missing directory,
    is a one-line error with exit code 1.
    """
    if fmt == "json":
        text = render_json(doc)
    else:
        preamble = {key: doc[key] for key in ("schema_version", "command", "seed")}
        text = render_csv(rows, preamble)
    try:
        write_text(text, out)
    except OSError as exc:
        if out is None or out == "-":
            raise
        raise click.FileError(out, hint=exc.strerror or str(exc)) from exc


def _note(text: str):
    # Not click.echo(err=True): click caches a wrapper per sys.stderr object
    # and that cache keeps alive every stream an in-process caller (tests,
    # CliRunner) swaps in, so each invocation of ``main`` would leak one.
    print(text, file=sys.stderr, flush=True)


def _stopwatch(t0: float):
    _note(f"wall_time_s: {time.perf_counter() - t0:.3f}")


seed_option = click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    envvar="CONTEXTQM_SEED",
    help="Master seed; fully determines all randomness (env: CONTEXTQM_SEED).",
)
out_option = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Output file (default: stdout).",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True, help="Report format.",
)


@click.group()
@click.version_option(package_name="contextqm")
def main():
    """Seeded experiments: contextual sampling, ray coloring, correlation
    functions, and representation checks."""


@main.command("spin-demo")
@click.option(
    "--theta",
    "thetas",
    type=float,
    multiple=True,
    default=(np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3),
    show_default=False,
    help="Measurement-axis angles from the polarization axis (radians); repeatable.",
)
@click.option(
    "--samples",
    "-n",
    "sample_count",
    type=click.IntRange(1, MAX_SAMPLES),
    default=100_000,
    show_default=True,
)
@seed_option
@out_option
@format_option
def spin_demo(thetas, sample_count, seed, out, fmt):
    """Born statistics for a spin-1/2 state polarized along x.

    For each angle, draws outcomes of the spin component along the tilted
    axis and compares the +1/2 frequency with the exact probability
    cos(theta/2)^2.  Exits nonzero if any angle falls outside the
    4-standard-error band.
    """
    t0 = time.perf_counter()
    for theta in thetas:
        if not 0.0 <= theta <= 2.0 * np.pi:
            raise click.BadParameter(f"theta {theta} outside [0, 2*pi]")
    psi = x_polarized()
    registry = ContextRegistry()
    streams = np.random.SeedSequence(seed).spawn(len(thetas))
    angle_rows = []
    violations = 0
    for theta, stream in zip(thetas, streams):
        rng = np.random.default_rng(stream)
        observable = spin_axis_observable(theta)
        ctx = context_from_observable(observable, registry)
        probs = born_distribution(psi, ctx)
        reads = ctx.diagonal_values(observable)
        plus_index = int(np.argmax(reads))  # the +1 eigenvalue's slot
        exact = float(probs[plus_index])
        counts = count_draws(probs / probs.sum(), rng, sample_count)
        frequency = float(counts[plus_index] / sample_count)
        se = float(np.sqrt(max(frequency * (1 - frequency), 0.0) / sample_count))
        deviation = abs(frequency - exact)
        band = STAT_BAND * se
        ok = deviation <= band if se > 0 else deviation == 0.0
        violations += 0 if ok else 1
        angle_rows.append(
            {
                "theta": float(theta),
                "exact_probability_plus": exact,
                "empirical_frequency_plus": frequency,
                "standard_error": se,
                "within_band": bool(ok),
            }
        )
    doc = build_envelope(
        "spin-demo",
        seed,
        {"samples": sample_count, "thetas": [float(t) for t in thetas]},
        {"angles": angle_rows, "violations": violations},
    )
    _emit(doc, fmt, out, angle_rows)
    _stopwatch(t0)
    if violations:
        sys.exit(1)


@main.command("ks-search")
@click.option(
    "--ray-file",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="CSV of rays (x,y,z per line, '#' comments); default: bundled 33-ray set.",
)
@click.option(
    "--pair-rule/--no-pair-rule",
    default=True,
    show_default=True,
    help="Also forbid two orthogonal rays from both taking value 0.",
)
@seed_option
@out_option
@format_option
def ks_search(ray_file, pair_rule, seed, out, fmt):
    """Exhaustive search for a noncontextual {0,1} assignment on a ray set.

    Prints the assignment when one exists, or the proof-of-exhaustion
    marker (UNSAT) with the node count.  The bundled default is the
    33-ray set on which the search provably exhausts.
    """
    t0 = time.perf_counter()
    try:  # the bundled set is checksum-verified, so only a user file can fail here
        rays = peres33_rays() if ray_file is None else load_ray_csv(ray_file)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--ray-file") from exc
    try:
        result = ks_noncontextual_search(rays, pair_rule=pair_rule)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    doc = build_envelope(
        "ks-search",
        seed,
        {"ray_file": ray_file or "bundled:peres33", "pair_rule": pair_rule},
        result.to_json_dict(),
    )
    row = {
        "status": "SAT" if result.satisfiable else "UNSAT",
        "nodes": result.nodes,
        "ray_count": result.ray_count,
        "triad_count": result.triad_count,
        "pair_count": result.pair_count,
    }
    _emit(doc, fmt, out, [row])
    _stopwatch(t0)


@main.command("green")
@click.option(
    "--n", "order", type=click.IntRange(0, MAX_WICK_ORDER), required=True, help="Correlation order."
)
@click.option("--omega", type=float, default=1.0, show_default=True)
@click.option(
    "--times",
    type=str,
    default=None,
    help="Comma-separated times (count must equal --n); default: seeded uniform in [-5, 5].",
)
@click.option(
    "--cutoff",
    type=int,
    default=None,
    help=f"Truncation size (default n+6, at most {MAX_FOCK_CUTOFF}).",
)
@seed_option
@out_option
@format_option
def green(order, omega, times, cutoff, seed, out, fmt):
    """Time-ordered n-point function along both routes, with their gap.

    Emits the pairing-expansion value, the truncated-matrix value, and
    the absolute difference; exits nonzero when the routes disagree
    beyond 1e-8.  Odd orders are identically zero.
    """
    t0 = time.perf_counter()
    if times is not None:
        try:
            time_list = [float(part) for part in times.split(",") if part.strip()]
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--times") from exc
        if len(time_list) != order:
            raise click.BadParameter(
                f"--times lists {len(time_list)} values for order {order}"
            )
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        time_list = [float(t) for t in rng.uniform(-5.0, 5.0, size=order)]
    try:  # the routes reject a bad omega, a non-finite time and a bad cutoff
        # an overflow is reported below, as a non-finite route value
        with np.errstate(over="ignore", invalid="ignore"):
            wick = wick_green(time_list, omega)
            fock = fock_oracle_green(time_list, omega, cutoff)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    if not (np.isfinite(wick) and np.isfinite(fock)):
        raise click.BadParameter(
            f"a route overflows (Wick {wick}, Fock {fock})",
            param_hint="'--omega' / '--times'",
        )
    difference = abs(wick - fock)
    doc = build_envelope(
        "green",
        seed,
        {
            "n": order,
            "omega": omega,
            "times": time_list,
            "cutoff": cutoff if cutoff is not None else order + FOCK_MARGIN,
        },
        {
            "wick": {"re": wick.real, "im": wick.imag},
            "fock": {"re": fock.real, "im": fock.imag},
            "abs_difference": difference,
        },
    )
    row = {
        "times": ";".join(repr(t) for t in time_list),
        "wick_re": wick.real,
        "wick_im": wick.imag,
        "fock_re": fock.real,
        "fock_im": fock.imag,
        "abs_difference": difference,
    }
    _emit(doc, fmt, out, [row])
    _stopwatch(t0)
    if not difference <= GREEN_THRESHOLD:  # a NaN gap fails too
        sys.exit(1)


@main.command("gns-check")
@click.option("--n", "dimension", type=click.IntRange(2, 6), default=3, show_default=True)
@click.option("--trials", type=click.IntRange(0, MAX_TRIALS), default=100, show_default=True)
@seed_option
@out_option
@format_option
def gns_check(dimension, trials, seed, out, fmt):
    """Representation health check over random states and elements.

    For random unit vectors, verifies that the cyclic-vector expectation
    reproduces the functional and that compressing by the state projector
    scales it; on the tracial state, checks the scalar-product,
    homomorphism, adjoint and expectation identities.  Reports the worst
    residuals and exits nonzero when any exceeds 1e-10 or a rank is off.
    """
    t0 = time.perf_counter()
    if trials == 0:
        _note("warning: --trials 0 is a vacuous pass")
    algebra = AlgebraDescriptor(dimension)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    expectation_residual, compression_residual, rank_ok = pure_state_trials(
        algebra, trials, rng
    )
    tracial = build_gns(StateFunctional.tracial(algebra))
    tracial_rank = tracial.rank
    rank_ok = rank_ok and tracial_rank == dimension**2
    summary = None
    residuals = [expectation_residual, compression_residual]
    if trials:
        summary = verify_gns(tracial, min(trials, 20), rng)
        residuals += [v for k, v in summary.items() if k.endswith("_residual")]
    ok = bool(rank_ok and all(r <= GNS_THRESHOLD for r in residuals))
    doc = build_envelope(
        "gns-check",
        seed,
        {"n": dimension, "trials": trials},
        {
            "expectation_residual": expectation_residual,
            "compression_residual": compression_residual,
            "pure_rank_expected": dimension,
            "tracial_rank": tracial_rank,
            "rank_ok": bool(rank_ok),
            "tracial_summary": summary,
            "threshold": GNS_THRESHOLD,
            "ok": ok,
        },
    )
    row = {
        "n": dimension,
        "trials": trials,
        "expectation_residual": expectation_residual,
        "compression_residual": compression_residual,
        "tracial_rank": tracial_rank,
        "ok": ok,
    }
    _emit(doc, fmt, out, [row])
    _stopwatch(t0)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
