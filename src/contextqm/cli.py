"""Command-line experiments over the library's constructions.

Each command is one seeded, reproducible experiment emitting a JSON or
CSV report; identical (command, seed, parameters) produce byte-identical
output.  A command body is a function of its options that returns its
report and a verdict; one frame, ``experiment``, renders the report,
writes it, notes the wall time and exits nonzero when a hard numerical
threshold is violated, so the commands compose into shell-level checks.
"""

from __future__ import annotations

import functools
import sys
import time

import click
import numpy as np

from .algebra import AlgebraDescriptor
from .contexts import ContextRegistry, context_from_observable
from .ensembles import born_distribution, within_band, x_polarized
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
from .reports import SCHEMA_VERSION, render_csv, render_json
from .states import count_draws

GNS_THRESHOLD = 1e-10
# green's largest route gap, relative to the sum of the pairing terms'
# magnitudes (``_pairing_magnitude``)
GREEN_THRESHOLD = 1e-8
# spin-demo's sample cap: 10**9 draws at the four default angles take about
# 20 s on a 2-vCPU host, and count_draws keeps memory flat at any count
MAX_SAMPLES = 10**9
# gns-check's trial cap: at --n 6, 2*10**4 trials take 0.8-1.1 s on that
# host, so 3*10**5 take about 15 s; the trials run in batches of a fixed byte
# size, so memory is flat in the trial count and in --n
MAX_TRIALS = 3 * 10**5


def _note(text: str):
    # Not click.echo(err=True): click caches a wrapper per sys.stderr object
    # and that cache keeps alive every stream an in-process caller (tests,
    # CliRunner) swaps in, so each invocation of ``main`` would leak one.
    print(text, file=sys.stderr, flush=True)


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


def experiment(run):
    """The frame of a command whose body ``run`` returns its report.

    ``run`` takes the command's own options and ``seed`` and returns
    ``(parameters, results, rows, ok)``.  The frame adds ``--seed``,
    ``--out`` and ``--format``; writes the report as JSON, or ``rows`` as
    CSV under its first three fields, to stdout or ``--out``; notes the
    wall time on stderr; and exits 1 when ``ok`` is false.  An ``--out``
    file that cannot be written, say in a missing directory, is a one-line
    error with exit code 1.  Apply it below the command's own options, so
    that ``--help`` lists them ahead of the shared three.
    """

    @seed_option
    @out_option
    @format_option
    @functools.wraps(run)
    def command(seed, out, fmt, **options):
        t0 = time.perf_counter()
        parameters, results, rows, ok = run(seed=seed, **options)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": click.get_current_context().command.name,
            "seed": seed,
            "parameters": parameters,
            "results": results,
        }
        if fmt == "json":
            text = render_json(doc)
        else:
            text = render_csv(rows, dict(list(doc.items())[:3]))
        if out is None or out == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise click.FileError(out, hint=exc.strerror or str(exc)) from exc
        _note(f"wall_time_s: {time.perf_counter() - t0:.3f}")
        if not ok:
            sys.exit(1)

    return command


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
@experiment
def spin_demo(thetas, sample_count, seed):
    """Born statistics for a spin-1/2 state polarized along x.

    For each angle, draws outcomes of the spin component along the tilted
    axis and compares the +1/2 frequency with the exact probability
    cos(theta/2)^2.  Exits nonzero if any angle falls outside the
    4-standard-error band.
    """
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
        se = float(np.sqrt(frequency * (1 - frequency) / sample_count))
        ok = within_band(abs(frequency - exact), se)
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
    parameters = {"samples": sample_count, "thetas": [float(t) for t in thetas]}
    return parameters, {"angles": angle_rows, "violations": violations}, angle_rows, not violations


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
@experiment
def ks_search(ray_file, pair_rule, seed):
    """Exhaustive search for a noncontextual {0,1} assignment on a ray set.

    Prints the assignment when one exists, or the proof-of-exhaustion
    marker (UNSAT) with the node count.  The bundled default is the
    33-ray set on which the search provably exhausts.
    """
    try:  # the bundled set is checksum-verified and has triads, so only a user file fails
        rays = peres33_rays() if ray_file is None else load_ray_csv(ray_file)
        result = ks_noncontextual_search(rays, pair_rule=pair_rule)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--ray-file") from exc
    parameters = {"ray_file": ray_file or "bundled:peres33", "pair_rule": pair_rule}
    row = {
        "status": "SAT" if result.satisfiable else "UNSAT",
        "nodes": result.nodes,
        "ray_count": result.ray_count,
        "triad_count": result.triad_count,
        "pair_count": result.pair_count,
    }
    return parameters, result.to_json_dict(), [row], True


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
@experiment
def green(order, omega, times, cutoff, seed):
    """Time-ordered n-point function along both routes, with their gap.

    Emits the pairing-expansion value, the truncated-matrix value, and
    the absolute difference; exits nonzero when the routes disagree
    beyond 1e-8 times (n-1)!! (2 omega)^(-n/2), the sum of the pairing
    terms' magnitudes.  Odd orders are identically zero.
    """
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
            scale = _pairing_magnitude(order, omega)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    if not (np.isfinite(wick) and np.isfinite(fock)):
        raise click.BadParameter(
            f"a route overflows (Wick {wick}, Fock {fock})",
            param_hint="'--omega' / '--times'",
        )
    difference = abs(wick - fock)
    parameters = {
        "n": order,
        "omega": omega,
        "times": time_list,
        "cutoff": cutoff if cutoff is not None else order + FOCK_MARGIN,
    }
    results = {
        "wick": {"re": wick.real, "im": wick.imag},
        "fock": {"re": fock.real, "im": fock.imag},
        "abs_difference": difference,
    }
    row = {
        "times": ";".join(repr(t) for t in time_list),
        "wick_re": wick.real,
        "wick_im": wick.imag,
        "fock_re": fock.real,
        "fock_im": fock.imag,
        "abs_difference": difference,
    }
    # a NaN gap fails too
    return parameters, results, [row], difference <= GREEN_THRESHOLD * scale


def _pairing_magnitude(order: int, omega: float) -> float:
    """haf(|K|): the sum of the magnitudes of the n-point pairing terms.

    Every kernel entry has magnitude 1/(2 omega), so each of the (n-1)!!
    pairings of an even order contributes (2 omega)^(-n/2).  It is also the
    sum of the magnitudes of the Fock route's path products, so it scales
    the rounding of both routes.  Odd orders have no pairings and both
    routes give exactly zero; their gap keeps the scale 1.
    """
    if order % 2:
        return 1.0
    return float(np.prod(np.arange(order - 1, 0, -2.0)) * np.float64(2.0 * omega) ** (-order / 2))


@main.command("gns-check")
@click.option("--n", "dimension", type=click.IntRange(2, 6), default=3, show_default=True)
@click.option("--trials", type=click.IntRange(0, MAX_TRIALS), default=100, show_default=True)
@experiment
def gns_check(dimension, trials, seed):
    """Representation health check over random states and elements.

    For random unit vectors, verifies that the cyclic-vector expectation
    reproduces the functional and that compressing by the state projector
    scales it; on the tracial state, checks the scalar-product,
    homomorphism, adjoint and expectation identities.  Reports the worst
    residuals and exits nonzero when any exceeds 1e-10 or a rank is off.
    """
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
    results = {
        "expectation_residual": expectation_residual,
        "compression_residual": compression_residual,
        "pure_rank_expected": dimension,
        "tracial_rank": tracial_rank,
        "rank_ok": bool(rank_ok),
        "tracial_summary": summary,
        "threshold": GNS_THRESHOLD,
        "ok": ok,
    }
    row = {
        "n": dimension,
        "trials": trials,
        "expectation_residual": expectation_residual,
        "compression_residual": compression_residual,
        "tracial_rank": tracial_rank,
        "ok": ok,
    }
    return {"n": dimension, "trials": trials}, results, [row], ok


if __name__ == "__main__":
    main()
