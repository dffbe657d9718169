"""contextqm benchmark: three seeded closed-loop workloads, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload measure_seq --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``measure_seq``   -- criterion 4's measurement plan, one sequence per op;
* ``context_sweep`` -- one new context per op along an interpolation sweep;
* ``cli_suite``     -- the seven CLI invocations, in-process, one per op.

``--trace 0`` reports the end-to-end metrics of one fresh timed process.
It runs the same operation positions in several rounds and keeps each
position's fastest latency; ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms``
are the throughput and percentiles of those best-of-rounds latencies, so
contention from other tenants of a shared host, which comes and goes within
seconds, drops out.  ``setup_s`` is the median over several fresh processes,
spawned before and after the timed one, of the time from spawn to the first
operation (import plus fixtures); ``peak_rss_mb`` is the timed process's
peak resident memory.

``--trace 1`` alternates untraced and traced passes over a fixed number of
operations in one process and reports per-layer calls, self times and work
counters of the first traced pass, plus the best-of-passes untraced and
traced throughput, whose ratio is the tracing overhead.  Spans are written to
``.perfbench-out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries diagnostics: output
digest, host-drift probe, versions, BLAS build and thread settings.  Exits
nonzero without a result when ``src/contextqm`` is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7  # fresh processes timed to their first operation
WORKER_TIMEOUT_S = 150.0
WORKLOADS = ("measure_seq", "context_sweep", "cli_suite")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {"trace.ops": "count", "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s"}


class BenchmarkError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread, fixed before numpy is imported: measure the program,
    # not the scheduler, and keep floating-point results bit-reproducible
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def spawn(root: Path, args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to ``ready``, its result)."""
    cmd = [sys.executable, str(WORKER)] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker failed (exit {proc.returncode}): {' '.join(args)}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def timed_run(root: Path, args) -> tuple[dict, dict, int, int]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up samples straddle the timed run, so host drift during the run
    # reaches them too
    probes = SETUP_SAMPLES // 2
    setups = [spawn(root, base + ["--mode", "setup"])[0] for _ in range(probes)]
    setup, result = spawn(root, base + ["--mode", "timed", "--seconds", str(args.seconds)])
    setups.append(setup)
    setups += [spawn(root, base + ["--mode", "setup"])[0] for _ in range(SETUP_SAMPLES - 1 - probes)]
    timed = result["timed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": timed["best_ops_per_s"],
        "op_p50_ms": 1e3 * timed["best_p50_s"],
        "op_p90_ms": 1e3 * timed["best_p90_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    info = dict(result, setup_samples_s=setups)
    info["failed_ratio"] = timed["failed"] / timed["ops"]
    return with_units(metrics, END_TO_END_UNITS), info, timed["ops"], timed["failed"]


def traced_run(root: Path, args) -> tuple[dict, dict, int, int]:
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    base = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "trace"]
    _, result = spawn(root, base + ["--spans-out", str(spans_path)])
    passes = result["untraced"] + result["traced"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len({p["digest"] for p in passes}) != 1:
        failed += 1  # tracing changed what the program computed
    values = dict(result["layers"])
    values["trace.ops"] = result["traced"][0]["ops"]
    for side in ("untraced", "traced"):
        values[f"trace.{side}_ops_per_s"] = result[f"{side}_best_ops_per_s"]
    units = dict(LAYER_METRICS, **TRACE_UNITS)
    info = dict(result, spans_file=str(spans_path.relative_to(root)))
    info["tracing_overhead"] = values["trace.untraced_ops_per_s"] / values["trace.traced_ops_per_s"] - 1.0
    return with_units(values, units), info, attempted, failed


def check_against_spec(root: Path, metrics: dict, trace: bool):
    """The metrics must be exactly those BENCHMARK.json lists, in its units."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {k: v["unit"] for k, v in metrics.items()}
    if listed != produced:
        missing = sorted(set(listed) ^ set(produced))
        raise BenchmarkError(f"metrics disagree with BENCHMARK.json: {missing or 'units'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "contextqm" / "__init__.py").is_file():
        print("error: run from the repository root; src/contextqm not found", file=sys.stderr)
        return 2
    try:
        run = traced_run if args.trace else timed_run
        metrics, info, attempted, failed = run(root, args)
        check_against_spec(root, metrics, bool(args.trace))
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, commit=commit(root))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
