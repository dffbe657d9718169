"""One fresh benchmark process: set up a workload, then time or trace it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS limited to one
thread.  Prints ``ready`` once set-up is done, then (unless ``--mode
setup``) one JSON line with the raw results.

Modes:

* ``setup``  -- stop after set-up; the parent times start-up to ``ready``.
* ``timed``  -- repeat rounds of the workload's ``fixed_ops`` operation
  positions for ``--seconds`` (at least ``MIN_ROUNDS`` rounds) and keep
  each operation's fastest latency.
* ``trace``  -- alternate untraced and traced rounds, each on a freshly
  built workload, and report the per-layer metrics of the first traced
  round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from spans import Tracer
from workloads import WORKLOADS

MIN_ROUNDS = 6  # rounds of a timed run at least; each operation keeps its fastest
TRACE_ROUNDS = 3  # untraced/traced pass pairs in a trace run


def drift_probe() -> dict:
    """Time a fixed piece of pure-Python and small-numpy work (ms)."""
    import numpy as np

    samples, cpu = [], []
    for _ in range(3):
        c0, t0 = time.process_time(), time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k % 7
        m = np.eye(4) + 0.5
        for _ in range(2000):
            m = m @ m
            m /= np.abs(m).max()
        samples.append((time.perf_counter() - t0) * 1e3)
        cpu.append((time.process_time() - c0) * 1e3)
    return {"wall_ms": statistics.median(samples), "cpu_ms": statistics.median(cpu)}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile ``q`` of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_ops(workload, round_index=0):
    """Run one round: operations 0 .. ``fixed_ops - 1``, in order.

    Returns each operation's latency, the failure count and the digest of
    the payloads.
    """
    clock = time.perf_counter
    digest = hashlib.sha256()
    latencies, failed = [], 0
    t0 = clock()
    for i in range(workload.fixed_ops):
        start = clock()
        try:
            ok, payload = workload.run_op(i, round_index)
        except Exception as exc:  # an operation that raises counts as failed
            ok, payload = False, repr(exc).encode()
        latencies.append(clock() - start)
        failed += not ok
        digest.update(len(payload).to_bytes(8, "little") + payload)
    return {
        "ops": workload.fixed_ops,
        "failed": failed,
        "elapsed_s": clock() - t0,
        "latencies_s": latencies,
        "digest": digest.hexdigest(),
    }


def run_rounds(workload, seconds: float) -> dict:
    """Repeat rounds of the same operation positions for ``seconds``.

    At least ``MIN_ROUNDS`` rounds run.  An operation's latency is the
    fastest of its rounds (the rule ``timeit`` uses): contention from other
    tenants of a shared host comes and goes within seconds, and taking the
    fastest repeat spread over the run drops it while the program's own
    cost stays.
    """
    cpu0, t0 = time.process_time(), time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(run_ops(workload, len(rounds)))
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    ops = workload.fixed_ops * len(rounds)
    best = fastest(workload, rounds)
    return {
        "ops": ops,
        "failed": sum(r["failed"] for r in rounds),
        "rounds": len(rounds),
        "best_ops_per_s": len(best) / sum(best),
        "best_p50_s": percentile(best, 0.5),
        "best_p90_s": percentile(best, 0.9),
        "loop_ops_per_s": ops / elapsed,
        "cpu_ops_per_s": ops / cpu,
        "round_ops_per_s": [r["ops"] / r["elapsed_s"] for r in rounds],
        "digest": rounds[0]["digest"],
    }


def fastest(workload, runs: list[dict]) -> list[float]:
    """Each operation's fastest latency over ``runs``; drops their latencies.

    Operations ``i`` and ``j`` of any run are repeats of one another when
    ``i % workload.period == j % workload.period``.
    """
    best: dict[int, float] = {}
    for run in runs:
        for i, latency in enumerate(run.pop("latencies_s")):
            key = i % workload.period
            best[key] = min(best.get(key, latency), latency)
    return [best[i % workload.period] for i in range(workload.fixed_ops)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    factory = WORKLOADS[args.workload]
    workload = factory(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"probe_before": drift_probe()}
    if args.mode == "timed":
        result["timed"] = run_rounds(workload, args.seconds)
        if isinstance(workload, WORKLOADS["cli_suite"]):
            result["spin_demo_band_violations"] = workload.band_violations
    else:
        # alternate untraced and traced passes over the same operations so
        # that host drift hits both sides of the overhead ratio alike, and
        # compare best-of-passes throughput; the first traced pass supplies
        # the per-layer metrics
        untraced, traced, first = [], [], None
        for k in range(TRACE_ROUNDS):
            untraced.append(run_ops(workload if k == 0 else factory(args.seed)))
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_ops(factory(args.seed)))
            finally:
                tracer.uninstall()
            first = first or tracer
        for side, runs in (("untraced", untraced), ("traced", traced)):
            best = fastest(workload, runs)
            result[side] = runs
            result[f"{side}_best_ops_per_s"] = len(best) / sum(best)
        result["layers"] = first.layer_metrics()
        if args.spans_out:
            first.dump(args.spans_out)
    result["probe_after"] = drift_probe()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
