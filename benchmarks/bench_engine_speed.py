"""Serving-engine speed benchmark: fast engine vs reference, same trace.

Replays one fixed open-loop Poisson trace (the Table II PH/AX/MV mix) through
two DynPre clusters that differ only in ``engine=`` — the pure-Python
reference event loop vs the indexed/caching fast engine — and records the
wall-clock of each ``serve_trace`` call per trace scale.  Both reports are
asserted byte-identical before any timing is trusted: a fast engine that
drifts from the reference is a bug, not a speedup.

There are two serving loops: the array-native *chunked* loop, which
``serve_trace`` selects on the fast engine by default, and the one event
loop of ``serve_online``, through which every other replay runs — the
reference engine, and the fast engine with ``chunked=False``.  Each gated
scale times three runs: reference, fast event loop (``chunked=False``) and
chunked fast.  All three reports are asserted byte-identical.

Acceptance gates (``GATES``, checked by every run): fast (chunked) >= 5x
reference at 20k requests (quick mode: 5k, >= 3x), and chunked >= its
per-scale floor over the fast event loop.  A fast-engine-only
100k-request point (the "interactive speed" headline; the reference would
take minutes there) is recorded without a gate, and the full run adds a
**1M-request fast-only tier**: chunked vs event loop, gated at >= 3x with
byte-identical reports (the scale the array-native loop exists for).

The wall-clock rows are normalized by ``calibration_seconds``: the median
time of perfbench's fixed ``Calibration`` kernel (``common.calibration``),
sampled before every timed replay.  No serving code runs in that kernel,
so making a loop faster never moves another loop's budget.  Each timed
run is the best of ``TIMING_REPEATS`` replays (the 1M event-loop run is
timed once).

Results are written to ``BENCH_engine_speed.json`` at the repo root;
``benchmarks/check_perf_regression.py`` compares fresh runs against the
committed copy (relative speedup floors + machine-normalized wall-clock
budgets; ``--engine-million`` adds the 1M tier).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from typing import Dict, List, Optional

from common import (
    MAX_BATCH_SIZE,
    MAX_WAIT_SECONDS,
    REPO_ROOT,
    TABLE2_DATASETS,
    Gate,
    bench_main,
    bench_test,
    calibration,
    scheduler,
    table2_mix,
)
from repro.serving import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    ShardedServiceCluster,
)
from repro.serving.engine import serve_trace_fast
from repro.system.service import build_services

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_engine_speed.json"

#: Offered load of the open-loop trace (requests/second).
OFFERED_RATE_RPS = 500.0

#: Shard count of both clusters.
NUM_SHARDS = 4

#: Gated trace scales: (num_requests, minimum fast-vs-reference speedup,
#: minimum chunked-vs-event-loop speedup).
GATED_SCALES = ((5_000, 3.0, 1.1), (20_000, 5.0, 1.4))

#: Fast-engine-only showcase scale (no reference run, no gate).
SHOWCASE_SCALE = 100_000

#: Fast-only million-request tier: chunked vs event loop, no reference.
MILLION_SCALE = 1_000_000

#: Minimum chunked-vs-event-loop speedup at the million-request tier.
MIN_MILLION_SPEEDUP = 3.0

#: Wall-clock ceiling for the chunked 1M replay (machine-independent smoke
#: budget; ~10x headroom over a laptop run).
MILLION_WALL_BUDGET_SECONDS = 60.0

SEED = 1

#: Replays per timed run; the run's time is the best of them.  One replay
#: of a fast 5k trace takes tens of milliseconds, so on a shared machine a
#: single sample is mostly noise.  The 1M event-loop run is timed once.
TIMING_REPEATS = 3

#: Machine normalizer of both wall-clock rows: fresh/committed
#: ``calibration_seconds``.
GATES = (
    Gate("speedup", per="scale", floor={n: s for n, s, _ in GATED_SCALES}),
    # A silent fallback to the event loop would still pass the
    # fast-vs-reference gate; this floor catches it.
    Gate("chunked_speedup", per="scale", floor={n: c for n, _, c in GATED_SCALES}),
    Gate("fast_seconds", per="scale", normalizer="calibration_seconds"),
    Gate("million.chunked_speedup", floor=MIN_MILLION_SPEEDUP),
    Gate("million.chunked_seconds", normalizer="calibration_seconds",
         ceiling=MILLION_WALL_BUDGET_SECONDS),
)

PROVENANCE = (
    "per-run seconds measured around ShardedServiceCluster.serve_trace on "
    "this machine (wall_clock_seconds is the whole script; "
    "each *_seconds is the best of several replays; calibration_seconds is "
    "the median of perfbench's Calibration kernel, sampled before every "
    "replay); simulated "
    "metrics are engine-independent (byte-identical reports, asserted "
    "before timing). Regenerate with `python benchmarks/bench_engine_speed.py`."
)


def _trace(num_requests: int):
    trace = OpenLoopArrivals(table2_mix(), rate_rps=OFFERED_RATE_RPS, seed=SEED).trace(
        num_requests
    )
    # Materialize the lazy request objects up front so the one-time cost is
    # charged to neither timed serve (both engines then see identical input
    # state, which the regression script's machine-factor normalization
    # assumes).
    trace.requests
    return trace


def _cluster(services, engine: str) -> ShardedServiceCluster:
    return ShardedServiceCluster(
        services["DynPre"],
        num_shards=NUM_SHARDS,
        scheduler=scheduler(),
        policy=POLICY_LEAST_LOADED,
        engine=engine,
    )


def _timed(
    services,
    trace,
    kernel,
    engine: str = ENGINE_FAST,
    chunked: Optional[bool] = None,
    repeats: int = TIMING_REPEATS,
):
    """Best of ``repeats`` replays, each on a fresh cluster right after one
    pass of the calibration ``kernel``; ``chunked`` pins the fast engine's
    offline loop."""
    best = math.inf
    for _ in range(repeats):
        kernel.sample()
        cluster = _cluster(services, engine)
        started = time.perf_counter()
        if chunked is None:
            report = cluster.serve_trace(trace)
        else:
            report = serve_trace_fast(cluster, trace, chunked=chunked)
        best = min(best, time.perf_counter() - started)
    return report, best


def run_million(services, kernel) -> Dict:
    """The fast-only 1M-request tier: chunked vs event loop.

    Returns the result entry (also embedded in the full run's document);
    raises on report divergence.  The reference engine is deliberately
    absent — it would take minutes at this scale.
    """
    trace = _trace(MILLION_SCALE)
    event_report, event_seconds = _timed(services, trace, kernel, chunked=False, repeats=1)
    chunked_report, chunked_seconds = _timed(services, trace, kernel, chunked=True)
    if json.dumps(event_report.as_dict(), sort_keys=True) != json.dumps(
        chunked_report.as_dict(), sort_keys=True
    ):
        raise AssertionError(
            f"engine divergence at {MILLION_SCALE} requests: chunked report is "
            "not byte-identical to the fast event-loop report"
        )
    speedup = event_seconds / max(chunked_seconds, 1e-12)
    entry = {
        "scale": MILLION_SCALE,
        "event_seconds": round(event_seconds, 4),
        "chunked_seconds": round(chunked_seconds, 4),
        "chunked_speedup": round(speedup, 2),
        "min_chunked_speedup": MIN_MILLION_SPEEDUP,
        "wall_budget_seconds": MILLION_WALL_BUDGET_SECONDS,
        "identical_reports": True,
    }
    print(
        f"{MILLION_SCALE:>7} requests: event loop {event_seconds:7.2f}s | "
        f"chunked {chunked_seconds:7.3f}s | {speedup:6.1f}x"
    )
    return entry


def run(quick: bool = False, million: Optional[bool] = None) -> Dict:
    """Execute the benchmark and return the result document.

    ``million`` (default: the full run only) adds the 1M-request tier.
    """
    services = build_services()
    kernel = calibration()
    results: List[Dict] = []

    scales = GATED_SCALES[:1] if quick else GATED_SCALES
    for num_requests, min_speedup, min_chunked in scales:
        trace = _trace(num_requests)
        reference_report, reference_seconds = _timed(services, trace, kernel, ENGINE_REFERENCE)
        event_report, event_seconds = _timed(services, trace, kernel, chunked=False)
        fast_report, fast_seconds = _timed(services, trace, kernel, chunked=True)
        rendered = {
            json.dumps(report.as_dict(), sort_keys=True)
            for report in (reference_report, event_report, fast_report)
        }
        if len(rendered) != 1:
            raise AssertionError(
                f"engine divergence at {num_requests} requests: fast reports are "
                "not byte-identical to the reference report"
            )
        speedup = reference_seconds / max(fast_seconds, 1e-12)
        chunked_speedup = event_seconds / max(fast_seconds, 1e-12)
        results.append(
            {
                "scale": num_requests,
                "reference_seconds": round(reference_seconds, 4),
                "fast_seconds": round(fast_seconds, 4),
                "event_seconds": round(event_seconds, 4),
                "speedup": round(speedup, 2),
                "min_speedup": min_speedup,
                "chunked_speedup": round(chunked_speedup, 2),
                "min_chunked_speedup": min_chunked,
                "identical_reports": True,
            }
        )
        print(
            f"{num_requests:>7} requests: reference {reference_seconds:7.2f}s | "
            f"event loop {event_seconds:7.3f}s | chunked {fast_seconds:7.3f}s | "
            f"{speedup:6.1f}x | chunked {chunked_speedup:5.2f}x"
        )

    showcase: Optional[Dict] = None
    if not quick:
        trace = _trace(SHOWCASE_SCALE)
        report, fast_seconds = _timed(services, trace, kernel)
        showcase = {
            "scale": SHOWCASE_SCALE,
            "fast_seconds": round(fast_seconds, 4),
            "throughput_rps": round(report.throughput_rps, 3),
            "p99_seconds": round(report.latency.p99, 6),
        }
        print(
            f"{SHOWCASE_SCALE:>7} requests: fast-only {fast_seconds:7.2f}s "
            f"(reference skipped) | {report.throughput_rps:8.1f} simulated rps"
        )

    if million is None:
        million = not quick
    million_entry = run_million(services, kernel) if million else None

    return {
        "benchmark": "engine_speed",
        "_provenance": PROVENANCE,
        "quick": bool(quick),
        "trace": {
            "datasets": list(TABLE2_DATASETS),
            "offered_rate_rps": OFFERED_RATE_RPS,
            "process": "poisson",
            "seed": SEED,
        },
        "cluster": {
            "system": "DynPre",
            "num_shards": NUM_SHARDS,
            "policy": POLICY_LEAST_LOADED,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "calibration_seconds": round(statistics.median(kernel.samples), 5),
        "results": results,
        "showcase_100k": showcase,
        "million": million_entry,
    }


def test_engine_speed(benchmark):
    """Pytest-benchmark entry point with the speedup acceptance gates."""
    bench_test(benchmark, sys.modules[__name__])


if __name__ == "__main__":
    sys.exit(bench_main(
        sys.modules[__name__],
        "5k-request gate only, skip 20k, the 100k showcase and the 1M tier (CI mode)",
    ))
