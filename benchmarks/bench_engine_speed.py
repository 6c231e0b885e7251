"""Serving-engine speed benchmark: fast engine vs reference, same trace.

Replays one fixed open-loop Poisson trace (the Table II PH/AX/MV mix) through
two DynPre clusters that differ only in ``engine=`` — the pure-Python
reference event loop vs the indexed/caching fast engine — and records the
wall-clock of each ``serve_trace`` call per trace scale.  Both reports are
asserted byte-identical before any timing is trusted: a fast engine that
drifts from the reference is a bug, not a speedup.

The fast engine itself has two offline loops — the per-event loop and the
array-native *chunked* loop ``serve_trace`` selects by default — so each
gated scale times three runs: reference, per-event fast (``chunked=False``)
and chunked fast.  All three reports are asserted byte-identical.

Acceptance gates (``GATES``, checked by every run): fast (chunked) >= 5x
reference at 20k requests (quick mode: 5k, >= 3x), and chunked >= its
per-scale floor over the per-event fast loop.  A fast-engine-only
100k-request point (the "interactive speed" headline; the reference would
take minutes there) is recorded without a gate, and the full run adds a
**1M-request fast-only tier**: chunked vs per-event, gated at >= 3x with
byte-identical reports (the scale the array-native loop exists for).

Results are written to ``BENCH_engine_speed.json`` at the repo root;
``benchmarks/check_perf_regression.py`` compares fresh runs against the
committed copy (relative speedup floors + machine-normalized wall-clock
budgets; ``--engine-million`` adds the 1M tier).
"""

from __future__ import annotations

import json
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
#: minimum chunked-vs-per-event speedup).
GATED_SCALES = ((5_000, 3.0, 1.1), (20_000, 5.0, 1.4))

#: Fast-engine-only showcase scale (no reference run, no gate).
SHOWCASE_SCALE = 100_000

#: Fast-only million-request tier: chunked vs per-event loop, no reference.
MILLION_SCALE = 1_000_000

#: Minimum chunked-vs-per-event speedup at the million-request tier.
MIN_MILLION_SPEEDUP = 3.0

#: Wall-clock ceiling for the chunked 1M replay (machine-independent smoke
#: budget; ~10x headroom over a laptop run).
MILLION_WALL_BUDGET_SECONDS = 60.0

SEED = 1

#: Machine normalizers: the reference engine runs the identical simulation
#: on both machines, so fresh/committed reference seconds is the machine
#: factor of a gated scale.  The 1M tier has no reference run; there the
#: per-event fast loop is the identical simulation and normalizes instead.
GATES = (
    Gate("speedup", per="scale", floor={n: s for n, s, _ in GATED_SCALES}),
    # A silent fallback to the per-event loop would still pass the
    # fast-vs-reference gate; this floor catches it.
    Gate("chunked_speedup", per="scale", floor={n: c for n, _, c in GATED_SCALES}),
    Gate("fast_seconds", per="scale", normalizer="reference_seconds"),
    Gate("million.chunked_speedup", floor=MIN_MILLION_SPEEDUP),
    Gate("million.chunked_seconds", normalizer="million.event_seconds",
         ceiling=MILLION_WALL_BUDGET_SECONDS),
)

PROVENANCE = (
    "per-run seconds measured around ShardedServiceCluster.serve_trace on "
    "this machine (wall_clock_seconds is the whole script); simulated "
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


def _timed(services, trace, engine: str = ENGINE_FAST, chunked: Optional[bool] = None):
    """Time one replay; ``chunked`` pins the fast engine's offline loop."""
    cluster = _cluster(services, engine)
    started = time.perf_counter()
    if chunked is None:
        report = cluster.serve_trace(trace)
    else:
        report = serve_trace_fast(cluster, trace, chunked=chunked)
    return report, time.perf_counter() - started


def run_million(services) -> Dict:
    """The fast-only 1M-request tier: chunked vs per-event loop.

    Returns the result entry (also embedded in the full run's document);
    raises on report divergence.  The reference engine is deliberately
    absent — it would take minutes at this scale — so the per-event fast
    loop normalizes machine speed instead.
    """
    trace = _trace(MILLION_SCALE)
    event_report, event_seconds = _timed(services, trace, chunked=False)
    chunked_report, chunked_seconds = _timed(services, trace, chunked=True)
    if json.dumps(event_report.as_dict(), sort_keys=True) != json.dumps(
        chunked_report.as_dict(), sort_keys=True
    ):
        raise AssertionError(
            f"engine divergence at {MILLION_SCALE} requests: chunked report is "
            "not byte-identical to the per-event fast report"
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
        f"{MILLION_SCALE:>7} requests: per-event {event_seconds:7.2f}s | "
        f"chunked {chunked_seconds:7.3f}s | {speedup:6.1f}x"
    )
    return entry


def run(quick: bool = False, million: Optional[bool] = None) -> Dict:
    """Execute the benchmark and return the result document.

    ``million`` (default: the full run only) adds the 1M-request tier.
    """
    services = build_services()
    results: List[Dict] = []

    scales = GATED_SCALES[:1] if quick else GATED_SCALES
    for num_requests, min_speedup, min_chunked in scales:
        trace = _trace(num_requests)
        reference_report, reference_seconds = _timed(services, trace, ENGINE_REFERENCE)
        event_report, event_seconds = _timed(services, trace, chunked=False)
        fast_report, fast_seconds = _timed(services, trace, chunked=True)
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
            f"per-event {event_seconds:7.3f}s | chunked {fast_seconds:7.3f}s | "
            f"{speedup:6.1f}x | chunked {chunked_speedup:5.2f}x"
        )

    showcase: Optional[Dict] = None
    if not quick:
        trace = _trace(SHOWCASE_SCALE)
        report, fast_seconds = _timed(services, trace)
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
    million_entry = run_million(services) if million else None

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
