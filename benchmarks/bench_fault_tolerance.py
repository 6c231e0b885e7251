"""Fault-tolerance benchmark: goodput under crash-and-recover outages,
with the fault-tolerance subsystem on vs off.

A 4-shard DynPre cluster serves open-loop traffic at ~2x its *measured*
saturated throughput while two of the four shards crash mid-run and come
back later (staggered outages, so capacity dips to 2/4 and 3/4 shards).
Both runs see the exact same arrivals and the exact same fault events;
only the serving stack's reaction differs:

* **fault-oblivious** — ``FaultSchedule(fault_aware=False)``: dispatch
  ignores liveness.  A dead shard fails requests instantly without
  advancing its busy horizon, so least-loaded dispatch keeps feeding the
  "idle-looking" dead shard for the whole outage (the classic
  no-health-check death spiral); queued work dies with its shard at a
  crash, and in-flight kills are terminal.  Goodput collapses for the
  whole outage window.
* **fault-aware** — the full subsystem of :mod:`repro.serving.faults`:
  crashes are detected at dispatch, queued work drains to the surviving
  shards (migration), in-flight failures retry with exponential backoff
  under a per-request budget, and admission predicts against live shards
  only.

The acceptance gate — fault-aware goodput >= 2x fault-oblivious goodput —
is a row of ``GATES``, so the exit code, the pytest-benchmark entry and
the CI gate step all fail if recovery regresses.

A second section stress-tests scale: a 100k-request bursty trace
(``--quick``: 10k) through the autoscaled online loop under a seeded
random crash/recover/slowdown schedule, asserting exact conservation
(offered == served + shed + failed) and recording wall-clock.

Results are written to ``BENCH_fault_tolerance.json`` at the repo root.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from common import (
    REPO_ROOT,
    TABLE2_DATASETS,
    Gate,
    bench_main,
    bench_test,
    bursty_stress_trace,
    conserved_stress_entry,
    goodput_summary,
    mean_cost,
    measure_capacity,
    scheduler,
    scheduler_settings,
    table2_mix,
)
from repro.serving import (
    Autoscaler,
    FAULT_CRASH,
    FAULT_RECOVER,
    FaultEvent,
    FaultSchedule,
    OpenLoopArrivals,
    RandomFaults,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)
from repro.system.service import build_services

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_fault_tolerance.json"

#: Shard count of both clusters.
NUM_SHARDS = 4

#: Dispatch policy of every run.  Least-loaded is the policy the rest of
#: the serving benches use, and it is exactly what makes the oblivious
#: baseline catastrophic: a fail-fast dead shard never advances its busy
#: horizon, so it always looks least loaded and attracts all traffic until
#: it recovers.  The fault-aware run uses the same policy over live shards.
POLICY = "least-loaded"

#: The SLO, as a multiple of the mean single-request cost estimate.
SLO_COST_MULTIPLE = 3.0

#: Offered load as a multiple of the measured saturated throughput (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Outage windows as fractions of the trace horizon: two of the four shards
#: crash mid-run and recover later, staggered so capacity dips to 2/4.
OUTAGES = (
    (0, 0.10, 0.70),  # (shard, crash at, recover at) x horizon
    (1, 0.25, 0.90),
)

#: Retry policy of both schedules (the oblivious baseline never retries —
#: ``fault_aware=False`` makes in-flight crash kills terminal).
RETRY_BUDGET = 3

#: The acceptance gate: fault-aware goodput must be at least this multiple
#: of the fault-oblivious goodput on the identical run.
MIN_GOODPUT_RATIO = 2.0

GATES = (Gate("goodput_ratio", floor=MIN_GOODPUT_RATIO, require=("stress.conserved",)),)

#: Stress section: request budget and overload of the autoscaled run.
STRESS_REQUESTS = 100_000
STRESS_REQUESTS_QUICK = 10_000
STRESS_OVERLOAD = 1.2

SEED = 17


def _outage_schedule(horizon_seconds: float, fault_aware: bool) -> FaultSchedule:
    """The staggered crash-and-recover schedule over ``horizon_seconds``."""
    events = []
    for shard_id, crash_frac, recover_frac in OUTAGES:
        events.append(
            FaultEvent(
                seconds=crash_frac * horizon_seconds,
                shard_id=shard_id,
                kind=FAULT_CRASH,
            )
        )
        events.append(
            FaultEvent(
                seconds=recover_frac * horizon_seconds,
                shard_id=shard_id,
                kind=FAULT_RECOVER,
            )
        )
    return FaultSchedule(
        events=tuple(events),
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.01 * horizon_seconds,
        fault_aware=fault_aware,
    )


def _entry(report) -> Dict:
    faults = report.faults
    return {
        **goodput_summary(report),
        "faults": faults.as_dict() if faults is not None else None,
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return the result document."""
    mix = table2_mix()
    template = build_services()["DynPre"]

    slo_seconds = SLO_COST_MULTIPLE * mean_cost(template, mix)
    capacity_rps = measure_capacity(template, mix, NUM_SHARDS, SEED, quick)
    total_rate = OVERLOAD_FACTOR * capacity_rps
    num_requests = 400 if quick else 1000
    trace = OpenLoopArrivals(mix, rate_rps=total_rate, seed=SEED).trace(num_requests)
    horizon = trace[-1].arrival_seconds
    print(
        f"measured capacity ~{capacity_rps:.0f} rps | SLO {slo_seconds * 1e3:.1f} ms | "
        f"offered {trace.offered_rate_rps:.0f} rps "
        f"({trace.offered_rate_rps / capacity_rps:.2f}x) | {len(trace)} requests | "
        f"horizon {horizon:.3f}s"
    )

    def serve(fault_aware: bool):
        cluster = ShardedServiceCluster(
            template, num_shards=NUM_SHARDS, scheduler=scheduler(), policy=POLICY
        )
        slo = SLOPolicy(default_slo_seconds=slo_seconds)
        return cluster.serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                slo=slo,
                admit=True,
                faults=_outage_schedule(horizon, fault_aware),
            ),
        )

    oblivious = serve(fault_aware=False)
    aware = serve(fault_aware=True)

    oblivious_entry = _entry(oblivious)
    aware_entry = _entry(aware)
    for label, entry in (("fault-oblivious", oblivious_entry), ("fault-aware", aware_entry)):
        print(
            f"{label:>15}: goodput {entry['goodput_rps']:8.1f} rps | "
            f"served {entry['served']:4d} | shed {entry['shed']:4d} | "
            f"failed {entry['failed']:4d} | migrated "
            f"{entry['faults']['migrated']:3d} | retried {entry['faults']['retried']:3d}"
        )
    goodput_ratio = aware_entry["goodput_rps"] / max(
        oblivious_entry["goodput_rps"], 1e-9
    )

    # -------------------------------------------------- autoscaled stress run
    stress_requests = STRESS_REQUESTS_QUICK if quick else STRESS_REQUESTS
    stress_rate = STRESS_OVERLOAD * capacity_rps
    stress_trace = bursty_stress_trace(mix, stress_rate, stress_requests, SEED + 1)
    stress_horizon = stress_trace[-1].arrival_seconds
    stress_faults = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=stress_horizon,
        mean_uptime_seconds=0.2 * stress_horizon,
        mean_downtime_seconds=0.05 * stress_horizon,
        slowdown_probability=0.25,
        slowdown_factor=2.0,
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.001 * stress_horizon,
        seed=SEED,
    ).schedule()
    slo = SLOPolicy(default_slo_seconds=slo_seconds)
    stress_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler(), policy=POLICY
    )
    stress_started = time.perf_counter()
    stress_report = stress_cluster.serve_online(
        TraceArrivals(stress_trace),
        config=ServingConfig(
            slo=slo,
            admit=True,
            record_decisions=False,
            autoscaler=Autoscaler(
                min_shards=2, max_shards=NUM_SHARDS, scale_up_depth=4.0,
                scale_down_depth=0.5, hysteresis_observations=3,
            ),
            faults=stress_faults,
        ),
    )
    stress = conserved_stress_entry(
        stress_report,
        time.perf_counter() - stress_started,
        num_requests=len(stress_trace),
        num_fault_events=len(stress_faults.events),
    )
    print(
        f"\nstress: {len(stress_trace)} bursty requests, "
        f"{len(stress_faults.events)} fault events, autoscaled 2..{NUM_SHARDS} shards "
        f"in {stress['wall_clock_seconds']:.2f}s wall | served {stress['served']} + shed "
        f"{stress['shed']} + failed {stress['failed']} == offered "
        f"{stress['offered']} | {stress['scaling_events']} scaling events"
    )

    return {
        "benchmark": "fault_tolerance",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); capacity_rps is measured on the committing machine's "
            "simulation (deterministic), wall_clock_seconds and "
            "stress.wall_clock_seconds are this script's runtimes. Regenerate "
            "with `python benchmarks/bench_fault_tolerance.py`."
        ),
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TABLE2_DATASETS),
            "num_requests": len(trace),
            "offered_rate_rps": round(trace.offered_rate_rps, 3),
            "overload_factor": OVERLOAD_FACTOR,
            "seed": SEED,
        },
        "outages": [
            {"shard": shard, "crash_fraction": crash, "recover_fraction": recover}
            for shard, crash, recover in OUTAGES
        ],
        "retry_budget": RETRY_BUDGET,
        "policy": POLICY,
        "scheduler": scheduler_settings(),
        "slo_seconds": round(slo_seconds, 6),
        "capacity_rps": round(capacity_rps, 3),
        "fault_oblivious": oblivious_entry,
        "fault_aware": aware_entry,
        "goodput_ratio": round(goodput_ratio, 3),
        "min_goodput_ratio": MIN_GOODPUT_RATIO,
        "stress": stress,
    }


def test_fault_tolerance(benchmark):
    """Pytest-benchmark entry point with the recovery acceptance gate."""
    bench_test(benchmark, sys.modules[__name__])


if __name__ == "__main__":
    sys.exit(bench_main(sys.modules[__name__], "smaller request budget (CI mode)"))
