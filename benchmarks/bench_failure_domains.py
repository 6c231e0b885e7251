"""Failure-domain benchmark: goodput under a rack outage, domain-aware
placement vs domain-oblivious placement.

A 6-shard DynPre cluster (three racks of two shards,
``ClusterTopology.uniform(6, 3)``) serves open-loop traffic at ~2x its
*measured* saturated throughput while whole racks black out mid-run: rack0
goes down early and stays down for most of the run, and rack1 fails while
rack0 is still dark (the correlated double hit).  Both runs see the exact
same arrivals and the exact same expanded fault schedule; only placement
differs:

* **domain-oblivious** — ``topology=None``: the autoscaler's active prefix
  fills shard ids in order, so the 2-shard steady state is ``{0, 1}`` —
  *both* in rack0.  The rack0 outage takes out the entire active set at one
  instant; fault-time substitution walks the dense order onto rack1, and
  the second hit takes the substitutes down too (the correlated-failure
  death march).
* **domain-aware** — ``topology=..., placement="spread"``: the activation
  order round-robins across racks, so the same 2-shard steady state spans
  two racks and each rack outage clips at most one active shard; standby
  substitution prefers shards in racks with no scheduled outage in flight.

The acceptance gate — domain-aware goodput >= 1.2x domain-oblivious
goodput — is a row of ``GATES``: the exit code and the pytest-benchmark
entry enforce it, and CI re-checks it against the committed baseline via
``check_perf_regression.py``.

A second section stress-tests the correlated generator: a bursty trace
through the autoscaled online loop under ``RandomFaults(correlated=...)``
whole-rack outages, asserting exact conservation
(offered == served + shed + failed) and that the report's per-domain
outage section saw the blackouts.  The result JSON embeds the generator's
:meth:`~repro.serving.faults.RandomFaults.provenance` dict and the
deterministic outage schedule under ``_provenance`` so the exact schedules
can be rebuilt from the artifact alone.

Results are written to ``BENCH_failure_domains.json`` at the repo root.
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
    ClusterTopology,
    CorrelatedFaults,
    DomainFaultEvent,
    FAULT_CRASH_DOMAIN,
    FAULT_RECOVER_DOMAIN,
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
RESULT_PATH = REPO_ROOT / "BENCH_failure_domains.json"

#: Shard and rack counts: three racks of two shards.
NUM_SHARDS = 6
NUM_DOMAINS = 3

#: The SLO, as a multiple of the mean single-request cost estimate.  Tight
#: enough that work delayed by an in-flight kill (retry backoff plus a
#: re-queue behind the substituted shards' backlog) misses it — that is the
#: damage channel the placement gate measures.
SLO_COST_MULTIPLE = 2.0

#: Offered load as a multiple of the measured saturated throughput (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Rack outage cycles as fractions of the trace horizon.  Each hit kills
#: the in-flight batches of every *active* shard in the rack, and both
#: placements substitute dead slots with live standbys, so steady-state
#: live capacity is identical — the differential is pure blast radius.
#: Every cycle chains rack0 then rack1: the dense prefix keeps both active
#: slots in rack0, loses both in-flight batches to the rack0 crash,
#: re-concentrates into rack1 (the next shard ids) and loses both again
#: when rack1 follows — four kills and two wholesale queue migrations per
#: cycle, versus one kill per crash for the spread placement, whose
#: healthy-domain-first substitution backfills into rack2 instead.
#: rack2's lone hit lands in a healthy gap (a recorded outage with no
#: active shard on either placement).
DOMAIN_OUTAGES = (
    ("rack0", tuple((0.05 + 0.20 * i, 0.15 + 0.20 * i) for i in range(5))),
    ("rack1", tuple((0.10 + 0.20 * i, 0.20 + 0.20 * i) for i in range(5))),
    ("rack2", ((0.965, 0.985),)),
)

#: Retry policy of both schedules: one retry, so a batch killed twice by
#: back-to-back rack hits fails terminally.
RETRY_BUDGET = 1

#: The acceptance gate: domain-aware goodput must be at least this multiple
#: of the domain-oblivious goodput on the identical run.
MIN_DOMAIN_GOODPUT_RATIO = 1.2

#: Autoscaler bounds shared by both runs (the 2-shard steady state is what
#: makes placement matter: dense packs it into one rack).
MIN_ACTIVE_SHARDS = 2

#: Stress section: request budget and overload of the correlated-fault run.
STRESS_REQUESTS = 50_000
STRESS_REQUESTS_QUICK = 5_000
STRESS_OVERLOAD = 1.2

SEED = 23

GATES = (
    Gate("goodput_ratio", floor=MIN_DOMAIN_GOODPUT_RATIO, require=("stress.conserved",)),
    # No whole-rack outage in the stress run means the correlated generator
    # was quietly disabled.
    Gate("stress.domain_outages", floor=1, relative=False),
)


def _topology() -> ClusterTopology:
    return ClusterTopology.uniform(NUM_SHARDS, NUM_DOMAINS)


def _outage_schedule(horizon_seconds: float) -> FaultSchedule:
    """The cycling whole-rack outage schedule over ``horizon_seconds``."""
    events = []
    for domain, cycles in DOMAIN_OUTAGES:
        for crash_frac, recover_frac in cycles:
            events.append(
                DomainFaultEvent(crash_frac * horizon_seconds, domain, FAULT_CRASH_DOMAIN)
            )
            events.append(
                DomainFaultEvent(
                    recover_frac * horizon_seconds, domain, FAULT_RECOVER_DOMAIN
                )
            )
    return FaultSchedule(
        domain_events=tuple(events),
        topology=_topology(),
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.03 * horizon_seconds,
    )


def _entry(report) -> Dict:
    faults = report.faults
    domains = faults.domains or () if faults is not None else ()
    return {
        **goodput_summary(report),
        "migrated": faults.migrated if faults is not None else 0,
        "retried": faults.retried if faults is not None else 0,
        "domain_outages": sum(stats.outages for stats in domains),
        "domain_outage_seconds": round(
            sum(stats.outage_seconds for stats in domains), 6
        ),
        "scaling_events": len(report.scaling_timeline),
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return the result document."""
    mix = table2_mix()
    template = build_services()["DynPre"]
    topology = _topology()

    slo_seconds = SLO_COST_MULTIPLE * mean_cost(template, mix)
    # The autoscaler pins MIN_ACTIVE_SHARDS active shards, so the 2x
    # overload regime is defined against that steady-state capacity, not
    # the full provisioned cluster's.
    capacity_rps = measure_capacity(template, mix, MIN_ACTIVE_SHARDS, SEED, quick)
    total_rate = OVERLOAD_FACTOR * capacity_rps
    num_requests = 400 if quick else 1000
    trace = OpenLoopArrivals(mix, rate_rps=total_rate, seed=SEED).trace(num_requests)
    horizon = trace[-1].arrival_seconds
    schedule = _outage_schedule(horizon)
    print(
        f"measured capacity ~{capacity_rps:.0f} rps | SLO {slo_seconds * 1e3:.1f} ms | "
        f"offered {trace.offered_rate_rps:.0f} rps "
        f"({trace.offered_rate_rps / capacity_rps:.2f}x) | {len(trace)} requests | "
        f"horizon {horizon:.3f}s | racks {topology.as_dict()}"
    )

    def serve(domain_aware: bool):
        cluster = ShardedServiceCluster(
            template,
            num_shards=NUM_SHARDS,
            scheduler=scheduler(),
            topology=topology if domain_aware else None,
            placement="spread",
        )
        slo = SLOPolicy(default_slo_seconds=slo_seconds)
        return cluster.serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                slo=slo,
                admit=True,
                autoscaler=Autoscaler(
                    min_shards=MIN_ACTIVE_SHARDS, max_shards=MIN_ACTIVE_SHARDS,
                    scale_up_depth=4.0, scale_down_depth=0.5,
                    hysteresis_observations=3,
                ),
                faults=schedule,
            ),
        )

    oblivious = serve(domain_aware=False)
    aware = serve(domain_aware=True)

    oblivious_entry = _entry(oblivious)
    aware_entry = _entry(aware)
    for label, entry in (
        ("domain-oblivious", oblivious_entry),
        ("domain-aware", aware_entry),
    ):
        print(
            f"{label:>17}: goodput {entry['goodput_rps']:8.1f} rps | "
            f"served {entry['served']:4d} | shed {entry['shed']:4d} | "
            f"failed {entry['failed']:4d} | migrated {entry['migrated']:3d} | "
            f"retried {entry['retried']:3d} | rack outages {entry['domain_outages']}"
        )
    goodput_ratio = aware_entry["goodput_rps"] / max(
        oblivious_entry["goodput_rps"], 1e-9
    )

    # ----------------------------------------- correlated-fault stress section
    stress_requests = STRESS_REQUESTS_QUICK if quick else STRESS_REQUESTS
    stress_rate = STRESS_OVERLOAD * capacity_rps
    stress_trace = bursty_stress_trace(mix, stress_rate, stress_requests, SEED + 1)
    stress_horizon = stress_trace[-1].arrival_seconds
    stress_generator = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=stress_horizon,
        mean_uptime_seconds=0.3 * stress_horizon,
        mean_downtime_seconds=0.05 * stress_horizon,
        slowdown_probability=0.25,
        slowdown_factor=2.0,
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.001 * stress_horizon,
        seed=SEED,
        topology=topology,
        correlated=CorrelatedFaults(
            mean_uptime_seconds=0.25 * stress_horizon,
            mean_downtime_seconds=0.06 * stress_horizon,
        ),
    )
    stress_faults = stress_generator.schedule()
    slo = SLOPolicy(default_slo_seconds=slo_seconds)
    stress_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler(),
        topology=topology, placement="spread",
    )
    stress_started = time.perf_counter()
    stress_report = stress_cluster.serve_online(
        TraceArrivals(stress_trace),
        config=ServingConfig(
            slo=slo,
            admit=True,
            record_decisions=False,
            autoscaler=Autoscaler(
                min_shards=MIN_ACTIVE_SHARDS, max_shards=NUM_SHARDS,
                scale_up_depth=4.0, scale_down_depth=0.5,
                hysteresis_observations=3,
            ),
            faults=stress_faults,
        ),
    )
    stress = conserved_stress_entry(
        stress_report,
        time.perf_counter() - stress_started,
        num_requests=len(stress_trace),
        num_fault_events=len(stress_faults.expanded_events),
        num_domain_macros=len(stress_faults.domain_events),
        domain_outages=sum(stats.outages for stats in stress_report.faults.domains or ()),
    )
    print(
        f"\nstress: {len(stress_trace)} bursty requests, "
        f"{len(stress_faults.expanded_events)} fault events "
        f"({len(stress_faults.domain_events)} domain macros), autoscaled "
        f"{MIN_ACTIVE_SHARDS}..{NUM_SHARDS} shards in "
        f"{stress['wall_clock_seconds']:.2f}s wall | served {stress['served']} + shed "
        f"{stress['shed']} + failed {stress['failed']} == offered {stress['offered']} | "
        f"{stress['domain_outages']} whole-rack outages observed"
    )

    return {
        "benchmark": "failure_domains",
        "_provenance": {
            "note": (
                "simulated metrics from ShardedServiceCluster.serve_online "
                "(engine-independent); capacity_rps is measured on the "
                "committing machine's simulation (deterministic), "
                "wall_clock_seconds and stress.wall_clock_seconds are this "
                "script's runtimes. Regenerate with "
                "`python benchmarks/bench_failure_domains.py`."
            ),
            # Enough to rebuild both schedules from this artifact alone.
            "outage_schedule": schedule.as_dict(),
            "stress_faults": stress_generator.provenance(),
        },
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TABLE2_DATASETS),
            "num_requests": len(trace),
            "offered_rate_rps": round(trace.offered_rate_rps, 3),
            "overload_factor": OVERLOAD_FACTOR,
            "seed": SEED,
        },
        "topology": topology.as_dict(),
        "domain_outages": [
            {
                "domain": domain,
                "cycles": [
                    {"crash_fraction": crash, "recover_fraction": recover}
                    for crash, recover in cycles
                ],
            }
            for domain, cycles in DOMAIN_OUTAGES
        ],
        "retry_budget": RETRY_BUDGET,
        "scheduler": scheduler_settings(),
        "slo_seconds": round(slo_seconds, 6),
        "capacity_rps": round(capacity_rps, 3),
        "domain_oblivious": oblivious_entry,
        "domain_aware": aware_entry,
        "goodput_ratio": round(goodput_ratio, 3),
        "min_goodput_ratio": MIN_DOMAIN_GOODPUT_RATIO,
        "stress": stress,
    }


def test_failure_domains(benchmark):
    """Pytest-benchmark entry point with the placement acceptance gate."""
    bench_test(benchmark, sys.modules[__name__])


if __name__ == "__main__":
    sys.exit(bench_main(sys.modules[__name__], "smaller request budget (CI mode)"))
