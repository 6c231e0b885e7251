"""Graceful-degradation benchmark: tiered serving vs binary shedding.

Drives the same 2x-overload closed-loop client population through two
admission-controlled DynPre clusters:

* **binary** — classic predictive admission: a request whose predicted
  sojourn violates the SLO is shed outright (the ``bench_slo_control``
  regime).
* **tiered** — the same controller with a ``DegradationPolicy``: before
  shedding, admission re-prices the request's cheaper execution profile
  (half the sampled neighbours, one hop fewer) against *its own* open
  batch and, when that prediction fits the SLO, serves the request
  degraded instead of dropping it.

The comparison metric is **SLO-weighted goodput**: full-quality SLO-met
requests count 1.0, degraded SLO-met requests count ``DEGRADED_UTILITY``
(0.5), shed requests count 0 — so the tiered run only wins by converting
would-be sheds into cheap useful work, not by relabeling.

Results are written to ``BENCH_graceful_degradation.json`` at the repo
root.  The acceptance gate — tiered SLO-weighted goodput >=
``MIN_WEIGHTED_RATIO`` x binary, both runs conserving every request — is a
row of ``GATES``, enforced by the exit code, the pytest-benchmark entry
and the CI gate step (``benchmarks/check_perf_regression.py``).

Run standalone (``--quick`` trims the request budget) or through
pytest-benchmark like the figure benchmarks.
"""

from __future__ import annotations

import sys
from typing import Dict

from common import (
    REPO_ROOT,
    closed_loop_overload,
    Gate,
    bench_main,
    bench_test,
    latency_summary,
    scheduler,
    table2_mix,
)
from repro.analysis.report import format_distribution
from repro.serving import (
    DegradationPolicy,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
)
from repro.system.service import build_services

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_graceful_degradation.json"

#: Workload mix of the traffic: the sampling-bound Table II datasets at
#: three sampling hops.  Degradation only has headroom where the sampled
#: neighbourhood dominates the pass (k/2 and one hop fewer collapse the
#: selection count ~12x); transfer-bound workloads (e.g. AX) barely change
#: and are deliberately excluded — shedding remains the right call there.
TRACE_DATASETS = ("PH", "MV")
NUM_LAYERS = 3

#: Shard count of both clusters.
NUM_SHARDS = 4

#: The SLO, as a multiple of the mean single-request cost estimate.  Tight
#: (1.5x) on purpose: full-quality passes barely fit, so binary admission
#: sheds most of the overload while the ~12x-cheaper degraded profile still
#: fits comfortably — the regime quality-latency tiering exists for.
SLO_COST_MULTIPLE = 1.5

#: Offered concurrency, as a multiple of what fits within the SLO (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Utility of a degraded SLO-met request relative to a full-quality one.
DEGRADED_UTILITY = 0.5

#: The degraded execution profile: half the sampled neighbours, one hop less.
DEGRADATION = DegradationPolicy(
    k_factor=0.5, layer_drop=1, degraded_utility=DEGRADED_UTILITY
)

#: The acceptance gate: tiered SLO-weighted goodput must be at least this
#: multiple of binary shedding's on identical traffic parameters.
MIN_WEIGHTED_RATIO = 1.5

SEED = 7

GATES = (
    Gate("weighted_goodput_ratio", floor=MIN_WEIGHTED_RATIO,
         require=("binary.conserved", "tiered.conserved")),
)


def _entry(report) -> Dict:
    goodput = report.goodput
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "num_batches": report.num_batches,
        "makespan_seconds": round(report.makespan_seconds, 6),
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "weighted_goodput_rps": round(
            goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY), 3
        ),
        "offered": goodput.offered,
        "served_full": goodput.served_full,
        "served_degraded": goodput.served_degraded,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "slo_met_full": goodput.slo_met_full,
        "slo_met_degraded": goodput.slo_met_degraded,
        "shed_rate": round(goodput.shed_rate, 4),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "conserved": goodput.offered
        == goodput.served_full + goodput.served_degraded + goodput.shed + goodput.failed,
        "latency_seconds": latency_summary(report.latency),
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return the result document."""
    template = build_services()["DynPre"]
    # Identical calibration to bench_slo_control.
    clients, slo_seconds, traffic_fields = closed_loop_overload(
        template, TRACE_DATASETS, table2_mix(TRACE_DATASETS, num_layers=NUM_LAYERS),
        NUM_SHARDS, SLO_COST_MULTIPLE, OVERLOAD_FACTOR, SEED, quick,
    )
    slo = SLOPolicy(default_slo_seconds=slo_seconds)

    def cluster() -> ShardedServiceCluster:
        return ShardedServiceCluster(
            template, num_shards=NUM_SHARDS, scheduler=scheduler()
        )

    # -------------------------------------------------------- the two runs
    binary = cluster().serve_online(
        clients(), config=ServingConfig(slo=slo, admit=True)
    )
    tiered = cluster().serve_online(
        clients(),
        config=ServingConfig(slo=slo, admit=True, degradation=DEGRADATION),
    )

    stats_by_label = {"binary": binary.latency, "tiered": tiered.latency}
    for label, report in (("binary", binary), ("tiered", tiered)):
        goodput = report.goodput
        print(
            f"{label:>7}: weighted goodput "
            f"{goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY):7.1f} rps | "
            f"full {goodput.served_full:5d} | degraded {goodput.served_degraded:5d} | "
            f"shed {goodput.shed:5d} | "
            f"SLO attainment {goodput.slo_attainment * 100:5.1f}%"
        )

    binary_weighted = binary.goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY)
    tiered_weighted = tiered.goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY)
    weighted_ratio = tiered_weighted / max(binary_weighted, 1e-12)
    print("\n" + format_distribution("sojourn latency (s)", stats_by_label))

    return {
        "benchmark": "graceful_degradation",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); wall_clock_seconds is this script's total runtime on "
            "the committing machine. Regenerate with "
            "`python benchmarks/bench_graceful_degradation.py`."
        ),
        "quick": bool(quick),
        **traffic_fields,
        "degradation": DEGRADATION.as_dict(),
        "degraded_utility": DEGRADED_UTILITY,
        "binary": _entry(binary),
        "tiered": _entry(tiered),
        "weighted_goodput_ratio": round(weighted_ratio, 3),
        "min_weighted_goodput_ratio": MIN_WEIGHTED_RATIO,
    }


def test_graceful_degradation(benchmark):
    """Pytest-benchmark entry point with the weighted-goodput acceptance gate."""
    bench_test(benchmark, sys.modules[__name__])


if __name__ == "__main__":
    sys.exit(bench_main(sys.modules[__name__], "smaller request budget (CI mode)"))
