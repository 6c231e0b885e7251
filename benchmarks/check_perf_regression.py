"""Regression gate step for every gated benchmark.

For each module in ``GATED_BENCHES`` this reads the committed
``BENCH_*.json`` into memory, runs a fresh ``--quick`` pass of the bench
(which overwrites the file on disk; CI uploads it as an artifact) and
evaluates the module's ``GATES`` table against the committed and fresh
documents (:func:`common.evaluate`; :class:`common.Gate` documents what a
row checks).  A missing committed baseline fails its bench.

``--engine-million`` adds the fast-only 1M-request tier of
``bench_engine_speed`` (~30 s): its chunked-vs-event-loop speedup floor and
its machine-normalized wall-clock budget.

Locally, restore the committed files afterwards with
``git checkout -- 'BENCH_*.json'``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from common import check_against_baseline, exit_code

import bench_elastic_scaling
import bench_engine_speed
import bench_failure_domains
import bench_fault_tolerance
import bench_graceful_degradation
import bench_perf_preprocessing
import bench_serving_throughput
import bench_slo_control
import bench_tenant_fairness

#: Every bench whose committed ``BENCH_*.json`` is gated, in run order.
GATED_BENCHES = (
    bench_perf_preprocessing,
    bench_engine_speed,
    bench_fault_tolerance,
    bench_failure_domains,
    bench_graceful_degradation,
    bench_elastic_scaling,
    bench_serving_throughput,
    bench_slo_control,
    bench_tenant_fairness,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--engine-million",
        action="store_true",
        help="also run the fast-only 1M-request engine tier and gate it against "
             "the committed baseline",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    for module in GATED_BENCHES:
        options = {"million": True} if module is bench_engine_speed and args.engine_million \
            else {}
        failures += check_against_baseline(module, **options)
    if not failures:
        print("\nno perf regression: every gate holds")
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
