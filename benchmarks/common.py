"""Shared helpers for the benchmark scripts.

Two kinds of script live in ``benchmarks/``:

* ``bench_fig*`` / ``bench_table*`` modules reproduce one table or figure of
  the paper: they compute the same rows or series the paper reports (using
  the full-scale Table II workload parameters through the analytic models,
  or the functional simulator on scaled synthetic graphs where noted), print
  them, and time the computation through pytest-benchmark.
* The *gated* benches (``bench_perf_preprocessing``, ``bench_engine_speed``
  and the serving benches) measure this repo's own fast paths and serving
  features.  Each exposes ``run(quick)`` returning a result document,
  ``RESULT_PATH`` (its ``BENCH_*.json`` at the repo root) and a ``GATES``
  table of :class:`Gate` rows.  :func:`evaluate` is the one place those rows
  are enforced: standalone runs and the pytest entries check the absolute
  part of every row, and ``benchmarks/check_perf_regression.py`` (the CI
  gate step) checks every row against the committed document.

Importing this module puts ``src/`` on ``sys.path``, so a bench script run
directly from a checkout needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import format_series, format_table
from repro.graph.datasets import DATASET_ORDER
from repro.serving import (
    BatchScheduler,
    BurstyArrivals,
    ClosedLoopClients,
    OpenLoopArrivals,
    ShardedServiceCluster,
)
from repro.system.service import GNNService
from repro.system.workload import WorkloadProfile

#: Directory where every reproduced table/figure is also written as a text
#: file, so the harness output survives pytest's stdout capture.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _save_result(title: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:80]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")


def all_workloads(**kwargs) -> Dict[str, WorkloadProfile]:
    """Full-scale workload profiles for the 11 Table II datasets."""
    return {key: WorkloadProfile.from_dataset(key, **kwargs) for key in DATASET_ORDER}


def steady_state_report(service: GNNService, workload: WorkloadProfile):
    """Serve twice and return the second (steady-state) report.

    The first pass lets reconfigurable systems adapt to the workload so that
    per-dataset comparisons (Fig. 18 style) are not charged the one-off
    reconfiguration cost; the time-series benchmarks charge it explicitly.
    """
    service.serve(workload)
    return service.serve(workload)


def print_figure(title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format, print, persist and return a figure/table reproduction."""
    text = format_table(title, columns, rows)
    print("\n" + text)
    _save_result(title, text)
    return text


def print_series(title: str, x_label: str, x_values, series: Dict[str, Sequence[float]]) -> str:
    """Format, print, persist and return an x/y series reproduction."""
    text = format_series(title, x_label, x_values, series)
    print("\n" + text)
    _save_result(title, text)
    return text


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ---------------------------------------------------------------- serving
# Pieces every serving bench shares.  Changing one changes the committed
# traffic of several benches at once, so they live here exactly once.

#: Workload mix of the serving traffic (small / medium / the paper's tuning
#: dataset of Table II).
TABLE2_DATASETS = ("PH", "AX", "MV")

#: Scheduler settings: coalesce up to 4 compatible requests, waiting at most
#: 5 ms for companions.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005


def table2_mix(datasets: Sequence[str] = TABLE2_DATASETS, **kwargs) -> List[WorkloadProfile]:
    """Full-scale workload profiles of ``datasets`` (``kwargs`` override)."""
    return [WorkloadProfile.from_dataset(key, **kwargs) for key in datasets]


def scheduler(**kwargs) -> BatchScheduler:
    """The shared size-or-timeout scheduler (``kwargs``: e.g. tenant weights)."""
    return BatchScheduler(
        max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS, **kwargs
    )


def scheduler_settings() -> Dict:
    """The shared scheduler settings as recorded in a result document."""
    return {"max_batch_size": MAX_BATCH_SIZE, "max_wait_seconds": MAX_WAIT_SECONDS}


def mean_cost(template: GNNService, mix: Sequence[WorkloadProfile]) -> float:
    """Mean single-request cost estimate over ``mix`` (side-effect free)."""
    return sum(template.estimate_service_seconds(w) for w in mix) / len(mix)


def measure_capacity(
    template: GNNService, mix, num_shards: int, seed: int, quick: bool
) -> float:
    """Saturated throughput of a ``num_shards`` cluster on ``mix`` (rps).

    Measured with a short open-loop run rather than taken from the analytic
    estimate, so overload factors built on it stay true on any machine.
    """
    saturating_rate = 20.0 / mean_cost(template, mix)  # far beyond capacity: pure backlog
    cluster = ShardedServiceCluster(template, num_shards=num_shards, scheduler=scheduler())
    trace = OpenLoopArrivals(mix, rate_rps=saturating_rate, seed=seed).trace(
        200 if quick else 500
    )
    return cluster.serve_trace(trace).throughput_rps


def latency_summary(latency) -> Dict:
    """p50/p95/p99/mean of a latency summary, rounded for the document."""
    return {
        "p50": round(latency.p50, 6),
        "p95": round(latency.p95, 6),
        "p99": round(latency.p99, 6),
        "mean": round(latency.mean, 6),
    }


def bursty_stress_trace(mix, rate_rps: float, num_requests: int, seed: int):
    """The fault benches' stress traffic: 0.5x-2.5x bursts around ``rate_rps``."""
    return BurstyArrivals(
        mix,
        base_rate_rps=0.5 * rate_rps,
        peak_rate_rps=2.5 * rate_rps,
        period_seconds=0.5,
        burst_fraction=0.25,
        seed=seed,
    ).trace(num_requests)


def goodput_summary(report) -> Dict:
    """Request accounting of one run, rounded for the document."""
    goodput = report.goodput
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "offered": goodput.offered,
        "served": goodput.served,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "slo_attainment": round(goodput.slo_attainment, 4),
    }


def conserved_stress_entry(report, wall_seconds: float, **extra) -> Dict:
    """Stress-run summary; raises unless offered == served + shed + failed."""
    goodput = report.goodput
    conserved = goodput.offered == goodput.served + goodput.shed + goodput.failed
    if not conserved:
        raise AssertionError(
            f"conservation violated in stress run: offered {goodput.offered} "
            f"!= served {goodput.served} + shed {goodput.shed} "
            f"+ failed {goodput.failed}"
        )
    return {
        **extra,
        **goodput_summary(report),
        "scaling_events": len(report.scaling_timeline),
        "conserved": conserved,
        "wall_clock_seconds": round(wall_seconds, 4),
    }


def closed_loop_overload(
    template: GNNService,
    datasets: Sequence[str],
    mix: Sequence[WorkloadProfile],
    num_shards: int,
    slo_cost_multiple: float,
    overload_factor: float,
    seed: int,
    quick: bool,
) -> Tuple[Callable[[], ClosedLoopClients], float, Dict]:
    """A closed-loop client population sized to overload the SLO.

    The mean single-request cost prices the SLO; the merged-batch cost
    prices the cluster's SLO-bounded concurrency, from which a population
    offering ``overload_factor`` x that concurrency follows.  Shed requests
    retry after half an SLO.  Returns a factory of fresh populations (each
    run needs its own), the SLO in seconds and the document fields that
    record the traffic.
    """
    cost = mean_cost(template, mix)
    batch_cost = sum(
        template.estimate_service_seconds(w.with_batch_size(w.batch_size * MAX_BATCH_SIZE))
        for w in mix
    ) / len(mix)
    slo_seconds = slo_cost_multiple * cost
    capacity_rps = num_shards * MAX_BATCH_SIZE / batch_cost
    num_clients = max(int(round(overload_factor * capacity_rps * slo_seconds)), 2)
    # The budget must comfortably exceed the client population, or the run
    # ends before the closed loop (and any autoscaler) reaches steady state.
    max_requests = num_clients * (2 if quick else 5)
    retry_backoff = slo_seconds / 2.0
    print(
        f"mean cost {cost * 1e3:.1f} ms | SLO {slo_seconds * 1e3:.1f} ms | "
        f"capacity ~{capacity_rps:.0f} rps | {num_clients} closed-loop clients "
        f"({overload_factor:.0f}x overload) | {max_requests} requests"
    )

    def clients() -> ClosedLoopClients:
        return ClosedLoopClients(
            mix,
            num_clients=num_clients,
            think_seconds=0.0,
            seed=seed,
            max_requests=max_requests,
            retry_backoff_seconds=retry_backoff,
        )

    fields = {
        "traffic": {
            "datasets": list(datasets),
            "num_clients": num_clients,
            "max_requests": max_requests,
            "think_seconds": 0.0,
            "retry_backoff_seconds": round(retry_backoff, 6),
            "seed": seed,
            "overload_factor": overload_factor,
        },
        "scheduler": scheduler_settings(),
        "slo_seconds": round(slo_seconds, 6),
        "capacity_estimate_rps": round(capacity_rps, 3),
    }
    return clients, slo_seconds, fields


# ------------------------------------------------------------------ gates

#: Relative floor: a fresh ratio must reach this fraction of the committed
#: one.  Relative tolerances absorb CI-runner noise; the absolute floors
#: catch a fast path that was quietly disabled altogether.
TOLERANCE = 0.5

#: Wall-clock budget: fresh seconds may exceed the machine-normalized
#: committed seconds by at most this factor (20%).
WALL_TOLERANCE = 1.2


@dataclass(frozen=True)
class Gate:
    """One regression gate over a gated bench's result document.

    ``metric`` is a dotted path into the document.  With ``per`` set, the
    row applies to every entry of the document's ``results`` list (entries
    are matched across documents by their ``per`` key), and ``metric``,
    ``normalizer`` and ``require`` are paths inside one entry.

    * A ratio row passes when the fresh value is at least ``floor`` (a
      number, or a mapping from ``per`` key to number) and, against a
      committed document with ``relative``, at least
      ``TOLERANCE x committed``.
    * A wall-clock row (``normalizer`` set) passes when the fresh seconds
      are at most ``ceiling`` and, against a committed document, at most
      ``WALL_TOLERANCE x machine x committed``.  ``machine`` is fresh over
      committed seconds of ``normalizer``, an unchanged simulation timed in
      the same run, which divides out the speed of the machine.
    * Every ``require`` path must be ``True`` in the fresh document; a
      ``per`` row checks it at every entry that carries it.

    A ``None`` section on the way to ``metric`` in the fresh document marks
    a tier the run skipped (e.g. the engine's 1M tier in quick mode); the
    row is then reported as not run.
    """

    metric: str
    floor: Union[float, Mapping[object, float], None] = None
    relative: bool = True
    per: Optional[str] = None
    normalizer: Optional[str] = None
    ceiling: Optional[float] = None
    require: Tuple[str, ...] = ()


#: What :func:`lookup` returns for a path that is absent.
MISSING = object()


def lookup(document, path: str):
    """The value at dotted ``path``: ``None`` past a null section,
    :data:`MISSING` when a key on the way is absent."""
    value = document
    for key in path.split("."):
        if value is None:
            return None
        if not isinstance(value, dict) or key not in value:
            return MISSING
        value = value[key]
    return value


def _check_row(label: str, gate: Gate, fresh: Dict, committed: Optional[Dict], key) -> List[str]:
    """Evaluate one row on one document (or on one ``results`` entry)."""
    failures = []
    for path in gate.require:
        holds = lookup(fresh, path)
        if holds is MISSING and gate.per is not None:
            continue  # this scale does not carry the boolean
        if holds is not True:
            shown = "missing" if holds is MISSING else holds
            failures.append(f"{label}: {path} is {shown}, must be true")
    value = lookup(fresh, gate.metric)
    if value is MISSING:
        return failures + [f"{label}: {gate.metric} missing from the fresh document"]
    if value is None:
        print(f"{label} {gate.metric}: not run")
        return failures
    baseline = None if committed is None else lookup(committed, gate.metric)
    if baseline is MISSING or (committed is not None and baseline is None):
        return failures + [
            f"{label}: committed baseline has no {gate.metric} — regenerate and commit it"
        ]
    if gate.normalizer is not None:
        bound = math.inf if gate.ceiling is None else gate.ceiling
        if baseline is not None:
            machine = lookup(fresh, gate.normalizer) / max(
                lookup(committed, gate.normalizer), 1e-12
            )
            bound = min(bound, WALL_TOLERANCE * machine * baseline)
        ok, kind, relation = value <= bound, "budget", "above"
    else:
        floor = gate.floor[key] if isinstance(gate.floor, Mapping) else gate.floor
        bound = -math.inf if floor is None else floor
        if baseline is not None and gate.relative:
            bound = max(bound, TOLERANCE * baseline)
        ok, kind, relation = value >= bound, "floor", "below"
    if math.isinf(bound):
        return failures  # nothing to compare against without a baseline
    against = "" if baseline is None else f" (committed {baseline:.3f})"
    print(
        f"{label} {gate.metric}: fresh {value:.3f} | {kind} {bound:.3f}{against} | "
        + ("ok" if ok else "REGRESSION")
    )
    if not ok:
        failures.append(
            f"{label}: {gate.metric} {value:.3f} {relation} {kind} {bound:.3f}{against}"
        )
    return failures


def evaluate(
    name: str, gates: Sequence[Gate], fresh: Dict, committed: Optional[Dict] = None
) -> List[str]:
    """Run every row of ``gates``; return one message per failed check.

    Without ``committed`` only the absolute parts run (floors, ceilings and
    required booleans); with it the relative floors and the
    machine-normalized wall budgets run too.
    """
    failures: List[str] = []
    for gate in gates:
        if gate.per is None:
            failures += _check_row(name, gate, fresh, committed, None)
            continue
        baseline = {} if committed is None else {
            entry[gate.per]: entry for entry in committed["results"]
        }
        for entry in fresh["results"]:
            key = entry[gate.per]
            failures += _check_row(
                f"{name} {key}", gate, entry, baseline.get(key), key
            )
    return failures


def bench_name(module) -> str:
    return module.RESULT_PATH.stem.removeprefix("BENCH_")


def run_and_write(module, quick: bool, **options) -> Dict:
    """Run a gated bench and write its result document.

    ``wall_clock_seconds`` records the whole run on this machine.
    """
    started = time.perf_counter()
    document = module.run(quick=quick, **options)
    document["wall_clock_seconds"] = round(time.perf_counter() - started, 4)
    module.RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nresults written to {module.RESULT_PATH}")
    return document


def exit_code(failures: Sequence[str]) -> int:
    """Print the failed checks to stderr; 1 if there are any, else 0."""
    if failures:
        print("\nGATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


def check_against_baseline(module, **options) -> List[str]:
    """Gate a fresh quick run of ``module`` against its committed document.

    The committed document is read into memory before the fresh run
    overwrites it on disk.
    """
    name = bench_name(module)
    if not module.RESULT_PATH.exists():
        return [
            f"{name}: committed baseline {module.RESULT_PATH.name} is missing — "
            f"regenerate with `python benchmarks/{Path(module.__file__).name}` "
            "and commit it"
        ]
    committed = json.loads(module.RESULT_PATH.read_text())
    print(f"\nrunning fresh --quick {name} benchmark...\n")
    fresh = run_and_write(module, quick=True, **options)
    return evaluate(name, module.GATES, fresh, committed)


def bench_parser(module, quick_help: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=module.__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true", help=quick_help)
    return parser


def finish(module, quick: bool) -> int:
    """Standalone run: run, write, check the absolute gates, exit code."""
    document = run_and_write(module, quick)
    return exit_code(evaluate(bench_name(module), module.GATES, document))


def bench_main(module, quick_help: str) -> int:
    """Command-line entry of a gated bench (``--quick`` is the CI scale)."""
    return finish(module, bench_parser(module, quick_help).parse_args().quick)


def bench_test(benchmark, module) -> Dict:
    """Pytest-benchmark entry: one timed quick run, every absolute gate asserted."""
    document = run_once(benchmark, lambda: run_and_write(module, quick=True))
    failures = evaluate(bench_name(module), module.GATES, document)
    assert not failures, failures
    return document
