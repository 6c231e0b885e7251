"""Repository benchmark: preprocessing and serving, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pre-dynamic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced calls, prints a per-layer
self-time table, writes the spans of the first traced calls to
``perfbench_out/`` and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every call and every check passed.

Load comes from this one process: calls run one after another (a closed
host loop) and each timed call replays inputs built in set-up.  Set-up runs
``SETUP_REPEATS`` times, each ending with one untimed warm-up call, and
``setup_s`` is their median.

Host times are reported at a reference machine speed: a fixed calibration
kernel runs after every call, and every host time is scaled by
``CALIBRATION_REF_S`` over the kernel's median time in the run.  On a shared
machine whose speed drifts between runs this keeps two runs of the same code
comparable; the raw medians and the scale factor are printed with each run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5
#: Median seconds of :class:`Calibration` on the machine the bounds were set
#: on; host times are scaled to that speed.
CALIBRATION_REF_S = 0.04
#: Calls every run makes even past ``--seconds``, so the tail percentile and
#: the fixed simulated-call set always exist.
MIN_CALLS = 20
#: Measuring stops here whatever ``MIN_CALLS`` says, to bound a run's length.
MAX_MEASURE_SECONDS = 120.0
#: ``call_s_tail`` is the highest percentile with this many calls beyond it.
TAIL_BEYOND = 10
#: Traced calls whose spans are written to the span file.
EXPORT_CALLS = 3
#: Call id of the untimed traced probe that must reproduce call 0.
PROBE_CALL = -1000

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sim_goodput_rps": "1/s",
    "sim_p99_s": "s",
}

#: Traced layers: span name -> the per-layer metrics derived from it.
LAYERS = {
    "core.edge_ordering": ("self_s", "calls", "edges"),
    "core.data_reshaping": ("self_s", "calls"),
    "graph.add_edges": ("self_s", "calls"),
    "core.unique_random_selection": ("self_s", "calls", "sampled_edges"),
    "core.subgraph_reindexing": ("self_s", "calls", "mapped_nodes"),
    "core.device": ("self_s",),
    "scheduler.schedule_arrays": ("self_s", "calls", "batches"),
    "scheduler.fair_add": ("self_s", "calls"),
    "scheduler.fair_fire_deadline": ("self_s", "calls"),
    "control.decide": ("self_s", "calls"),
    "control.observe": ("self_s", "calls"),
    "system.estimate_service_seconds": ("self_s", "calls"),
    "system.serve": ("self_s", "calls"),
    "faults.dispatch": ("self_s", "calls"),
    "faults.advance": ("self_s", "calls"),
    "drain.dispatch": ("self_s", "calls"),
    "drain.commit_next": ("self_s", "calls"),
    "engine": ("self_s",),
    "analysis.as_dict": ("self_s",),
    "bench.call": ("self_s",),
}

#: Per-layer metrics taken from the simulated results (name -> unit).
SIM_LAYER = {
    "sim.ordering_cycles": "cycles",
    "sim.reshaping_cycles": "cycles",
    "sim.selecting_cycles": "cycles",
    "sim.reindexing_cycles": "cycles",
    "sim.dram_bytes": "bytes",
    "sim.batching_delay_s": "s",
    "sim.dispatch_delay_s": "s",
    "sim.service_s": "s",
    "scheduler.batch_size_mean": "count",
    "control.admit_ratio": "ratio",
    "control.degraded": "count",
    "control.shed": "count",
    "control.scaling_events": "count",
    "faults.migrated": "count",
    "faults.retried": "count",
    "faults.failed": "count",
    "faults.retry_success_ratio": "ratio",
}

#: Per-layer metrics of the tracing itself and of set-up (name -> unit).
BENCH_LAYER = {
    "requests.trace_gen.self_s": "s",
    "system.pricing_hit_ratio": "ratio",
    "bench.call_s_traced_p50": "s",
    "bench.trace_overhead": "ratio",
}

_STAT_UNITS = {"self_s": "s", "calls": "count"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {
        f"{layer}.{stat}": _STAT_UNITS.get(stat, "count")
        for layer, stats in LAYERS.items()
        for stat in stats
    }
    units.update(SIM_LAYER)
    units.update(BENCH_LAYER)
    return units


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` or stop with an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def tail(times: List[float]) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile with ``TAIL_BEYOND`` calls beyond."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND - 1
    return sorted(times)[rank], 100.0 * (rank + 1) / n


class Calibration:
    """A fixed kernel, timed between calls to track machine speed.

    Half interpreter work (dict updates), half ``numpy`` (sort and unique):
    the workloads mix both, and each drifts differently on a shared machine.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._keys = numpy.random.default_rng(0).integers(0, 1 << 40, size=300_000)
        self.samples: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(60_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        self._np.sort(self._keys)
        self._np.unique(self._keys[:100_000])
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Scale from this run's host seconds to reference-machine seconds."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def provenance() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run(workload, seed: int, seconds: float, trace: bool, min_calls: int = MIN_CALLS,
        out_dir: Optional[Path] = None) -> Dict[str, object]:
    """Run one workload and return the result object (plus a ``report`` key)."""
    from tracing import Tracer
    from workloads import SIM_CALLS, CheckFailed

    tracer = Tracer() if trace else None
    calibration = Calibration()
    targets = workload.targets
    attempted = failed = 0
    errors: List[str] = []

    def note_failure(what: str, exc: BaseException) -> None:
        nonlocal failed
        failed += 1
        if len(errors) < 5:
            errors.append(f"{what}: {exc!r}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)

    # ---------------------------------------------------------------- set-up
    setup_times: List[float] = []
    for repeat in range(SETUP_REPEATS):
        state = None
        calibration.sample()
        started = time.perf_counter()
        if tracer is not None:
            with tracer.installed(targets), tracer.span("bench.setup", call_id=-1 - repeat):
                state = workload.setup(seed)
        else:
            state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)

    # ----------------------------------------------------- reference oracles
    attempted += 1
    try:
        workload.oracle(state)
    except Exception as exc:  # counted, reported, and the run continues
        note_failure("reference oracle", exc)

    # --------------------------------------------------------------- measure
    untraced: List[float] = []
    traced: Dict[int, float] = {}
    records: list = []
    items = 0.0
    index = 0
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        if (elapsed >= seconds and index >= min_calls) or elapsed >= MAX_MEASURE_SECONDS:
            break
        attempted += 1
        with_trace = tracer is not None and index % 2 == 1
        try:
            if with_trace:
                with tracer.installed(targets):
                    started = time.perf_counter()
                    with tracer.span("bench.call", call_id=index):
                        output = workload.call(state, index)
                    took = time.perf_counter() - started
            else:
                started = time.perf_counter()
                output = workload.call(state, index)
                took = time.perf_counter() - started
            workload.check(state, index, output)
        except Exception as exc:  # counted, reported, and the loop goes on
            note_failure(f"call {index}", exc)
        else:
            if with_trace:
                traced[index] = took
            else:
                untraced.append(took)
                items += workload.items(state, output)
            if index < SIM_CALLS:
                records.append(workload.sim_record(output))
        output = None
        index += 1
        calibration.sample()

    if tracer is not None and records:
        # Tracing must not change what the program computes.
        attempted += 1
        try:
            with tracer.installed(targets), tracer.span("bench.call", call_id=PROBE_CALL):
                probe = workload.sim_record(workload.call(state, 0))
            if probe != records[0]:
                raise CheckFailed("traced call 0 differs from the untraced call 0")
        except Exception as exc:  # counted and reported
            note_failure("traced probe", exc)

    if (len(untraced) <= TAIL_BEYOND) if not trace else not (traced and untraced):
        note_failure("measurement", RuntimeError(f"only {index} calls made"))
    correct = failed == 0 and len(records) >= min(SIM_CALLS, min_calls)

    report: List[str] = [f"inputs: {json.dumps(workload.describe(state))}"]
    metrics: Dict[str, Dict[str, object]] = {}
    sim = workload.sim(state, records) if records else {}
    scale = calibration.factor()
    report.append(
        f"calibration: median {statistics.median(calibration.samples):.6f} s over "
        f"{len(calibration.samples)} samples; host times scaled by {scale:.4f} "
        f"(raw call p50 {statistics.median(untraced or [float('nan')]):.6f} s, "
        f"raw setup {statistics.median(setup_times):.6f} s)"
    )
    if not trace:
        tail_value = tail(untraced)
        values = {
            "setup_s": statistics.median(setup_times) * scale,
            "call_s_p50": statistics.median(untraced) * scale if untraced else float("nan"),
            "call_s_tail": tail_value[0] * scale if tail_value else float("nan"),
            "items_per_s": items / (sum(untraced) * scale) if untraced else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key in ("sim_cycles", "sim_goodput_rps", "sim_p99_s"):
            values[key] = sim.get(key, float("nan"))
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        if tail_value:
            report.append(
                f"call_s_tail is p{tail_value[1]:.1f} over {len(untraced)} calls "
                f"(setup repeated {SETUP_REPEATS}x)"
            )
    else:
        metrics, table = _layer_metrics(tracer, traced, untraced, sim, state, scale)
        report.extend(table)
        if out_dir is not None:
            exported = [-1] + sorted(traced)[:EXPORT_CALLS]
            path = tracer.export(
                out_dir / f"spans-{workload.name}-seed{seed}.json",
                {"workload": workload.name, "seed": seed, "calls": exported},
                exported,
            )
            report.append(f"spans of calls {exported} written to {path}")

    error_share = failed / attempted
    report.append(
        f"attempted {attempted} (calls {index} + oracle checks), failed {failed}, "
        f"error_share {error_share:.4f}"
    )
    report.extend(f"FAILED {line}" for line in errors)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def _layer_metrics(tracer, traced: Dict[int, float], untraced: List[float],
                   sim: Dict[str, float], state, scale: float):
    """Per-layer metrics (means per traced call) and the self-time table.

    Times in the metrics are scaled by ``scale`` like the end-to-end ones;
    the printed table shows this run's raw host seconds.
    """
    calls = sorted(traced)
    count = max(len(calls), 1)
    layers = tracer.layer_table(calls)
    counters = tracer.counter_totals(calls)
    setup_ids = [-1 - r for r in range(SETUP_REPEATS)]
    setup_layers = tracer.layer_table(setup_ids)
    units = per_layer_units()

    values: Dict[str, float] = {}
    for layer, stats in LAYERS.items():
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        for stat in stats:
            if stat in entry:
                values[f"{layer}.{stat}"] = entry[stat] / count * (
                    scale if stat == "self_s" else 1.0
                )
            else:
                values[f"{layer}.{stat}"] = counters.get(f"{layer}.{stat}", 0.0) / count
    for name in SIM_LAYER:
        values[name] = float(sim.get(name, 0.0))
    values["requests.trace_gen.self_s"] = (
        setup_layers.get("requests.trace_gen", {"self_s": 0.0})["self_s"] / SETUP_REPEATS * scale
    )
    batches = state.report.num_batches if getattr(state, "report", None) is not None else 0
    values["system.pricing_hit_ratio"] = (
        1.0 - values["system.serve.calls"] / batches if batches else 0.0
    )
    traced_p50 = statistics.median(traced.values()) if traced else float("nan")
    untraced_p50 = statistics.median(untraced) if untraced else float("nan")
    values["bench.call_s_traced_p50"] = traced_p50 * scale
    values["bench.trace_overhead"] = traced_p50 / untraced_p50 - 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    # Self-time table: every traced span name, means per traced call.
    roots = tracer.root_durations(calls)
    root_mean = sum(roots.values()) / count
    total = sum(entry["self_s"] for entry in layers.values()) / count
    table = [f"{'layer (self time per traced call)':<36}{'self_s':>12}{'share':>8}{'calls':>10}"]
    for name, entry in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        share = entry["self_s"] / count / root_mean if root_mean else 0.0
        table.append(
            f"{name:<36}{entry['self_s'] / count:>12.6f}{share:>8.1%}"
            f"{entry['calls'] / count:>10.1f}"
        )
    table.append(f"{'sum of self times':<36}{total:>12.6f}")
    table.append(f"{'traced call time (root spans)':<36}{root_mean:>12.6f}")
    if not math.isclose(total, root_mean, rel_tol=1e-6):
        raise RuntimeError(f"self times sum to {total} but traced calls took {root_mean}")
    table.append(
        f"tracing overhead: traced p50 {traced_p50:.6f} s vs untraced p50 "
        f"{untraced_p50:.6f} s ({values['bench.trace_overhead']:+.1%}) over "
        f"{len(traced)} traced / {len(untraced)} untraced calls"
    )
    return metrics, table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  machine: {json.dumps(provenance(), sort_keys=True)}")
    print(f"  why: {workload.why}")
    print(f"  loop: {workload.loop}")
    for key, value in workload.params().items():
        print(f"  {key}: {value}")
    result = run(workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=ROOT / "perfbench_out")
    for line in result.pop("report"):
        print(f"  {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44}{metric['value']:>18.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
