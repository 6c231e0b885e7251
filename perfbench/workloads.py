"""The benchmark's workloads: generated inputs, one timed call, output checks.

Each workload builds everything a call needs from ``--seed`` in
:meth:`setup` (ending with one untimed warm-up call), then :meth:`call` is
the timed unit of work.  :meth:`check` validates one call's outputs and
:meth:`oracle` runs the once-per-run reference comparisons; both raise
:class:`CheckFailed` and neither is timed.

Two families:

* ``pre-*`` drive the cycle-level AutoGNN device model
  (``AutoGNNDevice.preprocess``: edge ordering, data reshaping, unique
  random selection, subgraph reindexing) on an in-memory graph.
* ``serve-*`` replay one generated request trace through a fresh
  ``ShardedServiceCluster`` per call (DynPre shards).

``sim_*`` numbers are what the modelled accelerator or cluster would do
(analytic and cycle models, not validated against hardware); every other
timing is host time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.accelerator import AutoGNNDevice, PreprocessingTiming
from repro.core.config import KERNEL_CLOCK_HZ
from repro.core.kernels import SCRKernel, UPEKernel
from repro.graph.convert import validate_conversion
from repro.graph.coo import COOGraph
from repro.graph.csc import CSCGraph
from repro.graph.datasets import load_dataset
from repro.graph.dynamic import GraphUpdateStream
from repro.graph.generators import GraphSpec, power_law_graph
from repro.preprocessing.pipeline import PreprocessingConfig
from repro.serving import (
    AdmissionController,
    Autoscaler,
    BatchScheduler,
    BurstyArrivals,
    ClusterReport,
    DegradationPolicy,
    DrainPlanner,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    RandomFaults,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantFairBatcher,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)
from repro.serving.faults import FaultRuntime
from repro.system.service import GNNService, build_services
from repro.system.workload import WorkloadProfile

from tracing import Target

#: Calls ``0..SIM_CALLS-1`` define the simulated metrics of the ``pre-*``
#: workloads, so they do not depend on how many calls a run fits in.
SIM_CALLS = 16


class CheckFailed(AssertionError):
    """An output check or reference oracle disagreed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Preprocessing checks
# --------------------------------------------------------------------------
def _keys(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    shift = max(int(num_nodes).bit_length(), 1)
    return (np.asarray(dst, dtype=np.int64) << shift) | np.asarray(src, dtype=np.int64)


def check_conversion(coo: COOGraph, csc: CSCGraph) -> np.ndarray:
    """The predicate of ``validate_conversion``, vectorized.

    ``csc`` must be consistent, have ``coo``'s pointer array, and hold the
    same multiset of sources per destination.  Returns ``coo``'s sorted
    edge keys for the subset checks that follow.
    """
    try:
        csc.validate()
    except ValueError as exc:
        raise CheckFailed(f"inconsistent CSC: {exc}") from exc
    n = coo.num_nodes
    require(csc.num_nodes == n and csc.num_edges == coo.num_edges, "CSC shape mismatch")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.dst, minlength=n), out=indptr[1:])
    require(np.array_equal(csc.indptr, indptr), "CSC pointer array differs from the COO")
    csc_dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr))
    coo_keys = np.sort(_keys(coo.src, coo.dst, n))
    require(
        np.array_equal(np.sort(_keys(csc.indices, csc_dst, n)), coo_keys),
        "CSC neighbour multisets differ from the COO",
    )
    return coo_keys


def check_preprocessing(graph: COOGraph, out, sorted_keys: Optional[np.ndarray] = None) -> None:
    """Every-call checks of one ``AutoGNNDevice.preprocess`` result."""
    result = out.result
    if sorted_keys is None:
        sorted_keys = check_conversion(graph, result.csc)
    else:
        check_conversion(graph, result.csc)
    # Sampled edges are edges of the graph.
    sampled = result.sample.all_edges()
    keys = _keys(sampled.src, sampled.dst, graph.num_nodes)
    if len(keys):
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
        require(bool(np.all(sorted_keys[pos] == keys)), "sampled edge not in the graph")
    # The reindex mapping is a bijection onto 0..m-1 that recovers the sample.
    reindex = result.reindex
    original = reindex.original_vids
    m = len(original)
    require(len(np.unique(original)) == m, "reindex maps two new VIDs to one vertex")
    new_src, new_dst = reindex.edges.src, reindex.edges.dst
    if len(new_src):
        require(
            int(min(new_src.min(), new_dst.min())) >= 0
            and int(max(new_src.max(), new_dst.max())) < m,
            "reindexed VID out of range",
        )
    require(
        np.array_equal(original[new_src], sampled.src)
        and np.array_equal(original[new_dst], sampled.dst),
        "reindexed edges do not map back to the sampled edges",
    )
    check_conversion(reindex.edges, result.subgraph_csc)


def _same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b)) and len(a) == len(b)


def check_bit_exact(fast, reference) -> None:
    """Vectorized and reference device runs must agree bit for bit."""
    fr, rr = fast.result, reference.result
    require(fast.timing == reference.timing, "cycle accounting differs from mode='reference'")
    require(
        _same_arrays(
            (fr.ordered.src, fr.ordered.dst, fr.csc.indptr, fr.csc.indices,
             fr.sample.sampled_nodes, fr.reindex.original_vids,
             fr.reindex.edges.src, fr.reindex.edges.dst,
             fr.subgraph_csc.indptr, fr.subgraph_csc.indices),
            (rr.ordered.src, rr.ordered.dst, rr.csc.indptr, rr.csc.indices,
             rr.sample.sampled_nodes, rr.reindex.original_vids,
             rr.reindex.edges.src, rr.reindex.edges.dst,
             rr.subgraph_csc.indptr, rr.subgraph_csc.indices),
        )
        and len(fr.sample.layers) == len(rr.sample.layers)
        and all(
            np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            for a, b in zip(fr.sample.layers, rr.sample.layers)
        ),
        "preprocessing output differs from mode='reference'",
    )


def _count_edges(args, result):
    return (("core.edge_ordering.edges", args[1].num_edges),)


def _count_sampled(args, result):
    return (("core.unique_random_selection.sampled_edges", result[0].num_sampled_edges),)


def _count_mapped(args, result):
    return (("core.subgraph_reindexing.mapped_nodes", result[0].num_sampled_nodes),)


def _count_batches(args, result):
    return (("scheduler.schedule_arrays.batches", result.num_batches),)


PRE_TARGETS = (
    Target(COOGraph, "add_edges", "graph.add_edges"),
    Target(AutoGNNDevice, "preprocess", "core.device"),
    Target(UPEKernel, "edge_ordering", "core.edge_ordering", _count_edges),
    Target(SCRKernel, "data_reshaping", "core.data_reshaping"),
    Target(UPEKernel, "unique_random_selection", "core.unique_random_selection", _count_sampled),
    Target(SCRKernel, "subgraph_reindexing", "core.subgraph_reindexing", _count_mapped),
)

SERVE_TARGETS = (
    Target(ShardedServiceCluster, "serve_trace", "engine"),
    Target(ShardedServiceCluster, "serve_online", "engine"),
    Target(ClusterReport, "as_dict", "analysis.as_dict"),
    Target(BatchScheduler, "schedule_arrays", "scheduler.schedule_arrays", _count_batches),
    Target(TenantFairBatcher, "add", "scheduler.fair_add"),
    Target(TenantFairBatcher, "fire_deadline", "scheduler.fair_fire_deadline"),
    Target(AdmissionController, "decide", "control.decide"),
    Target(Autoscaler, "observe", "control.observe"),
    Target(GNNService, "estimate_service_seconds", "system.estimate_service_seconds"),
    Target(GNNService, "serve", "system.serve"),
    Target(FaultRuntime, "dispatch", "faults.dispatch"),
    Target(FaultRuntime, "advance", "faults.advance"),
    Target(DrainPlanner, "dispatch", "drain.dispatch"),
    Target(DrainPlanner, "commit_next", "drain.commit_next"),
    Target(OpenLoopArrivals, "trace", "requests.trace_gen"),
    Target(BurstyArrivals, "trace", "requests.trace_gen"),
)


# --------------------------------------------------------------------------
# Preprocessing workloads
# --------------------------------------------------------------------------
@dataclass
class PreState:
    device: AutoGNNDevice
    base: COOGraph
    batches: list = field(default_factory=list)
    current: Optional[COOGraph] = None
    sorted_keys: Optional[np.ndarray] = None  # static graphs only


class _Preprocessing:
    """Shared call/check/sim logic of the ``pre-*`` workloads."""

    targets = PRE_TARGETS
    loop = "closed host loop, one preprocessing pass per call (no simulated traffic)"

    def config(self, index: int) -> PreprocessingConfig:
        return PreprocessingConfig(
            batch_size=self.batch_size, k=self.k, num_layers=self.hops, seed=index
        )

    def graph_for(self, state: PreState, index: int) -> COOGraph:
        return state.base

    def call(self, state: PreState, index: int):
        graph = self.graph_for(state, index)
        return graph, state.device.preprocess(graph, self.config(index))

    def warm_up(self, state: PreState) -> None:
        self.call(state, 0)

    def check(self, state: PreState, index: int, output) -> None:
        graph, out = output
        check_preprocessing(graph, out, state.sorted_keys)

    def oracle(self, state: PreState) -> None:
        graph, out = self.call(state, 0)
        require(validate_conversion(graph, out.result.csc), "validate_conversion failed")
        reference = AutoGNNDevice(mode="reference").preprocess(graph, self.config(0))
        check_bit_exact(out, reference)

    def items(self, state: PreState, output) -> float:
        return float(output[0].num_edges)

    def describe(self, state: PreState) -> Dict[str, object]:
        return {"nodes": state.base.num_nodes, "edges": state.base.num_edges}

    def sim_record(self, output) -> PreprocessingTiming:
        return output[1].timing

    def sim(self, state: PreState, records: List[PreprocessingTiming]) -> Dict[str, float]:
        cycles = np.array([t.total_cycles for t in records], dtype=np.float64)
        seconds = np.array([t.total_seconds for t in records], dtype=np.float64)
        mean = lambda values: float(np.mean(values))  # noqa: E731
        return {
            "sim_cycles": mean(cycles),
            "sim_goodput_rps": 1.0 / mean(seconds),
            "sim_p99_s": float(np.percentile(seconds, 99)),
            "sim.ordering_cycles": mean([t.ordering_cycles for t in records]),
            "sim.reshaping_cycles": mean([t.reshaping_cycles for t in records]),
            "sim.selecting_cycles": mean([t.selecting_cycles for t in records]),
            "sim.reindexing_cycles": mean([t.reindexing_cycles for t in records]),
            "sim.dram_bytes": mean([t.bytes_read + t.bytes_written for t in records]),
        }


class PreDynamic(_Preprocessing):
    name = "pre-dynamic"
    why = (
        "a graph that grows every call: full-graph conversion dominates and "
        "a cross-call cache must invalidate, so incremental conversion shows here"
    )

    def __init__(self, nodes=200_000, edges=1_000_000, skew=0.5, growth=0.005,
                 cycle=8, batch_size=3000, k=10, hops=2):
        self.nodes, self.edges, self.skew = nodes, edges, skew
        self.growth, self.cycle = growth, cycle
        self.batch_size, self.k, self.hops = batch_size, k, hops

    def params(self) -> Dict[str, object]:
        return {
            "graph": f"power_law_graph({self.nodes} nodes, {self.edges} edges, skew {self.skew})",
            "updates": f"{self.cycle} GraphUpdateStream batches of {self.growth:.1%} growth, "
                       f"applied in order, back to the base graph every {self.cycle} calls",
            "preprocess": f"batch {self.batch_size}, k={self.k}, {self.hops} hops, seed = call index",
        }

    def setup(self, seed: int) -> PreState:
        base = power_law_graph(
            GraphSpec(self.nodes, self.edges, self.skew, name="dynamic", seed=seed)
        )
        stream = GraphUpdateStream(base, self.growth, seed=seed)
        state = PreState(device=AutoGNNDevice(), base=base, batches=list(stream.generate(self.cycle)))
        self.warm_up(state)
        return state

    def graph_for(self, state: PreState, index: int) -> COOGraph:
        """Apply update batch ``index % cycle`` to the previous call's graph.

        Calls run in index order; every ``cycle`` calls start again from the
        base graph, so the graph changes every call but stays bounded.
        """
        step = index % self.cycle
        previous = state.base if step == 0 else state.current
        batch = state.batches[step]
        state.current = previous.add_edges(
            batch.src, batch.dst, num_nodes=previous.num_nodes + batch.new_nodes
        )
        return state.current


class PreSample(_Preprocessing):
    name = "pre-sample"
    why = (
        "a static dense graph sampled deeply with a new seed per call: "
        "unique random selection and reindexing dominate, conversion repeats"
    )

    def __init__(self, dataset="YL", scale=0.05, batch_size=1024, k=25, hops=3):
        self.dataset, self.scale = dataset, scale
        self.batch_size, self.k, self.hops = batch_size, k, hops

    def params(self) -> Dict[str, object]:
        return {
            "graph": f"load_dataset({self.dataset!r}, scale={self.scale})",
            "preprocess": f"batch {self.batch_size}, k={self.k}, {self.hops} hops, seed = call index",
        }

    def setup(self, seed: int) -> PreState:
        state = PreState(
            device=AutoGNNDevice(), base=load_dataset(self.dataset, scale=self.scale, seed=seed)
        )
        self.warm_up(state)
        return state

    def check(self, state: PreState, index: int, output) -> None:
        if state.sorted_keys is None:
            state.sorted_keys = np.sort(_keys(state.base.src, state.base.dst, state.base.num_nodes))
        super().check(state, index, output)


# --------------------------------------------------------------------------
# Serving workloads
# --------------------------------------------------------------------------
MIX = ("PH", "AX", "MV")
NUM_SHARDS = 4
MAX_BATCH = 4
MAX_WAIT_S = 0.005
SLO_COST_MULTIPLE = 3.0
ORACLE_REQUESTS = 3000


@dataclass
class ServeState:
    template: GNNService
    scheduler: BatchScheduler
    trace: RequestTrace
    capacity_rps: float
    config: Callable[[], ServingConfig]
    baseline: str = ""
    report: Optional[ClusterReport] = None


def _mix() -> List[WorkloadProfile]:
    return [WorkloadProfile.from_dataset(key) for key in MIX]


def _mean_cost(template: GNNService) -> float:
    mix = _mix()
    return sum(template.estimate_service_seconds(w) for w in mix) / len(mix)


def _capacity_rps(template: GNNService, seed: int, probe_requests: int) -> float:
    """Saturated throughput of the 4-shard cluster on the mix (simulated rps)."""
    saturating = 20.0 / _mean_cost(template)
    trace = OpenLoopArrivals(_mix(), rate_rps=saturating, seed=seed).trace(probe_requests)
    cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS,
        scheduler=BatchScheduler(max_batch_size=MAX_BATCH, max_wait_seconds=MAX_WAIT_S),
        policy=POLICY_LEAST_LOADED,
    )
    return cluster.serve_trace(trace).throughput_rps


def _render(report: ClusterReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _slice(trace: RequestTrace, count: int) -> RequestTrace:
    a = trace.arrays()
    return RequestTrace.from_arrays(
        a.arrival_seconds[:count], a.workload_pool, a.workload_index[:count],
        request_ids=a.request_ids[:count], tenant_pool=a.tenant_pool,
        tenant_index=a.tenant_index[:count],
    )


class _Serving:
    """Shared call/check/sim logic of the ``serve-*`` workloads."""

    targets = SERVE_TARGETS

    def cluster(self, state: ServeState, engine: str = "fast") -> ShardedServiceCluster:
        return ShardedServiceCluster(
            state.template, num_shards=NUM_SHARDS, scheduler=state.scheduler,
            policy=POLICY_LEAST_LOADED, engine=engine,
        )

    def serve(self, cluster, trace, config):
        raise NotImplementedError

    def call(self, state: ServeState, index: int):
        report = self.serve(self.cluster(state), state.trace, state.config())
        return report, report.as_dict()

    def warm_up(self, state: ServeState) -> None:
        report, _ = self.call(state, 0)
        state.report = report
        state.baseline = _render(report)

    def check(self, state: ServeState, index: int, output) -> None:
        report, rendered = output
        g = report.goodput
        require(g.offered == len(state.trace), "offered != requests in the trace")
        require(
            g.offered == g.served_full + g.served_degraded + g.shed + g.failed,
            "conservation broken: offered != served_full + served_degraded + shed + failed",
        )
        require(
            json.dumps(rendered, sort_keys=True) == state.baseline,
            "report differs from the warm-up call on identical inputs",
        )

    def oracle(self, state: ServeState) -> None:
        part = _slice(state.trace, min(ORACLE_REQUESTS, len(state.trace)))
        fast = self.serve(self.cluster(state, "fast"), part, state.config())
        reference = self.serve(self.cluster(state, "reference"), part, state.config())
        require(
            _render(fast) == _render(reference),
            "fast-engine report is not byte-identical to engine='reference'",
        )

    def items(self, state: ServeState, output) -> float:
        return float(len(state.trace))

    def describe(self, state: ServeState) -> Dict[str, object]:
        """The generated trace and the simulated rates it was built from."""
        return {
            "requests": len(state.trace),
            "span_s": round(state.trace.duration_seconds, 3),
            "capacity_rps": round(state.capacity_rps, 3),
            "offered_rps": round(state.trace.offered_rate_rps, 3),
        }

    def sim_record(self, output) -> str:
        return json.dumps(output[1], sort_keys=True)

    def sim(self, state: ServeState, records: list) -> Dict[str, float]:
        report = state.report
        g = report.goodput
        faults = report.faults
        decomposition = report.queueing_decomposition
        retried = faults.retried if faults is not None else 0
        failed = faults.failed if faults is not None else 0
        return {
            "sim_cycles": sum(report.shard_busy_seconds) * KERNEL_CLOCK_HZ
            / max(report.num_batches, 1),
            "sim_goodput_rps": g.goodput_rps,
            "sim_p99_s": report.latency.p99,
            "sim.batching_delay_s": decomposition["batching"],
            "sim.dispatch_delay_s": decomposition["dispatch"],
            "sim.service_s": decomposition["service"],
            "scheduler.batch_size_mean": g.served / max(report.num_batches, 1),
            "control.admit_ratio": (g.offered - g.shed) / max(g.offered, 1),
            "control.degraded": float(g.served_degraded),
            "control.shed": float(g.shed),
            "control.scaling_events": float(
                sum(1 for event in report.scaling_timeline if event.reason != "init")
            ),
            "faults.migrated": float(faults.migrated if faults is not None else 0),
            "faults.retried": float(retried),
            "faults.failed": float(failed),
            "faults.retry_success_ratio": (retried - failed) / retried if retried else 0.0,
        }


class ServeOffline(_Serving):
    name = "serve-offline"
    why = (
        "offline open-loop replay at 0.8x capacity: batch planning and chunked "
        "dispatch dominate; no control, fault or online-loop code runs"
    )

    def __init__(self, requests=100_000, load=0.8, probe_requests=5000):
        self.requests, self.load, self.probe_requests = requests, load, probe_requests
        self.loop = (
            f"closed host loop; simulated open-loop Poisson at {load}x the measured "
            "saturated throughput"
        )

    def params(self) -> Dict[str, object]:
        return {
            "trace": f"{self.requests} requests, Poisson, PH/AX/MV mix, "
                     f"{self.load}x measured capacity",
            "cluster": f"DynPre x{NUM_SHARDS}, least-loaded, batches <= {MAX_BATCH}, "
                       f"{MAX_WAIT_S * 1e3:g} ms wait, chunked offline loop",
            "scoring": f"score-only SLO of {SLO_COST_MULTIPLE}x mean cost",
        }

    def serve(self, cluster, trace, config):
        return cluster.serve_trace(trace, config=config)

    def setup(self, seed: int) -> ServeState:
        template = build_services()["DynPre"]
        capacity = _capacity_rps(template, seed, self.probe_requests)
        trace = OpenLoopArrivals(_mix(), rate_rps=self.load * capacity, seed=seed).trace(
            self.requests
        )
        slo = SLOPolicy(default_slo_seconds=SLO_COST_MULTIPLE * _mean_cost(template))
        state = ServeState(
            template=template,
            scheduler=BatchScheduler(max_batch_size=MAX_BATCH, max_wait_seconds=MAX_WAIT_S),
            trace=trace,
            capacity_rps=capacity,
            config=lambda: ServingConfig(slo=slo),
        )
        self.warm_up(state)
        return state


#: (tenant, excess weight, guaranteed share of capacity)
TENANTS = (("gold", 3.0, 0.25), ("silver", 2.0, 0.0), ("bronze", 1.0, 0.0))


class ServeOnlineCtl(_Serving):
    name = "serve-online-ctl"
    why = (
        "bursty 3-tenant online serving with admission, degradation, quotas, "
        "fair batching, drain autoscaling and random faults: every control layer runs"
    )

    def __init__(self, requests=6000, peak=1.2, base=0.3, period_s=2.0,
                 burst_fraction=0.15, probe_requests=5000):
        self.requests, self.peak, self.base = requests, peak, base
        self.period_s, self.burst_fraction = period_s, burst_fraction
        self.probe_requests = probe_requests
        self.loop = (
            f"closed host loop; simulated open-loop bursty arrivals peaking at {peak}x "
            "the measured saturated throughput, per-event online loop"
        )

    def params(self) -> Dict[str, object]:
        return {
            "trace": f"{self.requests} requests from gold/silver/bronze, BurstyArrivals "
                     f"(period {self.period_s} s, bursts {self.burst_fraction:.0%}, staggered), "
                     f"merged; aggregate base {self.base}x and peak {self.peak}x capacity",
            "cluster": f"DynPre x{NUM_SHARDS}, least-loaded, weighted-fair batches <= "
                       f"{MAX_BATCH}, {MAX_WAIT_S * 1e3:g} ms wait",
            "control": f"batch-aware admission at {SLO_COST_MULTIPLE}x mean cost, "
                       "DegradationPolicy(), gold guaranteed 0.25x capacity, "
                       "Autoscaler(2..4 shards, drain=True)",
            "faults": "RandomFaults over the trace span: mean uptime 1/2 span, downtime "
                      "1/40 span, 30% slowdowns x2, retry budget 2",
        }

    def serve(self, cluster, trace, config):
        return cluster.serve_online(TraceArrivals(trace), config=config)

    def _trace(self, capacity: float, seed: int) -> RequestTrace:
        share = 1.0 / len(TENANTS)
        streams = []
        for i, (tenant, _, _) in enumerate(TENANTS):
            base = self.base * capacity * share
            # One tenant bursts at a time (staggered phases), so the
            # aggregate peaks at its peak plus the others' base rates.
            peak = self.peak * capacity - self.base * capacity * (1.0 - share)
            streams.append(
                BurstyArrivals(
                    _mix(), base_rate_rps=base, peak_rate_rps=peak,
                    period_seconds=self.period_s, burst_fraction=self.burst_fraction,
                    phase_seconds=i * self.period_s / len(TENANTS), tenant=tenant,
                    seed=seed * len(TENANTS) + i,
                ).trace(self.requests // len(TENANTS))
            )
        return merge_traces(streams)

    def setup(self, seed: int) -> ServeState:
        template = build_services()["DynPre"]
        capacity = _capacity_rps(template, seed, self.probe_requests)
        trace = self._trace(capacity, seed)
        span = trace.duration_seconds
        faults = RandomFaults(
            num_shards=NUM_SHARDS, horizon_seconds=span,
            mean_uptime_seconds=span / 2, mean_downtime_seconds=span / 40,
            slowdown_probability=0.3, slowdown_factor=2.0,
            retry_budget=2, retry_backoff_seconds=0.01, seed=seed,
        ).schedule()
        slo = SLOPolicy(
            default_slo_seconds=SLO_COST_MULTIPLE * _mean_cost(template),
            per_tenant={
                tenant: TenantQuota(guaranteed_rps=guarantee * capacity, weight=weight)
                for tenant, weight, guarantee in TENANTS
            },
        )
        degradation = DegradationPolicy()

        def config() -> ServingConfig:
            return ServingConfig(
                slo=slo, admit=True, batch_aware=True, degradation=degradation,
                record_decisions=False, faults=faults,
                autoscaler=Autoscaler(min_shards=2, max_shards=NUM_SHARDS, drain=True),
            )

        state = ServeState(
            template=template,
            scheduler=BatchScheduler(
                max_batch_size=MAX_BATCH, max_wait_seconds=MAX_WAIT_S,
                tenant_weights={tenant: weight for tenant, weight, _ in TENANTS},
            ),
            trace=trace,
            capacity_rps=capacity,
            config=config,
        )
        self.warm_up(state)
        return state


WORKLOADS = {w.name: w for w in (PreDynamic, PreSample, ServeOffline, ServeOnlineCtl)}


def tiny(name: str):
    """A seconds-scale instance of workload ``name`` for the benchmark's tests."""
    return {
        "pre-dynamic": lambda: PreDynamic(nodes=2000, edges=10_000, cycle=4, batch_size=64),
        "pre-sample": lambda: PreSample(scale=0.002, batch_size=64, k=5, hops=2),
        "serve-offline": lambda: ServeOffline(requests=600, probe_requests=300),
        "serve-online-ctl": lambda: ServeOnlineCtl(requests=300, probe_requests=300),
    }[name]()
