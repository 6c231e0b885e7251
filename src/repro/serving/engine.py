"""Serving engines: two serving loops over two shard lanes.

:class:`~repro.serving.cluster.ShardedServiceCluster` serves traffic through
the loops in this module, each written once for both engines:

* :func:`serve_online` — the event loop: drain commits, fault events,
  batch deadlines, retries and arrivals interleave in simulated-time order
  (in that precedence at ties), dispatch goes through the shared
  :class:`~repro.serving.faults.FaultRuntime` under a fault schedule, and
  the control plane — autoscaling and admission — hooks into every
  arrival.  Offline replay (:func:`serve_trace`) runs through this loop
  over :class:`~repro.serving.requests.TraceArrivals` with no control
  plane attached whenever the chunked loop cannot take it: the reference
  engine, a fault schedule or fair-mode batching.
* :func:`_serve_trace_chunked` — the fast engine's array-native offline
  replay: with no fault schedule and no fair-mode batching the whole batch
  plan is known up front, so only the dispatch decisions run per batch.

A *shard lane* owns the three things the engines differ in, plus the
per-run shard state both keep (busy horizons, utilisation, served records):

* **dispatch index** — :class:`PlainLane` (``engine="reference"``) scans
  the busy list with ``ShardedServiceCluster._pick_shard``;
  :class:`IndexedLane` (``engine="fast"``, the default) pops a
  :class:`ShardHeap` with lazy staleness.
* **pricing** — the plain lane calls ``GNNService.serve`` for every batch;
  the indexed lane replays cached serve transitions (a batch's report is a
  pure function of the shard's preprocessing state and the merged workload,
  see :func:`_cached_serve`) and memoizes merged workloads.
* **accounting** — both keep the ``ServedRequest`` list; the indexed lane
  also folds every served request into streaming aggregates
  (:class:`_RunAccumulator`), so its reports can
  :meth:`~repro.serving.cluster.ClusterReport.compact` away the records.

The lane also implements :class:`~repro.serving.faults.FaultLoopHooks`,
the interface the fault runtime and the drain planner use.  The plain lane
is the oracle the indexed lane is tested against: the golden and
equivalence suites assert byte-identical ``ClusterReport.as_dict()``
output.  That holds because the heap pick returns what the linear scan
would, a cached transition replays exactly the report and end state a
fresh pass produces, and every float that lands in a report goes through
the same expression in the same order (the golden suite compares rendered
JSON bytes).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import LatencyStats, StreamingLatencyStats, TenantStats
from repro.serving.cluster import (
    ENGINE_FAST,
    POLICY_LEAST_LOADED,
    POLICY_LOCALITY,
    POLICY_ROUND_ROBIN,
    ClusterReport,
    ReportAggregates,
    ServedRequest,
    ShedRecord,
    _home_shard,
)
from repro.serving.faults import DrainPlanner, FaultSchedule, due
from repro.serving.requests import InferenceRequest, RequestTrace, TraceArrivals
from repro.serving.scheduler import RequestBatch
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

if TYPE_CHECKING:
    from repro.serving.cluster import ShardedServiceCluster
    from repro.serving.control import (
        AdmissionController,
        AdmissionDecision,
        Autoscaler,
        SLOPolicy,
    )
    from repro.system.service import GNNService, ServiceReport


class ShardHeap:
    """Keyed priority structure over shard busy horizons.

    ``busy`` is the authoritative per-shard busy-until list (shared with the
    report's utilisation accounting); the heap holds ``(busy_until, shard)``
    entries with lazy invalidation — an entry is stale when it no longer
    matches ``busy``.  Staleness is a *value* comparison, not a
    monotonicity assumption: horizons normally only grow, but a voluntary
    drain lowers a leaving shard's horizon back to its in-flight floor,
    which simply revalidates (or duplicates) an earlier entry — every
    shard always has one entry matching its current value, so :meth:`pick`
    stays correct.  :meth:`pick` returns the shard the plain lane's scan
    ``min(active, key=lambda i: (busy_until[i], i))`` would return: the heap
    order ``(busy, shard_id)`` is exactly that tie-break.

    Entries for shards outside the active prefix (autoscaler drained or
    scaled down mid-run) are momentarily set aside during a pick and
    reinserted, so a pick can never land on a deactivated shard and a
    later scale-up still sees its horizon.
    """

    __slots__ = ("busy", "_heap")

    def __init__(self, num_shards: int) -> None:
        self.busy = [0.0] * num_shards
        self._heap: List[Tuple[float, int]] = [(0.0, i) for i in range(num_shards)]

    def update(self, shard_id: int, busy_until: float) -> None:
        """Raise one shard's busy horizon."""
        self.busy[shard_id] = busy_until
        heapq.heappush(self._heap, (busy_until, shard_id))

    def pick(self, active_count: int) -> int:
        """Earliest-free shard among the active prefix ``[0, active_count)``."""
        heap = self._heap
        deferred: List[Tuple[float, int]] = []
        while True:
            busy_until, shard_id = heap[0]
            if busy_until != self.busy[shard_id]:
                heapq.heappop(heap)
                continue
            if shard_id >= active_count:
                deferred.append(heapq.heappop(heap))
                continue
            break
        for entry in deferred:
            heapq.heappush(heap, entry)
        return shard_id

    def min_busy(self, active_count: int) -> float:
        """Smallest busy horizon among the active prefix."""
        return self.busy[self.pick(active_count)]


class _RunAccumulator:
    """Streaming per-request aggregates of one indexed-lane run.

    Accumulation order matches the report properties' re-derivation exactly
    (served order, left-fold sums) — per tenant too — which is what makes
    the resulting :class:`~repro.serving.cluster.ReportAggregates`
    bit-identical to re-deriving the values from the per-request records.
    """

    __slots__ = (
        "latency",
        "batching_sum",
        "dispatch_sum",
        "service_sum",
        "slo_met",
        "slo",
        "served_degraded",
        "slo_met_degraded",
        "tenant_latency",
        "tenant_served",
        "tenant_slo_met",
        "tenant_shed",
        "tenant_degraded",
        "tenant_slo_met_degraded",
    )

    def __init__(self, slo: Optional["SLOPolicy"]) -> None:
        self.latency = StreamingLatencyStats()
        self.batching_sum = 0.0
        self.dispatch_sum = 0.0
        self.service_sum = 0.0
        self.slo_met = 0
        self.slo = slo
        self.served_degraded = 0
        self.slo_met_degraded = 0
        self.tenant_latency: Dict[str, StreamingLatencyStats] = {}
        self.tenant_served: Dict[str, int] = {}
        self.tenant_slo_met: Dict[str, int] = {}
        self.tenant_shed: Dict[str, int] = {}
        self.tenant_degraded: Dict[str, int] = {}
        self.tenant_slo_met_degraded: Dict[str, int] = {}

    def push(
        self,
        request: InferenceRequest,
        batching_delay: float,
        dispatch_delay: float,
        service_seconds: float,
    ) -> None:
        sojourn = batching_delay + dispatch_delay + service_seconds
        self.latency.push(sojourn)
        self.batching_sum += batching_delay
        self.dispatch_sum += dispatch_delay
        self.service_sum += service_seconds
        tenant = request.tenant
        degraded = request.workload.quality == QUALITY_DEGRADED
        per_tenant = self.tenant_latency.get(tenant)
        if per_tenant is None:
            per_tenant = StreamingLatencyStats()
            self.tenant_latency[tenant] = per_tenant
        per_tenant.push(sojourn)
        self.tenant_served[tenant] = self.tenant_served.get(tenant, 0) + 1
        if degraded:
            self.served_degraded += 1
            self.tenant_degraded[tenant] = self.tenant_degraded.get(tenant, 0) + 1
        if self.slo is None or sojourn <= self.slo.slo_for(request.workload, tenant):
            if self.slo is not None:
                self.slo_met += 1
                if degraded:
                    self.slo_met_degraded += 1
            self.tenant_slo_met[tenant] = self.tenant_slo_met.get(tenant, 0) + 1
            if degraded:
                self.tenant_slo_met_degraded[tenant] = (
                    self.tenant_slo_met_degraded.get(tenant, 0) + 1
                )

    def push_shed(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        self.tenant_shed[tenant] = self.tenant_shed.get(tenant, 0) + 1

    def aggregates(self, count: int, shed_count: int):
        tenants = {}
        for tenant in sorted(set(self.tenant_served) | set(self.tenant_shed)):
            served = self.tenant_served.get(tenant, 0)
            shed = self.tenant_shed.get(tenant, 0)
            latency = self.tenant_latency.get(tenant)
            tenants[tenant] = TenantStats(
                tenant=tenant,
                offered=served + shed,
                served=served,
                shed=shed,
                slo_met=self.tenant_slo_met.get(tenant, 0),
                latency=latency.stats() if latency is not None else LatencyStats(),
                served_degraded=self.tenant_degraded.get(tenant, 0),
                slo_met_degraded=self.tenant_slo_met_degraded.get(tenant, 0),
            )
        return ReportAggregates(
            count=count,
            shed_count=shed_count,
            latency=self.latency.stats(),
            batching_sum=self.batching_sum,
            dispatch_sum=self.dispatch_sum,
            service_sum=self.service_sum,
            slo_met=self.slo_met if self.slo is not None else count,
            tenants=tenants,
            served_degraded=self.served_degraded,
            slo_met_degraded=(
                self.slo_met_degraded if self.slo is not None else self.served_degraded
            ),
        )


def _cached_serve(
    cluster: "ShardedServiceCluster", shard: "GNNService", workload: WorkloadProfile
) -> Tuple["ServiceReport", float]:
    """Serve ``workload`` on ``shard`` through the serve-transition cache.

    A hit replays the memoized ``(report, duration, end state)`` transition:
    the report object is shared (it is immutable in practice and compares by
    value), and ``apply_state`` moves the shard to the exact state a fresh
    pass would have left — including the reconfiguration event log, which
    the controller re-derives from the (old, new) configuration pair.
    """
    state = shard.preprocessing.state_key()
    key = (state, workload)
    hit = cluster._serve_cache.get(key)
    if hit is not None:
        report, duration, snapshot = hit
        shard.preprocessing.apply_state(snapshot)
        return report, duration
    report = shard.serve(workload)
    duration = report.total_seconds
    cluster._serve_cache[key] = (report, duration, shard.preprocessing.snapshot_state())
    return report, duration


def _merged_workload(
    batch: RequestBatch, merged_cache: Dict[tuple, WorkloadProfile]
) -> WorkloadProfile:
    """The batch's merged workload, memoized on (base profile, summed size).

    The merge itself is delegated to ``RequestBatch.workload`` — the same
    property the plain lane evaluates — so the two engines cannot drift
    if the merge formula ever changes; this wrapper only avoids re-running
    it for every batch of an identical composition.
    """
    base = batch.requests[0].workload
    total = sum(request.workload.batch_size for request in batch.requests)
    key = (base, total)
    workload = merged_cache.get(key)
    if workload is None:
        workload = batch.workload
        merged_cache[key] = workload
    return workload


def _pick_shard(
    cluster: "ShardedServiceCluster",
    heap: ShardHeap,
    batch: RequestBatch,
    workload: WorkloadProfile,
    active_count: int,
) -> int:
    """Replicates ``ShardedServiceCluster._pick_shard`` on the shard heap."""
    if cluster._order is not None:
        # Domain-aware placement: the active set is an activation-order
        # slice, not the index prefix the heap shortcuts assume.  Delegate
        # to the cluster's picker over the heap's authoritative busy list —
        # the same call the fault path makes — so both lanes pick
        # identically under any topology.
        return cluster._pick_shard(batch, heap.busy, cluster._order[:active_count])
    if cluster.policy == POLICY_ROUND_ROBIN:
        shard_id = cluster._rr_next % active_count
        cluster._rr_next += 1
        return shard_id
    if cluster.policy == POLICY_LOCALITY:
        busy = heap.busy
        configured = [
            i
            for i in range(active_count)
            if cluster.shards[i].configured_for(workload)
        ]
        if configured:
            preferred = min(configured, key=lambda i: (busy[i], i))
        else:
            preferred = _home_shard(batch, active_count)
            if cluster.rebalance_seconds is not None:
                # Stale-state re-homing is written once, on the cluster;
                # the heap's busy list is the authoritative horizon view.
                preferred = cluster._rebalance(
                    batch, busy, range(active_count), preferred
                )
        backlog = busy[preferred] - batch.ready_seconds
        if backlog <= cluster.locality_spill_seconds:
            chosen = preferred
        else:
            chosen = heap.pick(active_count)
        if cluster.rebalance_seconds is not None:
            cluster._shard_key[chosen] = (batch.key, batch.ready_seconds)
        return chosen
    return heap.pick(active_count)


def _admission_estimate(
    template: "GNNService",
    request: InferenceRequest,
    admission: "AdmissionController",
    open_members: Optional[List[InferenceRequest]],
) -> float:
    """Service-time estimate the admission prediction charges ``request``.

    The conservative default prices the request as a standalone pass.  With
    ``admission.batch_aware`` and a compatible batch already forming, the
    request is priced at its *marginal* merged-batch cost — the merged
    pass with the request minus the pass already committed to — which is
    what the batch will actually add to the shard's busy horizon (batched
    preprocessing amortizes the fixed per-pass work).
    """
    estimate = template.estimate_service_seconds(request.workload)
    if admission.batch_aware and open_members:
        base = open_members[0].workload
        merged = sum(member.workload.batch_size for member in open_members)
        forming = template.estimate_service_seconds(base.with_batch_size(merged))
        joined = template.estimate_service_seconds(
            base.with_batch_size(merged + request.workload.batch_size)
        )
        estimate = min(estimate, max(joined - forming, 0.0))
    return estimate


class ShardLeaseTracker:
    """Provisioned shard-seconds accounting for autoscaled online runs.

    A shard's lease opens when it (re)enters the autoscaler's active
    prefix and closes at a scale-down — at ``max(now, busy_until)``, when
    the shard actually goes idle after finishing what it still holds.
    With drain enabled the busy horizon has already dropped back to the
    in-flight floor by then, which is exactly how voluntary drains save
    shard-seconds: the leaving shard is not paid for backlog that migrated
    away.  Leases still open when the run ends close at the run's last
    finish.  Leases never overlap: a reactivation opens no earlier than
    the shard's previous close, so a backlog paid through a scale-down is
    not paid again after a scale-up.
    """

    def __init__(self, num_shards: int) -> None:
        self._opened: List[Optional[float]] = [None] * num_shards
        self._closed_at = [0.0] * num_shards
        self.total = 0.0

    def open(self, shard_id: int, now: float) -> None:
        """Start the shard's lease at ``now`` (no-op when already open)."""
        if self._opened[shard_id] is None:
            self._opened[shard_id] = max(now, self._closed_at[shard_id])

    def close(self, shard_id: int, seconds: float) -> None:
        """End the shard's lease at ``seconds`` (clamped to its open)."""
        opened = self._opened[shard_id]
        if opened is None:
            return
        end = max(seconds, opened)
        self.total += end - opened
        self._closed_at[shard_id] = end
        self._opened[shard_id] = None

    def finish(self, end: float) -> float:
        """Close every open lease at the run's end; returns the total."""
        for shard_id, opened in enumerate(self._opened):
            if opened is not None:
                self.total += max(end, opened) - opened
                self._opened[shard_id] = None
        return self.total


class PlainLane:
    """The reference engine's shard lane: a plain busy list, direct pricing.

    One lane holds one run's shard state.  The loops drive it through
    :meth:`dispatch` (commit-at-dispatch), :meth:`least_backlog`,
    :meth:`record_shed` and :meth:`report`; the fault runtime and the drain
    planner drive it through the
    :class:`~repro.serving.faults.FaultLoopHooks` methods.  The online loop
    sets :attr:`notify_complete` / :attr:`notify_failed` to feed finish
    times and losses back to its arrival source.
    """

    def __init__(self, cluster: "ShardedServiceCluster", slo: Optional["SLOPolicy"]) -> None:
        cluster._reset_dispatch_state()
        num_shards = cluster.num_shards
        self.cluster = cluster
        self.slo = slo
        self.active_count = num_shards
        self.busy_until = [0.0] * num_shards
        self.busy_total = [0.0] * num_shards
        self.shard_requests = [0] * num_shards
        self.served: List[ServedRequest] = []
        self.shed: List[ShedRecord] = []
        self.num_batches = 0
        self.last_finish = 0.0
        #: Streaming aggregates (indexed lane only).
        self.accumulator: Optional[_RunAccumulator] = None
        self.notify_complete: Optional[Callable[[RequestBatch, float], None]] = None
        self.notify_failed: Optional[Callable[[InferenceRequest, float], None]] = None

    # ----------------------------------------------------- FaultLoopHooks
    def active_ids(self) -> Sequence[int]:
        order = self.cluster._order
        if order is not None:
            return order[: self.active_count]
        return range(self.active_count)

    def busy(self, shard_id: int) -> float:
        return self.busy_until[shard_id]

    def set_busy(self, shard_id: int, seconds: float) -> None:
        self.busy_until[shard_id] = seconds

    def add_busy(self, shard_id: int, seconds: float) -> None:
        self.busy_total[shard_id] += seconds

    def merged(self, batch: RequestBatch) -> WorkloadProfile:
        return batch.workload

    def pick(self, batch: RequestBatch, workload: WorkloadProfile, active: Sequence[int]) -> int:
        return self.cluster._pick_shard(batch, self.busy_until, active)

    def serve(self, shard_id: int, workload: WorkloadProfile) -> Tuple["ServiceReport", float]:
        report = self.cluster.shards[shard_id].serve(workload)
        return report, report.total_seconds

    def commit(
        self,
        batch: RequestBatch,
        shard_id: int,
        start: float,
        duration: float,
        report: "ServiceReport",
        finish: float,
    ) -> None:
        members = batch.requests
        ready = batch.ready_seconds
        self.shard_requests[shard_id] += len(members)
        self.num_batches += 1
        self.last_finish = max(self.last_finish, finish)
        batch_size = len(members)
        dispatch_delay = start - ready
        served = self.served
        accumulator = self.accumulator
        for request in members:
            batching_delay = ready - request.arrival_seconds
            served.append(
                ServedRequest(
                    request=request,
                    shard_id=shard_id,
                    batch_size=batch_size,
                    batching_delay=batching_delay,
                    dispatch_delay=dispatch_delay,
                    service_seconds=duration,
                    report=report,
                )
            )
            if accumulator is not None:
                accumulator.push(request, batching_delay, dispatch_delay, duration)
        if self.notify_complete is not None:
            self.notify_complete(batch, finish)

    def on_failed(self, request: InferenceRequest, seconds: float) -> None:
        if self.notify_failed is not None:
            self.notify_failed(request, seconds)

    # ------------------------------------------------------- loop surface
    def pick_active(self, batch: RequestBatch, workload: WorkloadProfile) -> int:
        """Dispatch-policy choice among the active shards."""
        return self.pick(batch, workload, self.active_ids())

    def dispatch(self, batch: RequestBatch) -> None:
        """Fault-free commit-at-dispatch: pick, price, commit."""
        workload = self.merged(batch)
        shard_id = self.pick_active(batch, workload)
        start = max(batch.ready_seconds, self.busy_until[shard_id])
        report, duration = self.serve(shard_id, workload)
        finish = start + duration
        self.set_busy(shard_id, finish)
        self.add_busy(shard_id, duration)
        self.commit(batch, shard_id, start, duration, report, finish)

    def least_backlog(self, now: float, shards: Optional[Sequence[int]] = None) -> float:
        """Smallest remaining backlog among ``shards`` (default: the active set)."""
        if shards is None:
            shards = self.active_ids()
        return min(max(self.busy_until[i] - now, 0.0) for i in shards)

    def record_shed(
        self, request: InferenceRequest, now: float, decision: "AdmissionDecision"
    ) -> None:
        self.shed.append(
            ShedRecord(
                request=request,
                shed_seconds=now,
                predicted_sojourn=decision.predicted_sojourn,
                slo_seconds=decision.slo_seconds,
            )
        )
        if self.accumulator is not None:
            self.accumulator.push_shed(request)

    def report(self, makespan: float, **sections) -> ClusterReport:
        """The run's :class:`ClusterReport`; ``sections`` are the loop's own
        fields (faults, decisions, scaling timeline, shard-seconds)."""
        aggregates = None
        if self.accumulator is not None:
            aggregates = self.accumulator.aggregates(
                count=len(self.served), shed_count=len(self.shed)
            )
        return ClusterReport(
            system=self.cluster.system_name,
            policy=self.cluster.policy,
            num_shards=self.cluster.num_shards,
            served=self.served,
            num_batches=self.num_batches,
            makespan_seconds=makespan,
            shard_busy_seconds=self.busy_total,
            shard_requests=self.shard_requests,
            shed=self.shed,
            slo=self.slo,
            aggregates=aggregates,
            **sections,
        )


class IndexedLane(PlainLane):
    """The fast engine's shard lane: shard heap, cached pricing, streaming
    aggregates.

    ``busy_until`` is the heap's authoritative horizon list, so the hooks
    the lane inherits (``busy``, ``pick``, ``least_backlog`` over explicit
    shards) read the same values the plain lane would hold.
    """

    def __init__(self, cluster: "ShardedServiceCluster", slo: Optional["SLOPolicy"]) -> None:
        super().__init__(cluster, slo)
        self.heap = ShardHeap(cluster.num_shards)
        self.busy_until = self.heap.busy
        self.accumulator = _RunAccumulator(slo)
        self._merged_cache: Dict[tuple, WorkloadProfile] = {}

    def set_busy(self, shard_id: int, seconds: float) -> None:
        self.heap.update(shard_id, seconds)

    def merged(self, batch: RequestBatch) -> WorkloadProfile:
        return _merged_workload(batch, self._merged_cache)

    def serve(self, shard_id: int, workload: WorkloadProfile) -> Tuple["ServiceReport", float]:
        return _cached_serve(self.cluster, self.cluster.shards[shard_id], workload)

    def pick_active(self, batch: RequestBatch, workload: WorkloadProfile) -> int:
        return _pick_shard(self.cluster, self.heap, batch, workload, self.active_count)

    def least_backlog(self, now: float, shards: Optional[Sequence[int]] = None) -> float:
        if shards is not None or self.cluster._order is not None:
            # Not the index prefix the heap covers: the plain reduction
            # (value-identical to the heap's minimum either way).
            return super().least_backlog(now, shards)
        return max(self.heap.min_busy(self.active_count) - now, 0.0)


class _BatchView:
    """Mutable stand-in for :class:`RequestBatch` in the chunked dispatch loop.

    ``_pick_shard`` (both the heap shortcut and the delegated cluster
    picker) reads only ``key``, ``ready_seconds`` and ``workload`` — never
    the member list — so the chunked loop reuses one view object per run
    instead of materializing a ``RequestBatch`` per batch."""

    __slots__ = ("key", "ready_seconds", "workload")


class _ChunkedServedLog:
    """Lazy per-request record list of a chunked run.

    Holds the plan arrays and per-batch dispatch results; the
    ``ServedRequest`` objects (and the request objects they wrap) are built
    only if somebody actually reads the log.  ``as_dict``/``compact`` never
    do — they read the streaming aggregates — so a chunked 1M-request run
    never pays the object materialization unless a caller iterates the
    records.  Materialization order is batch dispatch order with members in
    arrival order: exactly the event loop's append order, with every float
    recomputed by the same scalar expression, so the records compare equal
    to an event-loop run's list."""

    __slots__ = (
        "_trace",
        "_plan",
        "_shard_ids",
        "_starts",
        "_durations",
        "_reports",
        "_records",
    )

    def __init__(self, trace, plan, shard_ids, starts, durations, reports) -> None:
        self._trace = trace
        self._plan = plan
        self._shard_ids = shard_ids
        self._starts = starts
        self._durations = durations
        self._reports = reports
        self._records: Optional[list] = None

    def _materialize(self) -> list:
        if self._records is None:
            requests = self._trace.requests
            plan = self._plan
            positions = plan.member_positions.tolist()
            offsets = plan.batch_offsets.tolist()
            ready_seconds = plan.ready_seconds.tolist()
            shard_ids = self._shard_ids.tolist()
            starts = self._starts.tolist()
            durations = self._durations.tolist()
            reports = self._reports
            records = []
            for b in range(len(ready_seconds)):
                lo, hi = offsets[b], offsets[b + 1]
                ready = ready_seconds[b]
                shard_id = shard_ids[b]
                duration = durations[b]
                report = reports[b]
                batch_size = hi - lo
                dispatch_delay = starts[b] - ready
                for p in positions[lo:hi]:
                    request = requests[p]
                    records.append(
                        ServedRequest(
                            request=request,
                            shard_id=shard_id,
                            batch_size=batch_size,
                            batching_delay=ready - request.arrival_seconds,
                            dispatch_delay=dispatch_delay,
                            service_seconds=duration,
                            report=report,
                        )
                    )
            self._records = records
        return self._records

    def __len__(self) -> int:
        return len(self._plan.member_positions)

    def __bool__(self) -> bool:
        return len(self._plan.member_positions) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other):
        if isinstance(other, _ChunkedServedLog):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        state = "materialized" if self._records is not None else "lazy"
        return f"<_ChunkedServedLog {len(self)} records ({state})>"


def _left_fold_sum(prior: float, values: np.ndarray) -> float:
    """Sequential left-fold sum of ``values`` starting from ``prior``.

    Bit-identical to ``for v in values: prior += v``:
    ``numpy.add.accumulate`` is a sequential fold (unlike ``numpy.sum``'s
    pairwise reduction), so the chunked engine's decomposition sums carry
    the exact rounding trail of the event loop's ``+=`` chain."""
    if values.size == 0:
        return prior
    acc = np.empty(values.size + 1, dtype=np.float64)
    acc[0] = prior
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


def _serve_trace_chunked(
    cluster: "ShardedServiceCluster",
    trace,
    slo: Optional["SLOPolicy"],
):
    """Array-native offline replay: the chunked core of ``serve_trace_fast``.

    Batch formation, per-request accounting and the streaming aggregates all
    operate on NumPy views of the trace's structure-of-arrays form
    (:class:`~repro.serving.scheduler.BatchPlan`); the only per-batch Python
    work left is the dispatch decision itself — shard pick, serve-transition
    cache lookup, busy-horizon update — which is inherently sequential
    because each pick depends on the horizons the previous batch wrote.
    Request objects are never materialized: the returned report carries a
    :class:`_ChunkedServedLog` that builds the per-request records only on
    first access.

    Byte-identity with the event loop is by construction:

    * :meth:`BatchScheduler.schedule_arrays` forms the batches the online
      batcher closes, in the order the event loop dispatches them (the
      batch-plan suite pins this against a sweep of the batcher),
    * every float lands through the same scalar expression shape
      (elementwise ``(batching + dispatch) + service``, broadcast of the
      per-batch ``start - ready``), and
    * sums fold left-to-right from the same initial values
      (:func:`_left_fold_sum`, ``StreamingLatencyStats.extend``).

    Callers gate on eligibility: no fault schedule and no fair-mode
    scheduler (both make the next event state-dependent in ways the plan
    cannot precompute), otherwise ``serve_trace_fast`` replays through the
    event loop.
    """
    cluster._reset_dispatch_state()
    arrays = trace.arrays()
    plan = cluster.scheduler.schedule_arrays(trace)
    num_shards = cluster.num_shards
    heap = ShardHeap(num_shards)
    busy_total = [0.0] * num_shards
    shard_requests = [0] * num_shards
    merged_cache: Dict[tuple, WorkloadProfile] = {}
    last_finish = 0.0

    pool = arrays.workload_pool
    key_of_slot = [workload.batch_key for workload in pool]
    num_batches = plan.num_batches
    offsets = plan.batch_offsets
    counts = np.diff(offsets)
    ready_array = plan.ready_seconds
    # Python scalars for the dispatch loop: ndarray item reads in a tight
    # loop cost ~3x a list index.
    ready_list = ready_array.tolist()
    counts_list = counts.tolist()
    base_slots = plan.base_slot.tolist()
    merged_totals = plan.merged_sizes.tolist()

    shard_ids = np.empty(num_batches, dtype=np.int64)
    starts = np.empty(num_batches, dtype=np.float64)
    durations = np.empty(num_batches, dtype=np.float64)
    reports: List[object] = [None] * num_batches

    # The common dispatch configuration (least-loaded, no topology) is a
    # bare heap pick; hoisting the policy test out of the loop skips the
    # delegating ``_pick_shard`` call per batch.
    simple_pick = cluster._order is None and cluster.policy == POLICY_LEAST_LOADED
    shards = cluster.shards
    busy = heap.busy
    view = _BatchView()
    for b in range(num_batches):
        slot = base_slots[b]
        total = merged_totals[b]
        merged_key = (slot, total)
        workload = merged_cache.get(merged_key)
        if workload is None:
            # Same merge the event loop evaluates through
            # ``RequestBatch.workload``: base profile, member sizes summed.
            workload = pool[slot].with_batch_size(total)
            merged_cache[merged_key] = workload
        ready = ready_list[b]
        if simple_pick:
            shard_id = heap.pick(num_shards)
        else:
            view.key = key_of_slot[slot]
            view.ready_seconds = ready
            view.workload = workload
            shard_id = _pick_shard(cluster, heap, view, workload, num_shards)
        start = max(ready, busy[shard_id])
        report, duration = _cached_serve(cluster, shards[shard_id], workload)
        finish = start + duration
        heap.update(shard_id, finish)
        busy_total[shard_id] += duration
        shard_requests[shard_id] += counts_list[b]
        if finish > last_finish:
            last_finish = finish
        shard_ids[b] = shard_id
        starts[b] = start
        durations[b] = duration
        reports[b] = report

    # ---------------------------------------------- vectorized accounting
    member_positions = plan.member_positions
    total_requests = len(member_positions)
    arrivals = arrays.arrival_seconds
    batch_of = np.repeat(np.arange(num_batches, dtype=np.int64), counts)
    # Same scalar expressions as the event loop, elementwise: the per-batch
    # ``start - ready`` broadcast hands every member the identical double.
    batching = ready_array[batch_of] - arrivals[member_positions]
    dispatch = (starts - ready_array)[batch_of]
    service = durations[batch_of]
    sojourn = batching + dispatch + service

    workload_slots = arrays.workload_index[member_positions]
    tenant_slots = arrays.tenant_index[member_positions]
    tenant_pool = arrays.tenant_pool
    degraded_of_slot = np.asarray(
        [workload.quality == QUALITY_DEGRADED for workload in pool], dtype=bool
    )
    degraded = degraded_of_slot[workload_slots]

    accumulator = _RunAccumulator(slo)
    accumulator.latency.extend(sojourn)
    accumulator.batching_sum = _left_fold_sum(0.0, batching)
    accumulator.dispatch_sum = _left_fold_sum(0.0, dispatch)
    accumulator.service_sum = _left_fold_sum(0.0, service)
    accumulator.served_degraded = int(np.count_nonzero(degraded))
    if slo is not None:
        # ``slo_for`` depends only on the workload's name and the tenant, so
        # one threshold per (workload slot, tenant slot) pair covers every
        # request.
        thresholds = np.empty((len(pool), len(tenant_pool)), dtype=np.float64)
        for slot, workload in enumerate(pool):
            for tenant_slot, tenant in enumerate(tenant_pool):
                thresholds[slot, tenant_slot] = slo.slo_for(workload, tenant)
        met = sojourn <= thresholds[workload_slots, tenant_slots]
        accumulator.slo_met = int(np.count_nonzero(met))
        accumulator.slo_met_degraded = int(np.count_nonzero(met & degraded))
    else:
        # The reference loop counts every request into the per-tenant met
        # tallies when no SLO is set (the global ones stay zero and
        # ``aggregates`` substitutes the counts).
        met = np.ones(total_requests, dtype=bool)
    for tenant_slot, tenant in enumerate(tenant_pool):
        mask = tenant_slots == tenant_slot
        tenant_count = int(np.count_nonzero(mask))
        if tenant_count == 0:
            # A pool entry no surviving request references (merge dedupe
            # keeps it) — the reference accumulator never sees the tenant.
            continue
        stats = StreamingLatencyStats()
        # Boolean masking preserves served order, so the per-tenant fold
        # carries the same rounding trail as the reference per-tenant push.
        stats.extend(sojourn[mask])
        accumulator.tenant_latency[tenant] = stats
        accumulator.tenant_served[tenant] = tenant_count
        accumulator.tenant_slo_met[tenant] = int(np.count_nonzero(met[mask]))
        tenant_degraded = degraded[mask]
        accumulator.tenant_degraded[tenant] = int(np.count_nonzero(tenant_degraded))
        accumulator.tenant_slo_met_degraded[tenant] = int(
            np.count_nonzero(met[mask] & tenant_degraded)
        )

    served = _ChunkedServedLog(trace, plan, shard_ids, starts, durations, reports)
    first_arrival = float(arrivals[0])
    makespan = last_finish - first_arrival if total_requests else 0.0
    return ClusterReport(
        system=cluster.system_name,
        policy=cluster.policy,
        num_shards=num_shards,
        served=served,
        num_batches=num_batches,
        makespan_seconds=makespan,
        shard_busy_seconds=busy_total,
        shard_requests=shard_requests,
        slo=slo,
        aggregates=accumulator.aggregates(count=total_requests, shed_count=0),
        faults=None,
    )


# --------------------------------------------------------------------- offline
def serve_trace(
    cluster: "ShardedServiceCluster",
    trace: RequestTrace,
    slo: Optional["SLOPolicy"],
    faults: Optional[FaultSchedule],
) -> ClusterReport:
    """Offline replay on the cluster's engine (``serve_trace``'s loop)."""
    if cluster.engine == ENGINE_FAST:
        return serve_trace_fast(cluster, trace, slo, faults)
    return serve_online(cluster, TraceArrivals(trace), slo, None, None, faults)


def serve_trace_fast(
    cluster: "ShardedServiceCluster",
    trace: RequestTrace,
    slo: Optional["SLOPolicy"] = None,
    faults: Optional[FaultSchedule] = None,
    chunked: Optional[bool] = None,
) -> ClusterReport:
    """Fast offline replay — the ``engine="fast"`` path of ``serve_trace``.

    ``chunked`` selects the array-native loop (:func:`_serve_trace_chunked`)
    over the event loop; the default ``None`` auto-enables it whenever the
    run is eligible — no fault schedule, no fair-mode scheduler, a non-empty
    trace — and otherwise replays the trace through :func:`serve_online`
    with no control plane attached.  Both paths produce byte-identical
    reports; ``chunked=False`` forces the event loop (the equivalence suite
    and the speed benchmark compare the two)."""
    if chunked is None:
        chunked = faults is None and not cluster.scheduler.fair and len(trace) > 0
    if chunked:
        if faults is not None:
            raise ValueError("chunked replay does not support fault schedules")
        if cluster.scheduler.fair:
            raise ValueError("chunked replay does not support fair-mode batching")
        return _serve_trace_chunked(cluster, trace, slo)
    return serve_online(cluster, TraceArrivals(trace), slo, None, None, faults)


# ------------------------------------------------------------------ event loop
def serve_online(
    cluster: "ShardedServiceCluster",
    source,
    slo: Optional["SLOPolicy"],
    admission: Optional["AdmissionController"],
    autoscaler: Optional["Autoscaler"],
    faults: Optional[FaultSchedule],
) -> ClusterReport:
    """The event loop of ``serve_online`` — and of every offline replay the
    chunked loop cannot take — on the cluster's engine.

    Batches form through the scheduler's online batcher (FIFO deadline
    heap or weighted-fair), the autoscaler's queue depth is a running
    count, and dispatch goes through the fault runtime under a fault
    schedule, through the drain planner under a draining autoscaler, and
    straight to the lane otherwise.
    """
    lane_type = IndexedLane if cluster.engine == ENGINE_FAST else PlainLane
    lane = lane_type(cluster, slo)
    num_shards = cluster.num_shards
    order = cluster._order
    batcher = cluster.scheduler.online_batcher()
    inflight: List[float] = []
    decisions: List["AdmissionDecision"] = []
    # Estimated cost of requests admitted but not yet dispatched, so a
    # same-instant arrival burst cannot all be admitted against the same
    # (still-empty) shard backlog.
    pending_estimates: Dict[int, float] = {}
    # Arrival times of recent sheds: demand the autoscaler must still see.
    recent_sheds: deque = deque()
    start_seconds = 0.0
    if autoscaler is not None:
        first_peek = source.peek_time()
        start_seconds = first_peek if first_peek is not None else 0.0
        lane.active_count = autoscaler.start(start_seconds)
    if admission is not None:
        admission.reset()
    first_arrival: Optional[float] = None
    # Guaranteed-tier tenants whose open-queue pressure a tenant-aware
    # autoscaler watches separately from the global depth.
    guaranteed_tenants: Optional[frozenset] = None
    if autoscaler is not None and autoscaler.tenant_aware and slo is not None:
        guaranteed_tenants = frozenset(
            tenant
            for tenant, quota in slo.per_tenant.items()
            if quota.guaranteed_rps > 0
        )
    guaranteed_open = 0
    ctx = (
        faults.runtime(num_shards, slo, order=order, topology=cluster.topology)
        if faults is not None
        else None
    )
    planner = (
        DrainPlanner(num_shards)
        if autoscaler is not None and autoscaler.drain
        else None
    )
    if ctx is not None and planner is not None:
        ctx.attach_planner(planner)

    def shard_slice(lo: int, hi: int) -> Sequence[int]:
        """Shards at activation positions ``[lo, hi)``."""
        return order[lo:hi] if order is not None else range(lo, hi)

    leases: Optional[ShardLeaseTracker] = None
    if autoscaler is not None:
        leases = ShardLeaseTracker(num_shards)
        for shard_id in lane.active_ids():
            leases.open(shard_id, start_seconds)

    def on_complete(batch: RequestBatch, finish: float) -> None:
        for request in batch.requests:
            pending_estimates.pop(request.request_id, None)
            heapq.heappush(inflight, finish)
            source.on_complete(request, finish)

    def on_failed(request: InferenceRequest, seconds: float) -> None:
        pending_estimates.pop(request.request_id, None)
        source.on_shed(request, seconds)

    lane.notify_complete = on_complete
    lane.notify_failed = on_failed
    if planner is not None:

        def on_planned(batch: RequestBatch) -> None:
            # Admitted estimates clear at plan time, not commit time: the
            # planned work is already priced into the busy horizon the
            # admission backlog reads.
            for request in batch.requests:
                pending_estimates.pop(request.request_id, None)

        planner.on_planned = on_planned

    def dispatch(batch: RequestBatch) -> None:
        nonlocal guaranteed_open
        if guaranteed_tenants:
            for request in batch.requests:
                if request.tenant in guaranteed_tenants:
                    guaranteed_open -= 1
        if ctx is not None:
            ctx.dispatch(batch, lane)
        elif planner is not None:
            planner.dispatch(batch, lane)
        else:
            lane.dispatch(batch)

    def enqueue(request: InferenceRequest, now: float) -> None:
        nonlocal guaranteed_open
        if guaranteed_tenants and request.tenant in guaranteed_tenants:
            guaranteed_open += 1
        for batch in batcher.add(request, now):
            dispatch(batch)

    while True:
        t_arrival = source.peek_time()
        expiring = batcher.peek_deadline()
        t_deadline = expiring[0] if expiring is not None else None
        t_fault = ctx.next_fault_time() if ctx is not None else None
        t_retry = ctx.next_retry_time() if ctx is not None else None
        t_commit = planner.next_commit_time() if planner is not None else None
        # Event precedence at timestamp ties: commit < fault < deadline <
        # retry < arrival.  Commits fire first so work whose service has
        # begun is in flight — and immovable — before any same-instant
        # scale decision or fault consults the plan.
        if due(t_commit, t_fault, t_deadline, t_retry, t_arrival):
            planner.commit_next(lane)
            continue
        if due(t_fault, t_deadline, t_retry, t_arrival):
            ctx.advance(lane, t_fault)
            continue
        if due(t_deadline, t_retry, t_arrival):
            for batch in batcher.fire_deadline(expiring):
                dispatch(batch)
            continue
        if due(t_retry, t_arrival):
            retry_request, retry_now = ctx.pop_retry()
            enqueue(retry_request, retry_now)
            continue
        if t_arrival is None:
            break
        request = source.pop()
        now = request.arrival_seconds
        if first_arrival is None:
            first_arrival = now
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        if autoscaler is not None:
            while recent_sheds and recent_sheds[0] < now - autoscaler.shed_memory_seconds:
                recent_sheds.popleft()
            # The arriving request, open batches, in-flight work and recent
            # sheds (shed demand still signals overload).
            queue_depth = 1 + len(inflight) + batcher.pending_count + len(recent_sheds)
            if ctx is not None:
                # Work the fault layer is holding (retries, parked batches)
                # is still demand the autoscaler must see.
                queue_depth += ctx.backlog_count()
            if planner is not None:
                # Planned-but-uncommitted dispatches are queued work too;
                # commit-at-dispatch counted them via inflight.
                queue_depth += planner.planned
            previous = lane.active_count
            if guaranteed_tenants is not None:
                guaranteed_depth = guaranteed_open + (
                    1 if request.tenant in guaranteed_tenants else 0
                )
                active_count = autoscaler.observe(
                    now, queue_depth, guaranteed_depth=guaranteed_depth
                )
            else:
                active_count = autoscaler.observe(now, queue_depth)
            lane.active_count = active_count
            for shard_id in shard_slice(previous, active_count):
                # A joining shard pays its warm-up (bitstream load) before
                # it can start a batch.
                warmup = autoscaler.warmup_seconds
                if warmup is None:
                    warmup = cluster.shards[shard_id].warmup_seconds
                lane.set_busy(shard_id, max(lane.busy_until[shard_id], now + warmup))
                leases.open(shard_id, now)
            if ctx is not None and active_count > previous:
                ctx.flush(lane)
            if active_count < previous:
                if planner is not None:
                    if ctx is not None:
                        # Leaving = dispatchable before minus dispatchable
                        # after, so standby substitution under faults is
                        # honoured (a dead prefix shard drains nothing).
                        surviving = set(ctx.active_alive(active_count))
                        leaving = [
                            shard_id
                            for shard_id in ctx.active_alive(previous)
                            if shard_id not in surviving
                        ]
                    else:
                        leaving = list(shard_slice(active_count, previous))
                    drained, completed = planner.drain(leaving, now, lane)
                    migrated = 0
                    for stranded in drained:
                        migrated += len(stranded.requests)
                        rebatch = RequestBatch(
                            requests=stranded.requests, ready_seconds=now
                        )
                        if ctx is not None:
                            ctx.dispatch(rebatch, lane)
                        else:
                            planner.dispatch(rebatch, lane)
                    autoscaler.record_drain(migrated, completed)
                # Leases close after the drain so a drained shard is
                # billed to its lowered (post-migration) horizon.
                for shard_id in shard_slice(active_count, previous):
                    leases.close(shard_id, max(now, lane.busy_until[shard_id]))
        if admission is not None:
            # Backlog of the least-loaded active shard plus the admitted but
            # undispatched work spread across the active shards.  The
            # pending sum is re-reduced (not maintained incrementally) so
            # its float accumulation order never depends on history.
            if ctx is None:
                backlog = lane.least_backlog(now) + sum(
                    pending_estimates.values()
                ) / lane.active_count
            else:
                # Only live shards can absorb work; with none, the
                # prediction is unbounded and only guaranteed-tier traffic
                # gets through (to queue until recovery).
                alive = ctx.active_alive(lane.active_count)
                if alive:
                    backlog = lane.least_backlog(now, alive) + sum(
                        pending_estimates.values()
                    ) / len(alive)
                else:
                    backlog = float("inf")
            # A request the fair batcher would spill pays a full standalone
            # pass, not the marginal increment of a batch it will not join.
            key = request.workload.batch_key
            joinable = (
                batcher.open_members(key)
                if batcher.can_join(key, request.tenant)
                else None
            )
            estimate = _admission_estimate(cluster.template, request, admission, joinable)
            # Degraded-quality tier: price the request's cheaper profile
            # against *its own* open batch (degraded requests batch under
            # their own key) so the controller can admit it degraded when
            # the full-quality prediction violates the SLO.
            degraded_workload = admission.degraded_profile(
                request.workload, request.tenant
            )
            degraded_estimate = None
            degraded_request = None
            if degraded_workload is not None:
                degraded_key = degraded_workload.batch_key
                degraded_joinable = (
                    batcher.open_members(degraded_key)
                    if batcher.can_join(degraded_key, request.tenant)
                    else None
                )
                degraded_request = replace(request, workload=degraded_workload)
                degraded_estimate = _admission_estimate(
                    cluster.template, degraded_request, admission, degraded_joinable
                )
            decision = admission.decide(
                request, now, backlog, estimate, degraded_estimate
            )
            if admission.record_decisions:
                decisions.append(decision)
            if not decision.admitted:
                lane.record_shed(request, now, decision)
                recent_sheds.append(now)
                source.on_shed(request, now)
                continue
            if decision.degraded:
                request = degraded_request
                estimate = degraded_estimate
            pending_estimates[request.request_id] = estimate
        enqueue(request, now)

    fault_stats = (
        ctx.finalize(first_arrival, lane.last_finish) if ctx is not None else None
    )
    shard_seconds = leases.finish(lane.last_finish) if leases is not None else None
    makespan = 0.0
    if lane.served and first_arrival is not None:
        makespan = lane.last_finish - first_arrival
    return lane.report(
        makespan,
        decisions=decisions,
        scaling_timeline=list(autoscaler.timeline()) if autoscaler is not None else [],
        faults=fault_stats,
        shard_seconds=shard_seconds,
    )
