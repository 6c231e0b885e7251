"""Sharded service cluster: fan batched requests out over service replicas.

A :class:`ShardedServiceCluster` replicates one template
:class:`~repro.system.service.GNNService` into ``num_shards`` independent
shards (each with its own preprocessing-system state — bitstream/LUT
configuration, reconfiguration history — via ``GNNService.replicate``) and
serves traffic in one of two modes (the event loops themselves live in
:mod:`repro.serving.engine`):

* :meth:`ShardedServiceCluster.serve_trace` — offline replay of a complete
  :class:`~repro.serving.requests.RequestTrace`: batched up front by the
  :class:`~repro.serving.scheduler.BatchScheduler` plan when the fast
  engine's chunked loop can take it, otherwise replayed through the online
  event loop with no control plane attached; either way the batches are
  dispatched in the order they close.
* :meth:`ShardedServiceCluster.serve_online` — online co-simulation: an
  arrival *source* (:class:`~repro.serving.requests.TraceArrivals` or the
  closed-loop :class:`~repro.serving.requests.ClosedLoopClients`) is drained
  event by event, batches form incrementally under the same size-or-timeout
  policy, and the control plane (admission control, autoscaling — see
  :mod:`repro.serving.control`) hooks into every arrival.  Completion times
  are fed back to the source, which is what closes the loop for co-simulated
  client populations.

The per-request sojourn time decomposes exactly as::

    sojourn = batching_delay + dispatch_delay + service_seconds

where *batching* is the wait for the batch to close, *dispatch* is the wait
for the chosen shard to drain its backlog, and *service* is the batch's
end-to-end service latency on that shard.  The merged
:class:`ClusterReport` aggregates throughput, latency percentiles, the
queueing-delay decomposition, per-shard utilisation and — for controlled
runs — the goodput / shed-rate accounting and the scaling timeline.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analysis.metrics import GoodputStats, LatencyStats, TenantStats

if TYPE_CHECKING:  # control.py only imports repro.system.workload — no cycle,
    # but the runtime layering (control/config on top of cluster) is kept
    # one-way.
    from repro.serving.config import ServingConfig
    from repro.serving.control import (
        AdmissionDecision,
        DegradationPolicy,
        ScalingEvent,
        SLOPolicy,
    )
from repro.serving.faults import FaultStats
from repro.serving.requests import InferenceRequest, RequestTrace
from repro.serving.scheduler import BatchScheduler, RequestBatch
from repro.serving.topology import PLACEMENT_SPREAD, PLACEMENTS, ClusterTopology
from repro.system.service import GNNService, ServiceReport, build_services
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

#: Dispatch policies: cycle shards, pick the earliest-free shard, or prefer
#: shards whose reconfigurable state already suits the batch (falling back to
#: a stable home shard by workload-key hash, and spilling to the earliest-free
#: shard when the preferred shard's backlog exceeds the spill threshold).
POLICY_ROUND_ROBIN = "round-robin"
POLICY_LEAST_LOADED = "least-loaded"
POLICY_LOCALITY = "locality"
DISPATCH_POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED, POLICY_LOCALITY)

#: Serving engines: the same event loops (:mod:`repro.serving.engine`) over
#: the plain reference shard lane or the indexed/caching fast lane.  Both
#: produce byte-identical :class:`ClusterReport` content (golden- and
#: property-test enforced); the fast engine is the default because it is the
#: one that reaches 100k-request traces at interactive speed.
ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)


@dataclass
class ServedRequest:
    """One request's journey through the cluster.

    Attributes:
        request: the original timestamped request.
        shard_id: the shard that served the request's batch.
        batch_size: number of requests sharing the batch.
        batching_delay: wait for the batch to close (seconds).
        dispatch_delay: wait for the shard to become free (seconds).
        service_seconds: end-to-end service latency of the batch.
        report: the batch's full :class:`ServiceReport` on the shard.
    """

    request: InferenceRequest
    shard_id: int
    batch_size: int
    batching_delay: float
    dispatch_delay: float
    service_seconds: float
    report: ServiceReport

    @property
    def sojourn_seconds(self) -> float:
        """Arrival-to-completion latency of the request."""
        return self.batching_delay + self.dispatch_delay + self.service_seconds

    @property
    def finish_seconds(self) -> float:
        """Simulated completion time of the request."""
        return self.request.arrival_seconds + self.sojourn_seconds


@dataclass
class ShedRecord:
    """One request the admission controller rejected at arrival.

    Attributes:
        request: the rejected request.
        shed_seconds: simulated time of the rejection (the arrival instant).
        predicted_sojourn: the sojourn prediction that caused the rejection.
        slo_seconds: the SLO the prediction was compared against.
    """

    request: InferenceRequest
    shed_seconds: float
    predicted_sojourn: float
    slo_seconds: float


@dataclass
class ReportAggregates:
    """Streaming-accumulated aggregates of one serving run.

    The fast engine folds every served request into these totals as it
    dispatches (see :class:`~repro.analysis.metrics.StreamingLatencyStats`),
    in the exact accumulation order the reference report properties use, so
    a :class:`ClusterReport` carrying aggregates renders byte-identically to
    one that re-derives them from the per-request records — and can drop
    those records entirely (:meth:`ClusterReport.compact`) at 100k-request
    scale.

    Attributes:
        count: requests served.
        shed_count: requests rejected at admission.
        latency: exact sojourn-time summary (push order = served order).
        batching_sum: total batching delay over served requests.
        dispatch_sum: total dispatch delay over served requests.
        service_sum: total service time over served requests.
        slo_met: served requests whose sojourn met their SLO (equals
            ``count`` when the run had no SLO).
        tenants: per-tenant accounting, keyed (and sorted) by tenant name.
        served_degraded: served requests executed at the degraded quality
            tier (their workload carries ``quality="degraded"``).
        slo_met_degraded: degraded-tier served requests that met their SLO
            (equals ``served_degraded`` when the run had no SLO).
    """

    count: int
    shed_count: int
    latency: LatencyStats
    batching_sum: float
    dispatch_sum: float
    service_sum: float
    slo_met: int
    tenants: Optional[Dict[str, TenantStats]] = None
    served_degraded: int = 0
    slo_met_degraded: int = 0


@dataclass
class ClusterReport:
    """Merged outcome of serving one trace on a sharded cluster.

    Attributes:
        system: preprocessing-system label of the shards.
        policy: dispatch policy the run used.
        num_shards: shard count.
        served: per-request serving records, in batch-dispatch order.
        num_batches: batches the scheduler formed.
        makespan_seconds: first arrival to last completion.
        shard_busy_seconds: per-shard total service time.
        shard_requests: per-shard served request counts.
        shed: requests rejected at admission (controlled runs only).
        slo: the SLO policy the run was scored against, or None.
        decisions: admission decisions in arrival order (controlled runs).
        scaling_timeline: autoscaler events of the run.
        aggregates: streaming-accumulated totals (fast engine only); when
            present the summary properties read them instead of re-deriving
            from the per-request records, and :meth:`compact` may drop the
            records.
        faults: fault-injection summary (:class:`FaultStats`) of runs served
            under a :class:`~repro.serving.faults.FaultSchedule`, or None.
            Plain summary data, so it survives :meth:`compact`.
        shard_seconds: provisioned shard-seconds measured by the autoscaled
            online loops' lease tracking (activation to post-backlog idle),
            or None for fixed-capacity runs — see
            :attr:`provisioned_shard_seconds`.
    """

    system: str
    policy: str
    num_shards: int
    served: List[ServedRequest]
    num_batches: int
    makespan_seconds: float
    shard_busy_seconds: List[float]
    shard_requests: List[int]
    shed: List[ShedRecord] = field(default_factory=list)
    slo: Optional["SLOPolicy"] = None
    decisions: List["AdmissionDecision"] = field(default_factory=list)
    scaling_timeline: List["ScalingEvent"] = field(default_factory=list)
    aggregates: Optional[ReportAggregates] = field(default=None, repr=False)
    faults: Optional[FaultStats] = None
    shard_seconds: Optional[float] = None

    # ------------------------------------------------------------ aggregates
    @property
    def num_requests(self) -> int:
        """Requests served."""
        if self.aggregates is not None:
            return self.aggregates.count
        return len(self.served)

    @property
    def num_shed(self) -> int:
        """Requests rejected at admission."""
        if self.aggregates is not None:
            return self.aggregates.shed_count
        return len(self.shed)

    def compact(self) -> "ClusterReport":
        """Drop the per-request records, keeping every summary aggregate.

        Only available on reports that carry :attr:`aggregates` (fast-engine
        runs).  ``as_dict`` and every summary property render identically
        afterwards; per-request accessors (``served``, ``shed``,
        ``decisions``, :meth:`service_reports`) come back empty.  At
        100k-request scale this is the difference between a report and a
        memory hog.  Returns ``self`` for chaining.
        """
        if self.aggregates is None:
            raise ValueError(
                "compact() requires streaming aggregates (fast-engine reports only)"
            )
        self.served = []
        self.shed = []
        self.decisions = []
        return self

    @property
    def num_failed(self) -> int:
        """Admitted requests permanently lost to shard faults."""
        if self.faults is not None:
            return self.faults.failed
        return 0

    @property
    def num_degraded(self) -> int:
        """Served requests executed at the degraded quality tier."""
        if self.aggregates is not None:
            return self.aggregates.served_degraded
        return sum(
            1 for s in self.served if s.request.workload.quality == QUALITY_DEGRADED
        )

    @property
    def num_offered(self) -> int:
        """Requests that reached the front-end (served + shed + failed)."""
        return self.num_requests + self.num_shed + self.num_failed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.num_requests / self.makespan_seconds

    @property
    def goodput(self) -> GoodputStats:
        """Offered/served/shed/SLO-met accounting of the run.

        Without an SLO every served request counts as good, so
        ``goodput_rps == throughput_rps``; with one, only served requests
        whose sojourn met their objective count.
        """
        if self.slo is None:
            slo_met = self.num_requests
            slo_met_degraded = self.num_degraded
        elif self.aggregates is not None:
            slo_met = self.aggregates.slo_met
            slo_met_degraded = self.aggregates.slo_met_degraded
        else:
            slo_met = sum(
                1
                for s in self.served
                if s.sojourn_seconds
                <= self.slo.slo_for(s.request.workload, s.request.tenant)
            )
            slo_met_degraded = sum(
                1
                for s in self.served
                if s.request.workload.quality == QUALITY_DEGRADED
                and s.sojourn_seconds
                <= self.slo.slo_for(s.request.workload, s.request.tenant)
            )
        return GoodputStats(
            offered=self.num_offered,
            served=self.num_requests,
            shed=self.num_shed,
            slo_met=slo_met,
            makespan_seconds=self.makespan_seconds,
            failed=self.num_failed,
            served_degraded=self.num_degraded,
            slo_met_degraded=slo_met_degraded,
        )

    @property
    def goodput_rps(self) -> float:
        """SLO-met served requests per second of makespan."""
        return self.goodput.goodput_rps

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.goodput.shed_rate

    @property
    def slo_attainment(self) -> float:
        """Fraction of served requests that met their SLO."""
        return self.goodput.slo_attainment

    @property
    def latency(self) -> LatencyStats:
        """Distribution of per-request sojourn times."""
        if self.aggregates is not None:
            return self.aggregates.latency
        return LatencyStats.from_samples([s.sojourn_seconds for s in self.served])

    @property
    def queueing_decomposition(self) -> Dict[str, float]:
        """Mean per-request sojourn split into batching/dispatch/service."""
        n = max(self.num_requests, 1)
        if self.aggregates is not None:
            return {
                "batching": self.aggregates.batching_sum / n,
                "dispatch": self.aggregates.dispatch_sum / n,
                "service": self.aggregates.service_sum / n,
            }
        return {
            "batching": sum(s.batching_delay for s in self.served) / n,
            "dispatch": sum(s.dispatch_delay for s in self.served) / n,
            "service": sum(s.service_seconds for s in self.served) / n,
        }

    @property
    def tenant_stats(self) -> Dict[str, TenantStats]:
        """Per-tenant offered/served/shed/SLO accounting, sorted by tenant.

        Single-tenant runs report one ``"default"`` entry; the section is
        how fairness benchmarks and the property tests observe
        weighted-shedding and quota conservation per tenant.  Fast-engine
        reports read the streaming per-tenant aggregates (so the section
        survives :meth:`compact`); reference reports re-derive it from the
        per-request records — byte-identically, since both fold sojourns in
        served order.
        """
        if self.aggregates is not None and self.aggregates.tenants is not None:
            return self.aggregates.tenants
        sojourns: Dict[str, List[float]] = {}
        served_count: Dict[str, int] = {}
        slo_met: Dict[str, int] = {}
        shed_count: Dict[str, int] = {}
        degraded_count: Dict[str, int] = {}
        slo_met_degraded: Dict[str, int] = {}
        for s in self.served:
            tenant = s.request.tenant
            degraded = s.request.workload.quality == QUALITY_DEGRADED
            sojourns.setdefault(tenant, []).append(s.sojourn_seconds)
            served_count[tenant] = served_count.get(tenant, 0) + 1
            if degraded:
                degraded_count[tenant] = degraded_count.get(tenant, 0) + 1
            if self.slo is None or s.sojourn_seconds <= self.slo.slo_for(
                s.request.workload, tenant
            ):
                slo_met[tenant] = slo_met.get(tenant, 0) + 1
                if degraded:
                    slo_met_degraded[tenant] = slo_met_degraded.get(tenant, 0) + 1
        for record in self.shed:
            tenant = record.request.tenant
            shed_count[tenant] = shed_count.get(tenant, 0) + 1
        return {
            tenant: TenantStats(
                tenant=tenant,
                offered=served_count.get(tenant, 0) + shed_count.get(tenant, 0),
                served=served_count.get(tenant, 0),
                shed=shed_count.get(tenant, 0),
                slo_met=slo_met.get(tenant, 0),
                latency=LatencyStats.from_samples(sojourns.get(tenant, [])),
                served_degraded=degraded_count.get(tenant, 0),
                slo_met_degraded=slo_met_degraded.get(tenant, 0),
            )
            for tenant in sorted(set(served_count) | set(shed_count))
        }

    def tenant_weighted_goodput(
        self, degradation: "DegradationPolicy"
    ) -> Dict[str, float]:
        """Per-tenant SLO-weighted goodput (rps) under ``degradation``.

        Each tenant's degraded completions are valued at
        :meth:`DegradationPolicy.utility_for` of its quota — so a tenant
        whose :attr:`~repro.serving.control.TenantQuota.degraded_utility`
        floor exceeds the policy-wide knob is scored at its floor.  Runs
        without an SLO policy fall back to the policy-wide utility for every
        tenant.
        """
        makespan = self.makespan_seconds
        if makespan <= 0:
            return {tenant: 0.0 for tenant in self.tenant_stats}
        return {
            tenant: stats.slo_weighted_goodput(
                degradation.utility_for(
                    self.slo.quota_for(tenant) if self.slo is not None else None
                )
            )
            / makespan
            for tenant, stats in self.tenant_stats.items()
        }

    @property
    def provisioned_shard_seconds(self) -> float:
        """Shard-seconds of provisioned capacity the run consumed.

        Autoscaled online runs measure it as lease spans: a shard is paid
        from activation until it actually goes idle after a scale-down
        (drain-aware scaling lowers that horizon by migrating the backlog
        away).  Fixed-capacity runs pay every shard for the whole
        makespan.
        """
        if self.shard_seconds is not None:
            return self.shard_seconds
        return self.num_shards * self.makespan_seconds

    @property
    def shard_utilization(self) -> List[float]:
        """Per-shard fraction of the makespan spent serving batches."""
        if self.makespan_seconds <= 0:
            return [0.0 for _ in self.shard_busy_seconds]
        return [busy / self.makespan_seconds for busy in self.shard_busy_seconds]

    def service_reports(self) -> List[ServiceReport]:
        """Per-request service reports in request arrival order.

        With a 1-shard cluster and batch size 1 this list is element-wise
        equal to ``GNNService.serve_many`` on the same workloads (the
        identity contract the property tests enforce).
        """
        ordered = sorted(
            self.served,
            key=lambda s: (s.request.arrival_seconds, s.request.request_id),
        )
        return [s.report for s in ordered]

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (per-request records elided).

        Fully deterministic for a deterministic run — the golden-report
        regression tests serialize this dictionary and assert byte-stable
        output across runs.
        """
        return {
            "system": self.system,
            "policy": self.policy,
            "num_shards": self.num_shards,
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "makespan_seconds": self.makespan_seconds,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.as_dict(),
            "queueing_decomposition": self.queueing_decomposition,
            "shard_utilization": self.shard_utilization,
            "shard_requests": list(self.shard_requests),
            "goodput": self.goodput.as_dict(),
            "tenants": {
                tenant: stats.as_dict()
                for tenant, stats in self.tenant_stats.items()
            },
            "slo": self.slo.as_dict() if self.slo is not None else None,
            "faults": self.faults.as_dict() if self.faults is not None else None,
            "shard_seconds": self.provisioned_shard_seconds,
            "scaling_timeline": [
                [
                    event.seconds,
                    event.active_shards,
                    event.reason,
                    event.migrated,
                    event.completed,
                ]
                for event in self.scaling_timeline
            ],
        }


def _home_shard(batch: RequestBatch, num_candidates: int) -> int:
    """Stable home slot of a batch's workload key (process-independent)."""
    return zlib.crc32(repr(batch.key).encode("utf-8")) % num_candidates


class ShardedServiceCluster:
    """N replicated GNN services behind one queue and batch scheduler.

    Args:
        service: template service; each shard is an independent
            ``service.replicate()`` (own preprocessing-system state).
        num_shards: replica count (>= 1).
        scheduler: batching policy (defaults to per-request batches, i.e.
            ``BatchScheduler(max_batch_size=1)``).
        policy: dispatch policy, one of :data:`DISPATCH_POLICIES`.
        locality_spill_seconds: under the locality policy, a batch spills
            from its preferred shard to the earliest-free shard when the
            preferred backlog exceeds this many seconds (``inf`` pins
            strictly).
        rebalance_seconds: under the locality policy, enables stale-state
            rebalancing of the home-shard hash fallback: when the home
            shard served a *different* workload key within the last
            ``rebalance_seconds``, its reconfiguration state no longer
            matches this batch and dispatch re-homes to the earliest-free
            shard whose recent traffic does not conflict (unclaimed,
            same-key, or stale) instead of paying reconfiguration churn on
            every alternating batch.  ``None`` (default) disables
            rebalancing.
        engine: one of :data:`ENGINES` — ``"fast"`` (default) runs the
            serving loops of :mod:`repro.serving.engine` over the indexed
            lane (shard heap, serve-transition caching, streaming
            aggregates); ``"reference"`` runs the same loops over the plain
            lane.  Outputs are byte-identical; only wall-clock differs.
        topology: optional :class:`~repro.serving.topology.ClusterTopology`
            mapping shards to failure domains.  With one, placement becomes
            domain-aware: the autoscaler's active set follows the
            topology's activation order, locality dispatch hashes to a
            *domain* before a member shard, and fault-time standby
            substitution prefers shards in healthy domains.  ``None``
            (default) keeps the historical shard-index ordering exactly.
        placement: activation-order policy over the topology —
            ``"spread"`` (default) round-robins activation across domains
            so any active prefix spans the maximum number of failure
            domains; ``"dense"`` fills domains in shard-index order (the
            domain-oblivious baseline).  Ignored without a topology.
    """

    def __init__(
        self,
        service: GNNService,
        num_shards: int = 1,
        scheduler: Optional[BatchScheduler] = None,
        policy: str = POLICY_LEAST_LOADED,
        locality_spill_seconds: float = float("inf"),
        rebalance_seconds: Optional[float] = None,
        engine: str = ENGINE_FAST,
        topology: Optional[ClusterTopology] = None,
        placement: str = PLACEMENT_SPREAD,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {policy!r}; expected one of {DISPATCH_POLICIES}"
            )
        if locality_spill_seconds < 0:
            raise ValueError("locality_spill_seconds must be non-negative")
        if rebalance_seconds is not None and rebalance_seconds < 0:
            raise ValueError("rebalance_seconds must be non-negative")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown serving engine {engine!r}; expected one of {ENGINES}"
            )
        self.template = service
        self.shards: List[GNNService] = [service.replicate() for _ in range(num_shards)]
        self.scheduler = scheduler or BatchScheduler(max_batch_size=1)
        self.policy = policy
        self.locality_spill_seconds = locality_spill_seconds
        self.rebalance_seconds = rebalance_seconds
        self.engine = engine
        self._set_topology(topology, placement)
        self._reset_dispatch_state()
        # Serve-transition cache shared by every fast-engine run on this
        # cluster: the shards are replicas of one template, so a transition
        # observed on one shard replays soundly on any other.
        self._serve_cache: Dict[tuple, tuple] = {}

    def _set_topology(
        self, topology: Optional[ClusterTopology], placement: str
    ) -> None:
        """Install a failure-domain topology and its activation order.

        ``topology=None`` leaves every dispatch/scaling path on the
        historical shard-index ordering (``self._order is None``), which is
        what keeps domain-unaware runs byte-identical to earlier releases.
        """
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        if topology is not None:
            topology.validate_for(self.num_shards)
            order: Optional[tuple] = topology.activation_order(placement)
        else:
            order = None
        self.topology = topology
        self.placement = placement
        #: Activation order under the topology (None = identity/range order).
        self._order = order

    def _reset_dispatch_state(self) -> None:
        """Reset per-run dispatch memory (round-robin cursor, shard keys).

        Every run calls this at its start so dispatch history never leaks
        across runs on the same cluster.
        """
        self._rr_next = 0
        # Per shard: (workload key, ready time) of the last batch the
        # locality hash fallback dispatched there (stale-state rebalance).
        self._shard_key: List[Optional[tuple]] = [None] * self.num_shards

    @property
    def num_shards(self) -> int:
        """Number of service replicas."""
        return len(self.shards)

    @property
    def system_name(self) -> str:
        """Preprocessing-system label of the replicas."""
        return self.template.preprocessing.name

    # -------------------------------------------------------------- dispatch
    def _pick_shard(
        self,
        batch: RequestBatch,
        busy_until: List[float],
        active: Sequence[int],
    ) -> int:
        """Choose a shard for ``batch`` among the ``active`` shard ids.

        The locality policy is reconfiguration-state aware: shards whose
        preprocessing state already suits the batch's workload (no bitstream
        change would fire — see ``GNNService.configured_for``) are preferred,
        the earliest-free one winning.  Systems without reconfigurable state
        never claim a batch that way, so they fall back to a stable
        home-shard hash of the workload key.  Either preference spills to
        the earliest-free active shard once the preferred backlog exceeds
        ``locality_spill_seconds``.

        With ``rebalance_seconds`` set, the hash fallback additionally
        re-homes when the home shard's reconfiguration state has gone
        stale relative to the live traffic mix (see :meth:`_rebalance`).
        """
        least_loaded = min(active, key=lambda i: (busy_until[i], i))
        if self.policy == POLICY_ROUND_ROBIN:
            shard = active[self._rr_next % len(active)]
            self._rr_next += 1
            return shard
        if self.policy == POLICY_LOCALITY:
            configured = [
                i for i in active if self.shards[i].configured_for(batch.workload)
            ]
            if configured:
                preferred = min(configured, key=lambda i: (busy_until[i], i))
            else:
                if self._order is not None:
                    preferred = self._domain_home(batch, active)
                else:
                    preferred = active[_home_shard(batch, len(active))]
                if self.rebalance_seconds is not None:
                    preferred = self._rebalance(batch, busy_until, active, preferred)
            backlog = busy_until[preferred] - batch.ready_seconds
            chosen = preferred if backlog <= self.locality_spill_seconds else least_loaded
            if self.rebalance_seconds is not None:
                self._shard_key[chosen] = (batch.key, batch.ready_seconds)
            return chosen
        return least_loaded

    def _domain_home(self, batch: RequestBatch, active: Sequence[int]) -> int:
        """Domain-spread home shard for the locality hash fallback.

        The workload key hashes to a *failure domain* first and to a member
        shard second, so the keys' home shards spread across domains instead
        of clustering wherever the flat hash lands — a rack outage then takes
        out a 1/num_domains slice of the key space rather than an arbitrary
        one.  Domains with no currently-active member are probed past in
        declaration order (their keys spill to the next domain over).
        """
        digest = zlib.crc32(repr(batch.key).encode("utf-8"))
        names = self.topology.domain_names
        start = digest % len(names)
        for offset in range(len(names)):
            name = names[(start + offset) % len(names)]
            members = [i for i in active if self.topology.domain_of(i) == name]
            if members:
                return members[(digest // len(names)) % len(members)]
        return active[_home_shard(batch, len(active))]

    def _rebalance(
        self,
        batch: RequestBatch,
        busy_until: List[float],
        active: Sequence[int],
        home: int,
    ) -> int:
        """Stale-state re-homing for the locality hash fallback.

        The home shard keeps the batch unless it *recently* (within
        ``rebalance_seconds`` of this batch's ready time) dispatched a
        batch with a *different* workload key — its reconfiguration state
        is then warm for conflicting traffic, and pinning this batch there
        pays reconfiguration churn on every alternation.  In that case the
        batch re-homes to the earliest-free active shard whose recent
        traffic does not conflict: unclaimed, same-key, or stale.  When
        every active shard conflicts the home shard keeps the batch (no
        rebalance target is better than any other).
        """

        def conflicts(shard_id: int) -> bool:
            entry = self._shard_key[shard_id]
            return (
                entry is not None
                and entry[0] != batch.key
                and batch.ready_seconds - entry[1] <= self.rebalance_seconds
            )

        if not conflicts(home):
            return home
        candidates = [i for i in active if not conflicts(i)]
        if not candidates:
            return home
        return min(candidates, key=lambda i: (busy_until[i], i))

    @contextmanager
    def _run_overrides(self, config: "ServingConfig"):
        """Apply a config's engine/scheduler overrides for one run.

        The cluster's construction-time choices are swapped in-place and
        restored on exit, so a per-run ``ServingConfig(engine=...,
        tenant_weights=...)`` never leaks into later runs on the same
        cluster.
        """
        engine = self.engine
        scheduler = self.scheduler
        topology = self.topology
        placement = self.placement
        order = self._order
        try:
            if config.engine is not None:
                self.engine = config.engine
            if config.tenant_weights is not None:
                self.scheduler = BatchScheduler(
                    max_batch_size=scheduler.max_batch_size,
                    max_wait_seconds=scheduler.max_wait_seconds,
                    tenant_weights=dict(config.tenant_weights),
                )
            if config.topology is not None or config.placement is not None:
                self._set_topology(
                    config.topology if config.topology is not None else topology,
                    config.placement if config.placement is not None else placement,
                )
            yield
        finally:
            self.engine = engine
            self.scheduler = scheduler
            self.topology = topology
            self.placement = placement
            self._order = order

    # --------------------------------------------------------------- serving
    def serve_trace(
        self, trace: RequestTrace, *, config: Optional["ServingConfig"] = None
    ) -> ClusterReport:
        """Replay a trace through the cluster and merge the outcome.

        Event-driven and fully simulated: batches are dispatched in the
        order they close; a batch starts at ``max(ready, shard free)`` and
        occupies its shard for the batch's modelled end-to-end latency.
        ``config`` (a :class:`~repro.serving.config.ServingConfig`) carries
        the run's options: an SLO only scores the run's goodput section
        (the offline path never sheds); a fault schedule injects shard
        crash/recover/slowdown events — doomed batches migrate to
        survivors, in-flight failures retry with backoff into the open
        batches, and the report carries a faults section;
        ``engine`` / ``tenant_weights`` / ``topology`` / ``placement``
        override the cluster's own choices for this run.  Admission
        control, degradation and autoscaling are online-only and rejected
        here.

        The fast engine replays a fault-free, FIFO-batched trace through
        the array-native chunked loop; every other replay runs the event
        loop of :meth:`serve_online` over
        :class:`~repro.serving.requests.TraceArrivals` with no control
        plane attached, so it is byte-identical to that online replay.
        Both loops live in :mod:`repro.serving.engine`.
        """
        from repro.serving.config import ServingConfig
        from repro.serving.engine import serve_trace

        config = config if config is not None else ServingConfig()
        if config.autoscaler is not None:
            raise ValueError("serve_trace is offline: autoscaler requires serve_online")
        if config.resolved_controller() is not None:
            raise ValueError(
                "serve_trace is offline and never sheds: admission control "
                "(controller/admit/degradation) requires serve_online"
            )
        if not len(trace):
            raise ValueError("cannot serve an empty trace")
        with self._run_overrides(config):
            return serve_trace(
                self, trace, config.scoring_slo(), config.resolved_faults()
            )

    def serve_online(
        self, source, *, config: Optional["ServingConfig"] = None
    ) -> ClusterReport:
        """Drain an arrival source through the online co-simulated event loop.

        ``source`` implements the arrival-source protocol (``peek_time`` /
        ``pop`` / ``on_complete`` / ``on_shed``):
        :class:`~repro.serving.requests.TraceArrivals` replays a fixed trace,
        :class:`~repro.serving.requests.ClosedLoopClients` co-simulates a
        client population fed by this loop's actual finish times.
        ``config`` (a :class:`~repro.serving.config.ServingConfig`) carries
        the whole control plane plus per-run engine, tenant-weight and
        topology overrides.

        The loop interleaves arrivals and batch-timeout deadlines in
        simulated-time order (ties fire the deadline first), and batches close under the same
        size-or-timeout policy as :class:`BatchScheduler`.  At every
        arrival the control plane hooks run in order:

        1. ``autoscaler.observe`` sees the queue depth — the arriving
           request, requests in open batches, requests in flight, and
           recently shed arrivals (shed demand within the autoscaler's
           ``shed_memory_seconds`` still signals overload) — and may
           activate a shard, which is then warm-up-penalised (bitstream
           load) before it can start a batch, or deactivate one.  With the
           autoscaler's ``drain=True`` default a leaving shard's
           planned-but-unstarted batches migrate to the survivors.
        2. ``admission.decide`` predicts the request's sojourn from the
           least-loaded active shard's backlog plus the calibrated cost
           estimate and sheds the request if the prediction violates its
           SLO; sheds are reported back to the source immediately.  With a
           :class:`~repro.serving.control.DegradationPolicy` a request
           whose full-quality prediction violates its SLO is re-priced at
           its cheaper degraded profile (own batch key, own batches) and
           served degraded when that prediction fits.

        Completion times are committed at batch dispatch (the simulation
        is deterministic, so the finish instant is known then) and fed to
        the source, which is what lets closed-loop clients issue their next
        request only after their previous one actually finished.

        With a fault schedule the loop interleaves two more event kinds —
        fault events and retry timers — with the precedence ``fault <
        deadline < retry < arrival`` at timestamp ties.  Dispatch then goes
        through the shared fault runtime: dead shards leave the
        dispatchable set (live standby shards past the autoscaler's prefix
        replace them), doomed batches drain and migrate, in-flight failures
        re-enqueue into the open batches after an exponential backoff until
        their budget is spent, and the admission backlog prediction only
        counts live shards.  The loop itself lives in
        :mod:`repro.serving.engine`.
        """
        from repro.serving.config import ServingConfig
        from repro.serving.engine import serve_online

        config = config if config is not None else ServingConfig()
        autoscaler = config.autoscaler
        if autoscaler is not None and autoscaler.max_shards > self.num_shards:
            raise ValueError(
                f"autoscaler max_shards ({autoscaler.max_shards}) exceeds the "
                f"cluster's shard count ({self.num_shards})"
            )
        with self._run_overrides(config):
            return serve_online(
                self,
                source,
                config.scoring_slo(),
                config.resolved_controller(),
                autoscaler,
                config.resolved_faults(),
            )

    def serve_workloads(self, workloads: List[WorkloadProfile]) -> ClusterReport:
        """Serve a plain workload list as a zero-gap trace (back-to-back)."""
        requests = [
            InferenceRequest(request_id=i, arrival_seconds=0.0, workload=w)
            for i, w in enumerate(workloads)
        ]
        return self.serve_trace(RequestTrace(requests))


def build_reference_clusters(
    num_shards: int = 1,
    scheduler: Optional[BatchScheduler] = None,
    policy: str = POLICY_LEAST_LOADED,
    tuning_workload: Optional[WorkloadProfile] = None,
    engine: str = ENGINE_FAST,
) -> Dict[str, ShardedServiceCluster]:
    """Sharded clusters for all seven compared systems of Fig. 18.

    Every cluster can be driven by the same traffic trace, which is how the
    serving benchmark compares CPU / GPU / GSamp / FPGA / AutoPre / StatPre /
    DynPre under identical offered load.
    """
    return {
        name: ShardedServiceCluster(
            service,
            num_shards=num_shards,
            scheduler=scheduler,
            policy=policy,
            engine=engine,
        )
        for name, service in build_services(tuning_workload).items()
    }
