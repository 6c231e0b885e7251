"""Serving layer: request traffic, batching, sharded clusters, control plane.

This package lifts the reproduction from single-pass modelling to a served
traffic regime:

* :mod:`repro.serving.requests` — timestamped, tenant-tagged requests and
  traces, open/closed-loop and burst/diurnal (:class:`BurstyArrivals`)
  arrival generators over workload profiles, multi-tenant trace merging
  (:func:`merge_traces`) and the online arrival sources (trace replay,
  co-simulated closed-loop clients).
* :mod:`repro.serving.scheduler` — size-or-timeout coalescing of compatible
  requests into batched preprocessing passes, with optional weighted-fair
  (deficit round-robin) slot allocation across tenants
  (:class:`TenantFairBatcher`).
* :mod:`repro.serving.cluster` — N-way replicated GNN services with
  round-robin / least-loaded / reconfiguration-state-aware locality dispatch,
  offline trace replay and online co-simulation, merged into cluster
  reports (throughput, latency percentiles, queueing decomposition,
  utilisation, goodput/shed accounting).
* :mod:`repro.serving.control` — the SLO-aware control plane: per-workload
  latency objectives, per-tenant quotas (:class:`TenantQuota`: guaranteed
  rates, weighted excess shedding, hard caps), predictive / batching-aware
  admission control with graceful degradation
  (:class:`DegradationPolicy`: downgrade to a cheaper quality tier instead
  of shedding) and a hysteresis queue-depth autoscaler with bitstream
  warm-up penalties.
* :mod:`repro.serving.config` — :class:`ServingConfig`, the validated
  configuration object behind ``serve_trace(trace, config=...)`` /
  ``serve_online(source, config=...)``, the one place a run's control
  plane is set.
* :mod:`repro.serving.faults` — deterministic shard failure injection
  (:class:`FaultSchedule`: crash / recover / slowdown events, or a seeded
  :class:`RandomFaults` generator) with drain-and-migrate recovery, retry
  with exponential backoff, and exact served/shed/failed conservation —
  consumed identically under both engines.  The same machinery backs
  *voluntary* drains (:class:`DrainPlanner`): an autoscaler scale-down
  with ``drain=True`` migrates queued work to surviving shards instead of
  stranding it on the deactivated shard.
* :mod:`repro.serving.topology` — :class:`ClusterTopology`, the mapping
  from shards to correlated failure domains (racks, zones).  Domain-level
  fault events (``crash_domain`` / ``recover_domain``) expand against it,
  :class:`RandomFaults` can draw seeded whole-domain outages from a
  :class:`CorrelatedFaults` profile, and dispatch / autoscaler activation /
  drain re-pick become domain-aware (``placement="spread"`` round-robins
  activation across domains).
* :mod:`repro.serving.chaos` — the chaos-sweep invariant harness: seeded
  scenario schedules (whole-domain outages racing autoscaler drains, retry
  storms, recover-at-the-same-instant edges) replayed through both engines,
  asserting request conservation, engine byte-identity, no dispatch onto
  dead or deactivated shards, retry-budget compliance and lease accounting
  on every run (``python -m repro.serving.chaos``).  The package does not
  import it, so running it with ``-m`` executes it exactly once.
* :mod:`repro.serving.engine` — the serving loops, written once: one
  event loop for online co-simulation and for every offline replay the
  chunked loop cannot take, run over a *shard lane* that owns what the two
  engines differ in.  ``engine="reference"`` runs the plain lane
  (busy-list scan, direct pricing, per-request records);
  ``engine="fast"`` (the default) runs the indexed lane (shard heap,
  serve-transition caching, streaming report aggregates) plus the
  array-native chunked offline replay, byte-identical to the reference and
  >= 5x faster on 20k-request traces (100k requests in seconds).
"""

from repro.serving.requests import (
    DEFAULT_TENANT,
    BurstyArrivals,
    ClosedLoopArrivals,
    ClosedLoopClients,
    InferenceRequest,
    OpenLoopArrivals,
    RequestTrace,
    TraceArrays,
    TraceArrivals,
    merge_traces,
)
from repro.serving.scheduler import BatchScheduler, RequestBatch, TenantFairBatcher
from repro.serving.cluster import (
    DISPATCH_POLICIES,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    POLICY_LEAST_LOADED,
    POLICY_LOCALITY,
    POLICY_ROUND_ROBIN,
    ClusterReport,
    ReportAggregates,
    ServedRequest,
    ShardedServiceCluster,
    ShedRecord,
    build_reference_clusters,
)
from repro.serving.topology import (
    PLACEMENT_DENSE,
    PLACEMENT_SPREAD,
    PLACEMENTS,
    ClusterTopology,
)
from repro.serving.faults import (
    DOMAIN_FAULT_KINDS,
    FAULT_CRASH,
    FAULT_CRASH_DOMAIN,
    FAULT_KINDS,
    FAULT_RECOVER,
    FAULT_RECOVER_DOMAIN,
    FAULT_SLOWDOWN,
    CorrelatedFaults,
    DomainFaultEvent,
    DomainOutageStats,
    DrainPlanner,
    FaultEvent,
    FaultSchedule,
    FaultStats,
    RandomFaults,
)
from repro.serving.control import (
    AdmissionController,
    AdmissionDecision,
    Autoscaler,
    DegradationPolicy,
    ScalingEvent,
    SLOPolicy,
    TenantQuota,
)
from repro.serving.config import ServingConfig
from repro.system.workload import QUALITY_DEGRADED, QUALITY_FULL, QUALITY_TIERS

__all__ = [
    "InferenceRequest",
    "RequestTrace",
    "TraceArrays",
    "DEFAULT_TENANT",
    "OpenLoopArrivals",
    "ClosedLoopArrivals",
    "ClosedLoopClients",
    "BurstyArrivals",
    "merge_traces",
    "TraceArrivals",
    "BatchScheduler",
    "RequestBatch",
    "TenantFairBatcher",
    "TenantQuota",
    "ShardedServiceCluster",
    "ServedRequest",
    "ShedRecord",
    "ClusterReport",
    "ReportAggregates",
    "build_reference_clusters",
    "DISPATCH_POLICIES",
    "ENGINES",
    "ENGINE_REFERENCE",
    "ENGINE_FAST",
    "POLICY_ROUND_ROBIN",
    "POLICY_LEAST_LOADED",
    "POLICY_LOCALITY",
    "ClusterTopology",
    "PLACEMENTS",
    "PLACEMENT_DENSE",
    "PLACEMENT_SPREAD",
    "DrainPlanner",
    "FaultEvent",
    "DomainFaultEvent",
    "CorrelatedFaults",
    "FaultSchedule",
    "FaultStats",
    "DomainOutageStats",
    "RandomFaults",
    "FAULT_CRASH",
    "FAULT_RECOVER",
    "FAULT_SLOWDOWN",
    "FAULT_KINDS",
    "FAULT_CRASH_DOMAIN",
    "FAULT_RECOVER_DOMAIN",
    "DOMAIN_FAULT_KINDS",
    "SLOPolicy",
    "AdmissionController",
    "AdmissionDecision",
    "Autoscaler",
    "ScalingEvent",
    "ServingConfig",
    "DegradationPolicy",
    "QUALITY_FULL",
    "QUALITY_DEGRADED",
    "QUALITY_TIERS",
]
