"""Shared fixtures for the test suite.

Besides the graph/hardware fixtures, this module centralises the serving
layer's test setup (workload profiles, traces, reference services/clusters)
that used to be copy-pasted across ``test_serving.py`` and
``test_serving_properties.py``, and registers the hypothesis profiles the
CI pipeline selects with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import os
from typing import List

import pytest
from hypothesis import HealthCheck, settings

from repro.core.config import HardwareConfig
from repro.graph.coo import COOGraph
from repro.graph.convert import coo_to_csc
from repro.graph.generators import GraphSpec, power_law_graph
from repro.serving import (
    BatchScheduler,
    BurstyArrivals,
    InferenceRequest,
    OpenLoopArrivals,
    RequestBatch,
    RequestTrace,
    ShardedServiceCluster,
    merge_traces,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

# --------------------------------------------------------- hypothesis profiles
# "ci" is fully derandomized (fixed example seed) so hypothesis failures are
# reproducible across CI runs; "dev" keeps random exploration locally.
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# ------------------------------------------------------------ serving helpers
def make_profile(name: str = "synth", batch_size: int = 100, **kwargs) -> WorkloadProfile:
    """A small synthetic workload profile (kwargs override the defaults)."""
    defaults = dict(num_nodes=50_000, num_edges=400_000, avg_degree=8.0)
    defaults.update(kwargs)
    return WorkloadProfile(name=name, batch_size=batch_size, **defaults)


def zero_gap_trace(workloads) -> RequestTrace:
    """All requests arriving at t = 0, ids in list order."""
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=0.0, workload=w)
            for i, w in enumerate(workloads)
        ]
    )


def sweep_batches(scheduler: BatchScheduler, trace) -> List[RequestBatch]:
    """The batches the event loop closes over ``trace``, in dispatch order.

    Drives ``scheduler.online_batcher()`` (FIFO or weighted-fair) over the
    trace in the event loop's order — deadlines due at or before an arrival
    fire first — and then fires the deadlines still open.  This is the
    oracle for the chunked loop's array-level batch plan.
    """
    batcher = scheduler.online_batcher()
    closed: List[RequestBatch] = []
    for request in trace:
        now = request.arrival_seconds
        expiring = batcher.peek_deadline()
        while expiring is not None and expiring[0] <= now:
            closed.extend(batcher.fire_deadline(expiring))
            expiring = batcher.peek_deadline()
        closed.extend(batcher.add(request, now))
    expiring = batcher.peek_deadline()
    while expiring is not None:
        closed.extend(batcher.fire_deadline(expiring))
        expiring = batcher.peek_deadline()
    return closed


def plan_batches(scheduler: BatchScheduler, trace) -> List[RequestBatch]:
    """``scheduler.schedule_arrays(trace)`` materialized as request batches."""
    plan = scheduler.schedule_arrays(trace)
    requests = trace.requests
    offsets = plan.batch_offsets.tolist()
    positions = plan.member_positions.tolist()
    return [
        RequestBatch(
            requests=[requests[p] for p in positions[offsets[b]:offsets[b + 1]]],
            ready_seconds=ready,
        )
        for b, ready in enumerate(plan.ready_seconds.tolist())
    ]


#: Small pool of distinct serving workloads shared by the property suites.
WORKLOAD_POOL = [
    WorkloadProfile(name="wl-s", num_nodes=20_000, num_edges=150_000, avg_degree=7.5,
                    batch_size=500),
    WorkloadProfile(name="wl-m", num_nodes=80_000, num_edges=900_000, avg_degree=11.25,
                    batch_size=1500),
    WorkloadProfile(name="wl-u", num_nodes=40_000, num_edges=300_000, avg_degree=7.5,
                    batch_size=800, update_fraction=0.2),
]

#: The seven compared systems' labels (static so strategies can sample them
#: at collection time without building the services).
SYSTEM_NAMES = ("AutoPre", "CPU", "DynPre", "FPGA", "GPU", "GSamp", "StatPre")

#: Tenant names shared by the multi-tenant suites.
TENANTS = ("ent", "free", "pro")


def make_bursty_tenant_trace(
    workloads,
    tenants=TENANTS,
    num_per_tenant: int = 20,
    base_rate_rps: float = 50.0,
    peak_rate_rps: float = 500.0,
    period_seconds: float = 0.5,
    burst_fraction: float = 0.3,
    seed: int = 0,
) -> RequestTrace:
    """One bursty stream per tenant, phases staggered across the period."""
    streams = [
        BurstyArrivals(
            workloads,
            base_rate_rps=base_rate_rps,
            peak_rate_rps=peak_rate_rps,
            period_seconds=period_seconds,
            burst_fraction=burst_fraction,
            phase_seconds=i * period_seconds / len(tenants),
            tenant=tenant,
            seed=seed + i,
        )
        for i, tenant in enumerate(tenants)
    ]
    return merge_traces([stream.trace(num_per_tenant) for stream in streams])


@pytest.fixture(scope="session")
def services():
    """The seven reference GNN services, built once per test session.

    Templates only: tests must ``replicate()`` (directly or through a
    cluster) before mutating state, so examples never leak state into each
    other.
    """
    return build_services()


@pytest.fixture
def serving_profile():
    """Factory fixture for small synthetic workload profiles."""
    return make_profile


@pytest.fixture
def small_trace() -> RequestTrace:
    """A 10-request open-loop Poisson trace over two small workloads."""
    return OpenLoopArrivals(
        [make_profile("a"), make_profile("b")], rate_rps=100.0, seed=3
    ).trace(10)


@pytest.fixture
def medium_trace() -> RequestTrace:
    """A 60-request open-loop Poisson trace over the shared workload pool."""
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=300.0, seed=7).trace(60)


@pytest.fixture
def cluster_factory(services):
    """Factory fixture: build a reference cluster for a named system.

    Defaults to per-request batches (``max_batch_size=1``) like the cluster
    itself; pass ``scheduler=BatchScheduler(...)`` to override.
    """

    def build(name: str, num_shards: int = 2, **kwargs) -> ShardedServiceCluster:
        kwargs.setdefault("scheduler", BatchScheduler(max_batch_size=1))
        return ShardedServiceCluster(services[name], num_shards=num_shards, **kwargs)

    return build


# ------------------------------------------------------------ graph fixtures
@pytest.fixture
def small_graph() -> COOGraph:
    """A small random graph exercised by most functional tests."""
    return power_law_graph(GraphSpec(num_nodes=60, num_edges=400, degree_skew=0.4, seed=7))


@pytest.fixture
def medium_graph() -> COOGraph:
    """A medium synthetic graph for kernel-level tests."""
    return power_law_graph(GraphSpec(num_nodes=300, num_edges=3000, degree_skew=0.6, seed=11))


@pytest.fixture
def small_csc(small_graph):
    """CSC conversion of the small graph."""
    return coo_to_csc(small_graph)


@pytest.fixture
def tiny_hardware() -> HardwareConfig:
    """A deliberately tiny hardware configuration for detailed emulation."""
    return HardwareConfig(num_upes=4, upe_width=16, num_scrs=2, scr_width=32)
