"""Timestamped inference requests, request traces and arrival generators.

The serving layer models traffic instead of a bare workload list: every
:class:`InferenceRequest` carries a simulated arrival timestamp, a
:class:`RequestTrace` is an arrival-ordered sequence of requests, and the
generators turn a mix of :class:`~repro.system.workload.WorkloadProfile`\\ s
into a trace either open-loop (requests arrive at a fixed offered rate, no
matter how the service keeps up) or closed-loop (a fixed client population
issues the next request only after the previous one is estimated to finish).

For the event loop in :mod:`repro.serving.engine` there are two arrival
*sources*: :class:`TraceArrivals` replays a fixed trace, and
:class:`ClosedLoopClients` co-simulates a client population whose next
arrivals are fed by the cluster's actual finish (or shed) times rather than
an estimate.

All timestamps are simulated seconds; nothing in this module reads the wall
clock, so traces are fully deterministic under a seed.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.system.workload import WorkloadProfile

#: Supported open-loop inter-arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")

#: Version tag of the JSONL trace capture/replay format.  Version 2 added
#: tenant identities (a ``num_tenants`` header count, one ``tenant`` record
#: per distinct tenant and a ``tenant`` pool index on every request record);
#: version-1 captures still load, with every request assigned
#: :data:`DEFAULT_TENANT`.
TRACE_FORMAT_VERSION = 2

#: Tenant assigned to requests that carry no explicit tenant identity
#: (single-tenant traces, pre-tenancy captures).
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class InferenceRequest:
    """One timestamped GNN inference request.

    Attributes:
        request_id: unique, monotonically increasing identifier within a trace.
        arrival_seconds: simulated arrival time of the request.
        workload: the workload profile the request asks the service to run.
        tenant: identity of the tenant the request belongs to.  Tenants share
            one cluster; quotas, weighted shedding and fair batching key on
            this field (see :mod:`repro.serving.control`).
    """

    request_id: int
    arrival_seconds: float
    workload: WorkloadProfile
    tenant: str = DEFAULT_TENANT


class TraceArrays(NamedTuple):
    """Structure-of-arrays view of a trace (the fast engine's working set).

    Attributes:
        arrival_seconds: float64 arrival timestamps, arrival order.
        workload_index: per-request index into ``workload_pool``.
        workload_pool: the distinct workload profiles of the trace.
        request_ids: per-request identifiers, aligned with the arrays.
        tenant_index: per-request index into ``tenant_pool``.
        tenant_pool: the distinct tenant names of the trace.
    """

    arrival_seconds: np.ndarray
    workload_index: np.ndarray
    workload_pool: List[WorkloadProfile]
    request_ids: np.ndarray
    tenant_index: np.ndarray
    tenant_pool: List[str]


class RequestTrace:
    """An arrival-ordered sequence of inference requests.

    Requests are sorted by ``(arrival_seconds, request_id)`` on construction,
    so iteration order is always arrival order regardless of how the trace
    was assembled.

    The trace is dual-represented: as a list of :class:`InferenceRequest`
    objects (the ``requests`` attribute every consumer iterates) and as a
    structure-of-arrays view (:meth:`arrays`) the generators produce and the
    serving fast engine schedules on.  A trace built via :meth:`from_arrays`
    materializes its request *objects* lazily, on first object-level access
    — generating a 100k-request trace allocates three numpy arrays, not
    100k frozen dataclasses.
    """

    def __init__(self, requests: Optional[Sequence[InferenceRequest]] = None) -> None:
        self._requests: Optional[List[InferenceRequest]] = sorted(
            requests or [], key=lambda r: (r.arrival_seconds, r.request_id)
        )
        self._arrays: Optional[TraceArrays] = None

    @classmethod
    def from_arrays(
        cls,
        arrival_seconds: np.ndarray,
        workload_pool: Sequence[WorkloadProfile],
        workload_index: np.ndarray,
        request_ids: Optional[np.ndarray] = None,
        tenant_pool: Optional[Sequence[str]] = None,
        tenant_index: Optional[np.ndarray] = None,
    ) -> "RequestTrace":
        """Build a trace from parallel arrays without materializing objects.

        ``request_ids`` defaults to ``0..n-1`` in (stable) arrival order —
        exactly the ids the object-based constructor would produce for a
        generator that emits requests in issue order.  Rows are stably
        sorted by ``(arrival_seconds, request_id)`` like the list path.
        ``tenant_pool``/``tenant_index`` default to every request belonging
        to :data:`DEFAULT_TENANT`.
        """
        arrivals = np.asarray(arrival_seconds, dtype=np.float64)
        index = np.asarray(workload_index, dtype=np.int64)
        if arrivals.ndim != 1 or arrivals.shape != index.shape:
            raise ValueError("arrival_seconds and workload_index must be parallel 1-D arrays")
        pool = list(workload_pool)
        if len(index) and (index.min() < 0 or index.max() >= len(pool)):
            raise ValueError("workload_index out of range for the workload pool")
        if request_ids is None:
            ids = np.arange(len(arrivals), dtype=np.int64)
        else:
            ids = np.asarray(request_ids, dtype=np.int64)
            if ids.shape != arrivals.shape:
                raise ValueError("request_ids must parallel arrival_seconds")
        if tenant_pool is None and tenant_index is None:
            tenants = [DEFAULT_TENANT]
            tenant_idx = np.zeros(len(arrivals), dtype=np.int64)
        else:
            if tenant_pool is None or tenant_index is None:
                raise ValueError("tenant_pool and tenant_index must be given together")
            tenants = list(tenant_pool)
            tenant_idx = np.asarray(tenant_index, dtype=np.int64)
            if tenant_idx.shape != arrivals.shape:
                raise ValueError("tenant_index must parallel arrival_seconds")
            if len(tenant_idx) and (
                tenant_idx.min() < 0 or tenant_idx.max() >= len(tenants)
            ):
                raise ValueError("tenant_index out of range for the tenant pool")
        order = np.lexsort((ids, arrivals))
        if not np.array_equal(order, np.arange(len(order))):
            arrivals, index, ids = arrivals[order], index[order], ids[order]
            tenant_idx = tenant_idx[order]
        trace = cls.__new__(cls)
        trace._requests = None
        trace._arrays = TraceArrays(arrivals, index, pool, ids, tenant_idx, tenants)
        return trace

    # ----------------------------------------------------------- object view
    @property
    def requests(self) -> List[InferenceRequest]:
        """The request objects in arrival order (materialized on demand)."""
        if self._requests is None:
            arrivals, index, pool, ids, tenant_idx, tenants = self._arrays
            self._requests = [
                InferenceRequest(
                    request_id=rid, arrival_seconds=t, workload=pool[w],
                    tenant=tenants[tn],
                )
                for rid, t, w, tn in zip(
                    ids.tolist(), arrivals.tolist(), index.tolist(), tenant_idx.tolist()
                )
            ]
        return self._requests

    def __len__(self) -> int:
        if self._requests is not None:
            return len(self._requests)
        return len(self._arrays.arrival_seconds)

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> InferenceRequest:
        return self.requests[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestTrace):
            return NotImplemented
        return self.requests == other.requests

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestTrace(num_requests={len(self)})"

    # ------------------------------------------------------------ array view
    def arrays(self) -> TraceArrays:
        """Structure-of-arrays view (built from the object list if needed)."""
        if self._arrays is None:
            requests = self._requests
            pool: List[WorkloadProfile] = []
            slot_of = {}
            tenants: List[str] = []
            tenant_slot_of = {}
            index = np.empty(len(requests), dtype=np.int64)
            arrivals = np.empty(len(requests), dtype=np.float64)
            ids = np.empty(len(requests), dtype=np.int64)
            tenant_idx = np.empty(len(requests), dtype=np.int64)
            for i, request in enumerate(requests):
                slot = slot_of.get(request.workload)
                if slot is None:
                    slot = len(pool)
                    slot_of[request.workload] = slot
                    pool.append(request.workload)
                tslot = tenant_slot_of.get(request.tenant)
                if tslot is None:
                    tslot = len(tenants)
                    tenant_slot_of[request.tenant] = tslot
                    tenants.append(request.tenant)
                index[i] = slot
                arrivals[i] = request.arrival_seconds
                ids[i] = request.request_id
                tenant_idx[i] = tslot
            if not tenants:
                tenants = [DEFAULT_TENANT]
            self._arrays = TraceArrays(arrivals, index, pool, ids, tenant_idx, tenants)
        return self._arrays

    # ------------------------------------------------------------ aggregates
    @property
    def duration_seconds(self) -> float:
        """Span between the first and last arrival (0 for short traces)."""
        if len(self) < 2:
            return 0.0
        if self._arrays is not None:
            arrivals = self._arrays.arrival_seconds
            return float(arrivals[-1] - arrivals[0])
        return self._requests[-1].arrival_seconds - self._requests[0].arrival_seconds

    @property
    def offered_rate_rps(self) -> float:
        """Average offered load of the trace in requests per second."""
        if self.duration_seconds <= 0:
            return 0.0
        return (len(self) - 1) / self.duration_seconds

    def workloads(self) -> List[WorkloadProfile]:
        """The workload of every request, in arrival order."""
        if self._arrays is not None:
            pool = self._arrays.workload_pool
            return [pool[w] for w in self._arrays.workload_index.tolist()]
        return [request.workload for request in self._requests]

    def tenants(self) -> List[str]:
        """The distinct tenant names of the trace, in tenant-pool order."""
        arrays = self.arrays()
        if not len(arrays.tenant_index):
            return []
        seen = sorted(set(arrays.tenant_index.tolist()))
        return [arrays.tenant_pool[slot] for slot in seen]

    # -------------------------------------------------------- capture/replay
    def to_jsonl(self, path: Union[str, Path]) -> Path:
        """Capture the trace to a JSONL file (see :meth:`from_jsonl`).

        Line 1 is a header, followed by one line per distinct workload
        profile, one line per distinct tenant and one line per request (ids,
        timestamps, the workload pool index and the tenant pool index).
        Keys are sorted, so the capture of a deterministic trace is
        byte-stable — overload scenarios serialized in one PR can be
        replayed and diffed system-to-system in later ones.
        """
        arrivals, index, pool, ids, tenant_idx, tenants = self.arrays()
        lines = [
            json.dumps(
                {
                    "kind": "trace",
                    "version": TRACE_FORMAT_VERSION,
                    "num_requests": len(self),
                    "num_workloads": len(pool),
                    "num_tenants": len(tenants),
                },
                sort_keys=True,
            )
        ]
        for slot, workload in enumerate(pool):
            lines.append(
                json.dumps(
                    {"kind": "workload", "index": slot, "profile": asdict(workload)},
                    sort_keys=True,
                )
            )
        for slot, tenant in enumerate(tenants):
            lines.append(
                json.dumps(
                    {"kind": "tenant", "index": slot, "name": tenant},
                    sort_keys=True,
                )
            )
        for rid, t, w, tn in zip(
            ids.tolist(), arrivals.tolist(), index.tolist(), tenant_idx.tolist()
        ):
            lines.append(
                json.dumps(
                    {
                        "kind": "request",
                        "id": rid,
                        "arrival_seconds": t,
                        "workload": w,
                        "tenant": tn,
                    },
                    sort_keys=True,
                )
            )
        path = Path(path)
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "RequestTrace":
        """Replay a trace captured with :meth:`to_jsonl`.

        Round-trip exact: JSON serializes floats via ``repr`` (shortest
        round-trip), so replayed arrival timestamps, ids and workload
        profiles compare equal to the captured trace's.  Version-1 captures
        (pre-tenancy) still load; their requests all belong to
        :data:`DEFAULT_TENANT`.
        """
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise ValueError(f"empty trace file: {path}")
        header = json.loads(lines[0])
        if header.get("kind") != "trace":
            raise ValueError(f"not a trace capture (bad header): {path}")
        version = header.get("version")
        if version not in (1, TRACE_FORMAT_VERSION):
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(expected 1..{TRACE_FORMAT_VERSION})"
            )
        pool: List[Optional[WorkloadProfile]] = [None] * header["num_workloads"]
        tenants: List[Optional[str]] = [None] * header.get("num_tenants", 0)
        ids: List[int] = []
        arrivals: List[float] = []
        index: List[int] = []
        tenant_index: List[int] = []
        for line in lines[1:]:
            record = json.loads(line)
            kind = record["kind"]
            if kind == "workload":
                pool[record["index"]] = WorkloadProfile(**record["profile"])
            elif kind == "tenant":
                tenants[record["index"]] = record["name"]
            elif kind == "request":
                ids.append(record["id"])
                arrivals.append(record["arrival_seconds"])
                index.append(record["workload"])
                tenant_index.append(record.get("tenant", 0))
            else:
                raise ValueError(f"unknown record kind {kind!r} in {path}")
        if any(workload is None for workload in pool):
            raise ValueError(f"trace capture is missing workload records: {path}")
        if any(tenant is None for tenant in tenants):
            raise ValueError(f"trace capture is missing tenant records: {path}")
        if not tenants:
            tenants = [DEFAULT_TENANT]
        if len(ids) != header["num_requests"]:
            raise ValueError(
                f"trace capture truncated: header says {header['num_requests']} "
                f"requests, found {len(ids)}"
            )
        # ``from_arrays`` sorts by arrival, which would silently repair a
        # corrupted capture; captures are written time-ordered, so reject
        # out-of-order or negative timestamps instead of masking them.
        for position, seconds in enumerate(arrivals):
            if not math.isfinite(seconds) or seconds < 0.0:
                raise ValueError(
                    f"trace capture has a negative or non-finite arrival "
                    f"timestamp {seconds!r} at request {position}: {path}"
                )
            if position > 0 and seconds < arrivals[position - 1]:
                raise ValueError(
                    f"trace capture timestamps are not monotonic: request "
                    f"{position} arrives at {seconds!r} after "
                    f"{arrivals[position - 1]!r}: {path}"
                )
        return cls.from_arrays(
            np.asarray(arrivals, dtype=np.float64),
            pool,
            np.asarray(index, dtype=np.int64),
            request_ids=np.asarray(ids, dtype=np.int64),
            tenant_pool=tenants,
            tenant_index=np.asarray(tenant_index, dtype=np.int64),
        )


def _workload_picks(
    workloads: Sequence[WorkloadProfile], rng: np.random.Generator, count: int
) -> np.ndarray:
    """Indices of ``count`` workloads picked from the mix (uniform, seeded).

    A single-workload mix consumes no randomness, matching the historical
    object-building helper, so seeded traces stay byte-identical.
    """
    if not workloads:
        raise ValueError("workload mix must be non-empty")
    if len(workloads) == 1:
        return np.zeros(count, dtype=np.int64)
    return rng.integers(0, len(workloads), size=count)


@dataclass
class OpenLoopArrivals:
    """Open-loop traffic: requests arrive at an offered rate regardless of
    service progress (the standard serving-benchmark regime).

    Attributes:
        workloads: the workload mix requests are drawn from (uniformly).
        rate_rps: offered load in requests per second.
        process: ``"poisson"`` for exponential inter-arrival gaps or
            ``"uniform"`` for a fixed gap of ``1 / rate_rps``.
        seed: RNG seed for both gaps and workload picks.
        tenant: tenant identity stamped on every generated request.
    """

    workloads: Sequence[WorkloadProfile]
    rate_rps: float
    process: str = "poisson"
    seed: int = 0
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; expected one of {ARRIVAL_PROCESSES}"
            )

    def trace(self, num_requests: int) -> RequestTrace:
        """Generate a trace of ``num_requests`` timestamped requests.

        Structure-of-arrays throughout: gaps, arrival prefix sums and
        workload picks stay numpy arrays; request objects materialize only
        when a consumer touches the trace's object view.
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self.seed)
        if self.process == "poisson":
            gaps = rng.exponential(1.0 / self.rate_rps, size=num_requests)
        else:
            gaps = np.full(num_requests, 1.0 / self.rate_rps)
        arrivals = np.cumsum(gaps)
        picks = _workload_picks(self.workloads, rng, num_requests)
        return RequestTrace.from_arrays(
            arrivals,
            list(self.workloads),
            picks,
            tenant_pool=[self.tenant],
            tenant_index=np.zeros(num_requests, dtype=np.int64),
        )


@dataclass
class ClosedLoopArrivals:
    """Closed-loop traffic: ``num_clients`` clients issue one request at a
    time and think for ``think_seconds`` between requests.

    The generator is decoupled from the cluster, so a client's next issue
    time uses ``service_time_fn`` as an *estimate* of its previous request's
    completion (a co-simulated closed loop would feed actual finish times
    back; the estimate keeps trace generation deterministic and reusable
    across clusters being compared on identical traffic).

    Attributes:
        workloads: the workload mix requests are drawn from (uniformly).
        num_clients: concurrent client population.
        think_seconds: idle time between a completion estimate and the next
            request of the same client.
        service_time_fn: estimated service latency of one workload (seconds).
        seed: RNG seed for workload picks.
        tenant: tenant identity stamped on every generated request.
    """

    workloads: Sequence[WorkloadProfile]
    num_clients: int
    think_seconds: float = 0.0
    service_time_fn: Optional[Callable[[WorkloadProfile], float]] = None
    seed: int = 0
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if self.think_seconds < 0:
            raise ValueError("think_seconds must be non-negative")

    def trace(self, num_requests: int) -> RequestTrace:
        """Generate a trace of ``num_requests`` timestamped requests."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self.seed)
        estimate = self.service_time_fn or (lambda workload: 0.0)
        pool = list(self.workloads)
        picks = _workload_picks(pool, rng, num_requests)
        # Min-heap of (next issue time, client id): clients start staggered at
        # t = 0 so the first wave arrives together, like a load generator.
        clients = [(0.0, c) for c in range(self.num_clients)]
        heapq.heapify(clients)
        arrivals = np.empty(num_requests, dtype=np.float64)
        for i, pick in enumerate(picks.tolist()):
            issue_at, client = heapq.heappop(clients)
            arrivals[i] = issue_at
            done_estimate = issue_at + max(estimate(pool[pick]), 0.0)
            heapq.heappush(clients, (done_estimate + self.think_seconds, client))
        return RequestTrace.from_arrays(
            arrivals,
            pool,
            picks,
            tenant_pool=[self.tenant],
            tenant_index=np.zeros(num_requests, dtype=np.int64),
        )


@dataclass
class BurstyArrivals:
    """Burst/diurnal open-loop traffic: a piecewise-constant-rate Poisson
    process that alternates between a base rate and a peak (burst) rate.

    The rate envelope is periodic: within every ``period_seconds`` window
    the first ``burst_fraction`` of the period (after the tenant's
    ``phase_seconds`` offset) runs at ``peak_rate_rps`` and the remainder at
    ``base_rate_rps``.  Arrivals are generated by thinning a homogeneous
    Poisson process at the peak rate (exact for piecewise-constant
    envelopes), so traces are fully deterministic under a seed.

    Per-tenant phase offsets let a multi-tenant scenario stagger its bursts
    (one tenant spikes while the others idle — the regime that stresses
    fairness); build one generator per tenant and combine the traces with
    :func:`merge_traces`.

    Attributes:
        workloads: the workload mix requests are drawn from (uniformly).
        base_rate_rps: offered load outside bursts (> 0).
        peak_rate_rps: offered load during bursts (>= ``base_rate_rps``).
        period_seconds: length of one envelope period (> 0).
        burst_fraction: fraction of each period spent at the peak rate
            (0 <= f <= 1).
        phase_seconds: offset of this stream's envelope (a tenant whose
            phase is ``p`` bursts during ``[k*period + p, k*period + p +
            burst_fraction*period)``).
        tenant: tenant identity stamped on every generated request.
        seed: RNG seed for gaps, thinning and workload picks.
    """

    workloads: Sequence[WorkloadProfile]
    base_rate_rps: float
    peak_rate_rps: float
    period_seconds: float
    burst_fraction: float = 0.25
    phase_seconds: float = 0.0
    tenant: str = DEFAULT_TENANT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_rate_rps <= 0:
            raise ValueError("base_rate_rps must be positive")
        if self.peak_rate_rps < self.base_rate_rps:
            raise ValueError("peak_rate_rps must be >= base_rate_rps")
        if self.period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise ValueError("burst_fraction must be within [0, 1]")

    @property
    def mean_rate_rps(self) -> float:
        """Time-averaged offered rate of the envelope."""
        return (
            self.burst_fraction * self.peak_rate_rps
            + (1.0 - self.burst_fraction) * self.base_rate_rps
        )

    def _rates_at(self, times: np.ndarray) -> np.ndarray:
        """Envelope rate at each timestamp (vectorized)."""
        in_period = np.mod(times - self.phase_seconds, self.period_seconds)
        burst = in_period < self.burst_fraction * self.period_seconds
        return np.where(burst, self.peak_rate_rps, self.base_rate_rps)

    def trace(self, num_requests: int) -> RequestTrace:
        """Generate a trace of ``num_requests`` timestamped requests.

        Thinning keeps the structure-of-arrays discipline of the other
        generators: candidate arrivals come in vectorized chunks at the
        peak rate and are accepted with probability ``rate(t) / peak``.
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self.seed)
        accepted: List[np.ndarray] = []
        total = 0
        t = 0.0
        # Chunked thinning: expected acceptance is mean/peak per candidate.
        chunk = max(int(num_requests * self.peak_rate_rps / self.mean_rate_rps), 16)
        while total < num_requests:
            gaps = rng.exponential(1.0 / self.peak_rate_rps, size=chunk)
            candidates = t + np.cumsum(gaps)
            t = float(candidates[-1])
            keep = rng.random(chunk) < self._rates_at(candidates) / self.peak_rate_rps
            kept = candidates[keep]
            accepted.append(kept)
            total += len(kept)
        arrivals = np.concatenate(accepted)[:num_requests]
        picks = _workload_picks(self.workloads, rng, num_requests)
        return RequestTrace.from_arrays(
            arrivals,
            list(self.workloads),
            picks,
            tenant_pool=[self.tenant],
            tenant_index=np.zeros(num_requests, dtype=np.int64),
        )


def merge_traces(traces: Sequence[RequestTrace]) -> RequestTrace:
    """Interleave several traces into one, by arrival time.

    The canonical way to build multi-tenant traffic: generate one
    (single-tenant) trace per tenant — e.g. :class:`BurstyArrivals` streams
    with per-tenant phase offsets — and merge them.  Workload and tenant
    pools are deduplicated across the inputs.

    **Id-reassignment contract**: the input traces' request ids are
    *discarded* — the merged trace numbers its requests ``0..n-1`` in merged
    arrival order (stable by input position at same-instant arrivals), which
    keeps ids unique across inputs that each start from 0.  Anything keyed
    on the original ids (e.g. a prior run's per-request records) cannot be
    joined against the merged trace; capture such joins before merging.
    The reassigned ids are exactly what a JSONL round-trip
    (:meth:`RequestTrace.to_jsonl` / :meth:`RequestTrace.from_jsonl`)
    preserves, so merged traces replay reproducibly from disk.

    Each input must itself be time-sorted (non-decreasing, finite
    arrivals) — the invariant :meth:`RequestTrace.from_arrays` established
    when the input was built.  A violation (hand-built arrays, corrupted
    capture) raises ``ValueError`` naming the offending trace, rather than
    silently producing a merged trace whose stable sort scrambles
    same-instant ordering downstream.
    """
    if not traces:
        raise ValueError("merge_traces needs at least one trace")
    pool: List[WorkloadProfile] = []
    slot_of: dict = {}
    tenants: List[str] = []
    tenant_slot_of: dict = {}
    arrival_parts: List[np.ndarray] = []
    index_parts: List[np.ndarray] = []
    tenant_parts: List[np.ndarray] = []
    for position, trace in enumerate(traces):
        arrays = trace.arrays()
        part = arrays.arrival_seconds
        if part.size:
            if not np.isfinite(part).all():
                raise ValueError(
                    f"merge_traces input {position} has non-finite arrival times"
                )
            if np.any(np.diff(part) < 0):
                raise ValueError(
                    f"merge_traces input {position} is not sorted by arrival time"
                )
        workload_map = np.empty(len(arrays.workload_pool), dtype=np.int64)
        for slot, workload in enumerate(arrays.workload_pool):
            merged_slot = slot_of.get(workload)
            if merged_slot is None:
                merged_slot = len(pool)
                slot_of[workload] = merged_slot
                pool.append(workload)
            workload_map[slot] = merged_slot
        tenant_map = np.empty(len(arrays.tenant_pool), dtype=np.int64)
        for slot, tenant in enumerate(arrays.tenant_pool):
            merged_slot = tenant_slot_of.get(tenant)
            if merged_slot is None:
                merged_slot = len(tenants)
                tenant_slot_of[tenant] = merged_slot
                tenants.append(tenant)
            tenant_map[slot] = merged_slot
        arrival_parts.append(arrays.arrival_seconds)
        index_parts.append(workload_map[arrays.workload_index])
        tenant_parts.append(tenant_map[arrays.tenant_index])
    arrivals = np.concatenate(arrival_parts)
    index = np.concatenate(index_parts)
    tenant_index = np.concatenate(tenant_parts)
    # Stable sort by arrival keeps same-instant requests in input order, and
    # the reassigned ids make that order canonical.
    order = np.argsort(arrivals, kind="stable")
    return RequestTrace.from_arrays(
        arrivals[order],
        pool,
        index[order],
        tenant_pool=tenants,
        tenant_index=tenant_index[order],
    )


class TraceArrivals:
    """Adapter that replays a fixed :class:`RequestTrace` as an online source.

    Implements the arrival-source protocol of the cluster event loop
    (:meth:`peek_time` / :meth:`pop` / :meth:`on_complete` / :meth:`on_shed`)
    for open-loop traffic: completions and sheds do not influence future
    arrivals.
    """

    def __init__(self, trace: RequestTrace) -> None:
        self._requests = list(trace)
        self._next = 0

    @property
    def num_issued(self) -> int:
        """Requests handed to the event loop so far."""
        return self._next

    def peek_time(self) -> Optional[float]:
        """Arrival time of the next request (None when the trace is drained)."""
        if self._next >= len(self._requests):
            return None
        return self._requests[self._next].arrival_seconds

    def pop(self) -> InferenceRequest:
        """Hand the next request to the event loop."""
        request = self._requests[self._next]
        self._next += 1
        return request

    def on_complete(self, request: InferenceRequest, finish_seconds: float) -> None:
        """Open-loop traffic ignores completions."""

    def on_shed(self, request: InferenceRequest, shed_seconds: float) -> None:
        """Open-loop traffic ignores sheds."""


class ClosedLoopClients:
    """Co-simulated closed-loop population driven by actual finish times.

    ``num_clients`` clients each keep at most one request outstanding.  The
    cluster event loop pops arrivals from this source and feeds real
    completion times back via :meth:`on_complete`; the owning client then
    thinks for ``think_seconds`` and issues its next request.  A shed request
    completes immediately from the client's point of view (the reject comes
    back at arrival time), so the client retries after the think time plus
    ``retry_backoff_seconds`` — which is what makes overload self-sustaining
    under load shedding.  With both zero, a persistently rejected client
    re-arrives at the same simulated instant and burns the request budget in
    place; give sheds a backoff when pairing this source with admission
    control.

    Fully deterministic: client wake-ups tie-break on client id and workload
    picks come from one seeded generator in issue order.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadProfile],
        num_clients: int,
        think_seconds: float = 0.0,
        seed: int = 0,
        max_requests: int = 0,
        retry_backoff_seconds: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if think_seconds < 0:
            raise ValueError("think_seconds must be non-negative")
        if max_requests <= 0:
            raise ValueError("max_requests must be positive")
        if retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be non-negative")
        if not workloads:
            raise ValueError("workload mix must be non-empty")
        self.workloads = list(workloads)
        self.num_clients = num_clients
        self.think_seconds = think_seconds
        self.max_requests = max_requests
        self.retry_backoff_seconds = retry_backoff_seconds
        self.tenant = tenant
        self._rng = np.random.default_rng(seed)
        self._idle: List[tuple] = [(0.0, c) for c in range(num_clients)]
        heapq.heapify(self._idle)
        self._owner: dict = {}
        self._issued = 0

    @property
    def num_issued(self) -> int:
        """Requests handed to the event loop so far."""
        return self._issued

    @property
    def num_outstanding(self) -> int:
        """Issued requests the loop has not yet completed or shed."""
        return len(self._owner)

    def peek_time(self) -> Optional[float]:
        """Issue time of the next client wake-up (None when budget exhausted)."""
        if self._issued >= self.max_requests or not self._idle:
            return None
        return self._idle[0][0]

    def pop(self) -> InferenceRequest:
        """Issue the next request from the earliest-waking idle client."""
        if self.peek_time() is None:
            raise IndexError("pop from an exhausted ClosedLoopClients source")
        issue_at, client = heapq.heappop(self._idle)
        if len(self.workloads) == 1:
            workload = self.workloads[0]
        else:
            workload = self.workloads[int(self._rng.integers(0, len(self.workloads)))]
        request = InferenceRequest(
            request_id=self._issued, arrival_seconds=issue_at, workload=workload,
            tenant=self.tenant,
        )
        self._owner[request.request_id] = client
        self._issued += 1
        return request

    def _rearm(self, request: InferenceRequest, at_seconds: float) -> None:
        client = self._owner.pop(request.request_id, None)
        if client is None:
            return
        heapq.heappush(self._idle, (at_seconds + self.think_seconds, client))

    def on_complete(self, request: InferenceRequest, finish_seconds: float) -> None:
        """The cluster finished ``request``; its client thinks, then re-issues."""
        self._rearm(request, finish_seconds)

    def on_shed(self, request: InferenceRequest, shed_seconds: float) -> None:
        """The cluster shed ``request`` at arrival; its client retries later."""
        self._rearm(request, shed_seconds + self.retry_backoff_seconds)
