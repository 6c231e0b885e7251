"""Batch scheduler: coalesce compatible requests into batched preprocessing.

Requests whose workloads agree on everything except the seed-batch size (see
:meth:`~repro.system.workload.WorkloadProfile.batch_key`) can share one
preprocessing pass: their seed sets are concatenated, so the batched pass is
the same workload with the batch sizes summed — exactly what the vectorized
samplers' batch APIs (``CSCGraph.in_neighbors_batch``) exploit on the
functional path, and what the analytic models price through ``batch_size``.

The scheduler implements the classic size-or-timeout policy: a batch closes
as soon as it reaches ``max_batch_size`` (ready at the filling request's
arrival) or when ``max_wait_seconds`` elapse after its first request arrived
(ready at that deadline), whichever comes first.  With ``max_batch_size=1``
every request becomes its own batch, ready at its own arrival, which is the
contract the 1-shard identity test leans on.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.serving.requests import InferenceRequest, RequestTrace
from repro.system.workload import WorkloadProfile


class BatchPlan(NamedTuple):
    """Array-level batch formation result (the chunked engine's working set).

    One row per batch, in dispatch order: the order in which the event
    loop's batcher closes the same batches (ready times never decrease).
    Member rows are *positions* into the trace's structure-of-arrays view
    (:meth:`~repro.serving.requests.RequestTrace.arrays`), so a plan never
    materializes request objects.

    Attributes:
        member_positions: int64 trace positions, concatenated per batch;
            batch ``b`` owns ``member_positions[batch_offsets[b]:
            batch_offsets[b + 1]]``, in arrival order.
        batch_offsets: int64 prefix offsets, length ``num_batches + 1``.
        ready_seconds: float64 close time per batch.
        base_slot: int64 workload-pool slot of each batch's first member
            (the profile the merged workload derives from).
        merged_sizes: int64 summed member batch sizes per batch (the merged
            workload's ``batch_size``).
    """

    member_positions: np.ndarray
    batch_offsets: np.ndarray
    ready_seconds: np.ndarray
    base_slot: np.ndarray
    merged_sizes: np.ndarray

    @property
    def num_batches(self) -> int:
        return len(self.ready_seconds)


@dataclass
class RequestBatch:
    """A group of compatible requests served by one preprocessing pass.

    Attributes:
        requests: member requests in arrival order.
        ready_seconds: simulated time at which the batch closed and became
            dispatchable (arrival of the filling request, or the batching
            timeout deadline).
    """

    requests: List[InferenceRequest]
    ready_seconds: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def key(self) -> Hashable:
        """The compatibility key all member workloads share."""
        return self.requests[0].workload.batch_key

    @property
    def workload(self) -> WorkloadProfile:
        """The merged workload of the batch: member batch sizes summed."""
        base = self.requests[0].workload
        total = sum(request.workload.batch_size for request in self.requests)
        return base.with_batch_size(total)

    @property
    def first_arrival_seconds(self) -> float:
        """Arrival time of the earliest member request."""
        return self.requests[0].arrival_seconds

    def batching_delay(self, request: InferenceRequest) -> float:
        """Time ``request`` spent waiting for its batch to close."""
        return self.ready_seconds - request.arrival_seconds


class BatchScheduler:
    """Size-or-timeout batching over a request trace.

    Args:
        max_batch_size: maximum requests coalesced into one pass (>= 1).
        max_wait_seconds: how long the first request of a batch may wait for
            companions before the batch closes anyway (>= 0; 0 disables
            cross-request batching unless arrivals coincide exactly).
        tenant_weights: enables weighted-fair batch formation.  A mapping of
            tenant name to weight; a tenant's slot quantum per batch is its
            weighted share of ``max_batch_size`` (unlisted tenants weigh
            1.0 against the listed total).  ``None`` (the default) keeps
            the plain FIFO fill — single-tenant behaviour is unchanged.
            See :class:`TenantFairBatcher` for the deficit round-robin
            mechanics.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.0,
        tenant_weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        if tenant_weights is not None:
            for tenant, weight in tenant_weights.items():
                if weight <= 0:
                    raise ValueError(f"weight for tenant {tenant!r} must be positive")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.tenant_weights = dict(tenant_weights) if tenant_weights is not None else None

    @property
    def fair(self) -> bool:
        """Whether weighted-fair (tenant-aware) batch formation is enabled."""
        return self.tenant_weights is not None

    def online_batcher(self) -> Union["FifoBatcher", "TenantFairBatcher"]:
        """A fresh batch-formation state machine for one online run."""
        return TenantFairBatcher(self) if self.fair else FifoBatcher(self)

    def schedule_arrays(self, trace: RequestTrace) -> BatchPlan:
        """Batch formation on the trace's SoA view, no request objects.

        The batch plan of the chunked serving engine: batch membership
        under the size-or-timeout policy is independent per compatibility
        key, so each key's arrival subsequence chunks greedily — a batch
        opened at ``t0`` absorbs same-key arrivals strictly before ``t0 +
        max_wait_seconds`` (an arrival exactly at the deadline fires the
        timer first and starts the next batch, the event loop's tie-break)
        up to ``max_batch_size``, closing at the filling member's arrival
        or at the deadline.  Each chunk boundary is one bisection *from the
        chunk's start* (not over the key's whole timestamp array), and the
        plan rows are sorted into the order in which :class:`FifoBatcher`,
        driven by the event loop, closes the same batches.

        Fair mode has no array-level path (membership depends on the
        deficit state, not just per-key arrival order) and raises; callers
        gate on :attr:`fair` and fall back to the event loop.
        """
        if self.fair:
            raise ValueError("schedule_arrays() does not support fair mode")
        arrays = trace.arrays()
        arrivals = arrays.arrival_seconds
        workload_index = arrays.workload_index
        pool = arrays.workload_pool
        num_requests = len(arrivals)

        # Map workload-pool slots to compatibility-key ids (slots that differ
        # only in batch size share a key and therefore a group).
        key_id_of: Dict[Hashable, int] = {}
        keyid_of_slot = np.empty(len(pool), dtype=np.int64)
        for slot, workload in enumerate(pool):
            key = workload.batch_key
            key_id = key_id_of.setdefault(key, len(key_id_of))
            keyid_of_slot[slot] = key_id
        if len(key_id_of) <= 1:
            order = np.arange(num_requests, dtype=np.int64)
            group_starts = [0] if num_requests else []
            group_ends = [num_requests] if num_requests else []
        else:
            request_keys = keyid_of_slot[workload_index]
            # Stable sort keeps each key's subsequence in arrival order.
            order = np.argsort(request_keys, kind="stable")
            sorted_keys = request_keys[order]
            cuts = (np.flatnonzero(np.diff(sorted_keys)) + 1).tolist()
            group_starts = [0] + cuts
            group_ends = cuts + [num_requests]

        wait = self.max_wait_seconds
        cap = self.max_batch_size
        batch_starts: List[int] = []
        batch_ends: List[int] = []
        ready_list: List[float] = []
        filled_list: List[bool] = []
        for group_start, group_end in zip(group_starts, group_ends):
            times = arrivals[order[group_start:group_end]].tolist()
            count = group_end - group_start
            start = 0
            while start < count:
                deadline = times[start] + wait
                # Bisect from the chunk's start: an arrival exactly at the
                # deadline belongs to the next batch (side="left").
                boundary = bisect_left(times, deadline, start)
                if boundary <= start:
                    # max_wait_seconds == 0: the opener always joins its own
                    # batch before the timer can fire.
                    boundary = start + 1
                filled = boundary - start >= cap
                if filled:
                    end = start + cap
                    ready = times[end - 1]
                else:
                    end = boundary
                    ready = deadline
                batch_starts.append(group_start + start)
                batch_ends.append(group_start + end)
                ready_list.append(ready)
                filled_list.append(filled)
                start = end

        starts = np.asarray(batch_starts, dtype=np.int64)
        ends = np.asarray(batch_ends, dtype=np.int64)
        ready_seconds = np.asarray(ready_list, dtype=np.float64)
        filled = np.asarray(filled_list, dtype=bool)
        first_positions = order[starts] if len(starts) else starts
        first_ids = arrays.request_ids[first_positions]
        # Dispatch order is the event loop's closure order.  A filled batch
        # closes while its last member is added; a timed-out batch fires
        # just before the first later arrival at or past its deadline (or
        # after the last arrival), ahead of that arrival's own close, and
        # timers firing together go in (deadline, first request id) order.
        last_positions = order[ends - 1] if len(ends) else ends
        step = np.where(
            filled,
            last_positions,
            np.maximum(
                np.searchsorted(arrivals, ready_seconds, side="left"), last_positions + 1
            ),
        )
        dispatch = np.lexsort((first_ids, ready_seconds, filled, step))
        starts, ends, ready_seconds = starts[dispatch], ends[dispatch], ready_seconds[dispatch]
        counts = ends - starts
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Gather member positions batch-contiguously without a Python loop:
        # element j of batch b reads order[starts[b] + j].
        flat = np.arange(num_requests, dtype=np.int64)
        gather = np.repeat(starts - offsets[:-1], counts) + flat
        member_positions = order[gather]
        base_slot = workload_index[member_positions[offsets[:-1]]] if len(starts) else starts
        sizes_of_slot = np.asarray([w.batch_size for w in pool], dtype=np.int64)
        member_sizes = sizes_of_slot[workload_index[member_positions]]
        merged_sizes = (
            np.add.reduceat(member_sizes, offsets[:-1])
            if len(starts)
            else np.zeros(0, dtype=np.int64)
        )
        return BatchPlan(
            member_positions=member_positions,
            batch_offsets=offsets,
            ready_seconds=ready_seconds,
            base_slot=base_slot,
            merged_sizes=merged_sizes,
        )


class FifoBatcher:
    """First-come, first-served size-or-timeout batch formation for one run.

    The per-event counterpart of :meth:`BatchScheduler.schedule_arrays`,
    with the event interface of :class:`TenantFairBatcher` so the event
    loop drives either one.  Open batches expire through a heap of
    ``(deadline, first member id, key)`` entries with lazy invalidation:
    :meth:`peek_deadline` returns what ``min`` over the open batches by
    ``(deadline, first member id)`` would — simultaneous timers fire in
    first-member-id order — without scanning every open batch.
    """

    __slots__ = ("cap", "wait", "_members", "_deadline", "_heap", "pending_count")

    def __init__(self, scheduler: BatchScheduler) -> None:
        self.cap = scheduler.max_batch_size
        self.wait = scheduler.max_wait_seconds
        self._members: Dict[Hashable, List[InferenceRequest]] = {}
        self._deadline: Dict[Hashable, float] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        #: Requests waiting in open batches.
        self.pending_count = 0

    def open_members(self, key: Hashable) -> Optional[List[InferenceRequest]]:
        """Members of the forming batch for ``key`` (None when no batch)."""
        return self._members.get(key)

    def can_join(self, key: Hashable, tenant: str) -> bool:
        """Every arrival joins its key's forming batch in FIFO mode."""
        return True

    def add(self, request: InferenceRequest, now: float) -> List[RequestBatch]:
        """Feed one arrival; returns the batch it filled, if any."""
        key = request.workload.batch_key
        members = self._members.get(key)
        if members is None:
            members = []
            self._members[key] = members
            deadline = now + self.wait
            self._deadline[key] = deadline
            heapq.heappush(self._heap, (deadline, request.request_id, key))
        members.append(request)
        self.pending_count += 1
        if len(members) >= self.cap:
            return [self._close(key, now)]
        return []

    def peek_deadline(self) -> Optional[Tuple[float, int, Hashable]]:
        """Earliest ``(deadline, first member id, key)`` among open batches."""
        heap = self._heap
        while heap:
            deadline, first_id, key = heap[0]
            members = self._members.get(key)
            if (
                members is not None
                and self._deadline[key] == deadline
                and members[0].request_id == first_id
            ):
                return heap[0]
            heapq.heappop(heap)
        return None

    def fire_deadline(self, expiring: Tuple[float, int, Hashable]) -> List[RequestBatch]:
        """Close the batch :meth:`peek_deadline` just returned."""
        heapq.heappop(self._heap)
        deadline, _, key = expiring
        return [self._close(key, deadline)]

    def _close(self, key: Hashable, ready: float) -> RequestBatch:
        members = self._members.pop(key)
        del self._deadline[key]
        self.pending_count -= len(members)
        return RequestBatch(requests=members, ready_seconds=ready)


@dataclass
class _OpenFairBatch:
    """One forming batch of the fair batcher (per compatibility key)."""

    members: List[InferenceRequest] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    deadline: float = 0.0


class TenantFairBatcher:
    """Weighted-fair (deficit round-robin) batch formation for one run.

    The plain size-or-timeout policy fills batches strictly first-come,
    first-served, so one heavy tenant's burst occupies every slot of every
    forming batch and a batch-compatible light tenant queues behind the
    whole burst.  The fair batcher bounds that: each tenant holds a *slot
    quantum* per batch — its weighted share of ``max_batch_size`` — backed
    by a per-tenant **deficit counter** that is granted one quantum every
    time a batch opens (capped at two quanta so idle tenants cannot hoard
    entitlement).  An arriving request joins the open batch only while its
    tenant has deficit credit; beyond that it waits in its tenant's
    FIFO spill queue.

    When a batch closes (size or timeout), spilled requests reseed the next
    batch by deficit round-robin over tenants in sorted-name order.  The
    reseed is **work-conserving**: if every spilling tenant has exhausted
    its credit and slots remain, the leftover slots are filled round-robin
    anyway — fairness shapes slot *allocation under contention*, it never
    idles capacity (a lone heavy tenant batches exactly as in FIFO mode).
    A reseeded batch that fills to the cap closes immediately at the same
    instant and cascades.

    Everything is event-local and deterministic: offline fair-mode replay
    and online serving drive it through the same event loop.
    """

    def __init__(self, scheduler: BatchScheduler) -> None:
        if scheduler.tenant_weights is None:
            raise ValueError("TenantFairBatcher requires tenant_weights")
        self.cap = scheduler.max_batch_size
        self.wait = scheduler.max_wait_seconds
        self.weights = dict(scheduler.tenant_weights)
        self._total_weight = sum(self.weights.values()) or 1.0
        self._open: Dict[Hashable, _OpenFairBatch] = {}
        self._spill: Dict[Hashable, Dict[str, Deque[InferenceRequest]]] = {}
        self._deficit: Dict[Hashable, Dict[str, float]] = {}
        self._pending = 0

    # ------------------------------------------------------------- quanta
    def quantum(self, tenant: str) -> float:
        """Slot entitlement of ``tenant`` per batch (>= 1 slot)."""
        weight = self.weights.get(tenant, 1.0)
        return max(1.0, self.cap * weight / self._total_weight)

    @property
    def pending_count(self) -> int:
        """Requests waiting in open batches or spill queues."""
        return self._pending

    def open_members(self, key: Hashable) -> Optional[List[InferenceRequest]]:
        """Members of the forming batch for ``key`` (None when no batch)."""
        batch = self._open.get(key)
        return batch.members if batch is not None else None

    def can_join(self, key: Hashable, tenant: str) -> bool:
        """Whether a ``tenant`` arrival would join ``key``'s forming batch.

        False when the tenant's spill queue is non-empty, the batch is
        full, or the tenant's deficit credit is exhausted — exactly the
        conditions under which :meth:`add` would spill the request.  Used
        by batching-aware admission so a request headed for the spill
        queue is priced at its full standalone cost, not the marginal
        merged-batch increment it will not get.
        """
        batch = self._open.get(key)
        if batch is None or len(batch.members) >= self.cap:
            return False
        spill = self._spill.get(key)
        if spill is not None and spill.get(tenant):
            return False
        return self._credit(key, tenant) >= 1.0

    # ------------------------------------------------------------- events
    def _grant(self, key: Hashable) -> None:
        """Grant one quantum of deficit to every tenant known to ``key``."""
        deficits = self._deficit.setdefault(key, {})
        spill = self._spill.get(key, {})
        for tenant in set(deficits) | set(spill):
            quantum = self.quantum(tenant)
            if spill.get(tenant):
                deficits[tenant] = min(
                    deficits.get(tenant, 0.0) + quantum, 2.0 * quantum
                )
            else:
                deficits[tenant] = quantum

    def _credit(self, key: Hashable, tenant: str) -> float:
        deficits = self._deficit.setdefault(key, {})
        if tenant not in deficits:
            deficits[tenant] = self.quantum(tenant)
        return deficits[tenant]

    def add(self, request: InferenceRequest, now: float) -> List[RequestBatch]:
        """Feed one arrival; returns the batches it caused to close."""
        key = request.workload.batch_key
        batch = self._open.get(key)
        if batch is None:
            batch = _OpenFairBatch(deadline=now + self.wait)
            self._open[key] = batch
            self._grant(key)
        tenant = request.tenant
        spill = self._spill.setdefault(key, {})
        queue = spill.get(tenant)
        self._pending += 1
        if (
            (queue is None or not queue)
            and len(batch.members) < self.cap
            and self._credit(key, tenant) >= 1.0
        ):
            self._deficit[key][tenant] -= 1.0
            batch.members.append(request)
            batch.counts[tenant] = batch.counts.get(tenant, 0) + 1
            if len(batch.members) >= self.cap:
                return self._close(key, now)
            return []
        if queue is None:
            queue = deque()
            spill[tenant] = queue
        queue.append(request)
        return []

    def peek_deadline(self) -> Optional[Tuple[float, int, Hashable]]:
        """Earliest ``(deadline, first member id, key)`` among open batches."""
        best: Optional[Tuple[float, int, Hashable]] = None
        for key, batch in self._open.items():
            entry = (batch.deadline, batch.members[0].request_id, key)
            if best is None or entry[:2] < best[:2]:
                best = entry
        return best

    def fire_deadline(
        self, expiring: Optional[Tuple[float, int, Hashable]] = None
    ) -> List[RequestBatch]:
        """Close the batch whose deadline is earliest (cascading reseeds).

        Callers that already hold the :meth:`peek_deadline` result pass it
        in to skip a second scan over the open batches.
        """
        if expiring is None:
            expiring = self.peek_deadline()
        if expiring is None:
            raise ValueError("no open batch to expire")
        deadline, _, key = expiring
        return self._close(key, deadline)

    def _close(self, key: Hashable, ready: float) -> List[RequestBatch]:
        """Close the open batch for ``key`` at ``ready`` and reseed."""
        closed: List[RequestBatch] = []
        batch = self._open.pop(key)
        self._pending -= len(batch.members)
        closed.append(RequestBatch(requests=batch.members, ready_seconds=ready))
        spill = self._spill.get(key)
        while spill and any(spill.values()):
            reseed = _OpenFairBatch(deadline=ready + self.wait)
            self._open[key] = reseed
            self._grant(key)
            deficits = self._deficit[key]
            tenants = sorted(t for t, queue in spill.items() if queue)
            # Credit-respecting passes first, then work-conserving fill.
            for respect_credit in (True, False):
                progressed = True
                while progressed and len(reseed.members) < self.cap:
                    progressed = False
                    for tenant in tenants:
                        queue = spill.get(tenant)
                        if not queue or len(reseed.members) >= self.cap:
                            continue
                        if respect_credit and deficits.get(tenant, 0.0) < 1.0:
                            continue
                        if respect_credit:
                            deficits[tenant] -= 1.0
                        reseed.members.append(queue.popleft())
                        reseed.counts[tenant] = reseed.counts.get(tenant, 0) + 1
                        progressed = True
                if len(reseed.members) >= self.cap:
                    break
            if len(reseed.members) >= self.cap:
                self._open.pop(key)
                self._pending -= len(reseed.members)
                closed.append(RequestBatch(requests=reseed.members, ready_seconds=ready))
                continue
            # Partially reseeded batch stays open until its own deadline.
            break
        if not self._open.get(key):
            # No forming batch left: clear the key's bookkeeping so tenants
            # start from a fresh quantum next time traffic appears.
            self._open.pop(key, None)
            if spill is not None and not any(spill.values()):
                self._spill.pop(key, None)
                self._deficit.pop(key, None)
        return closed
