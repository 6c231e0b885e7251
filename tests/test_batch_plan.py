"""Batch-formation boundary conditions: the event loop's batcher vs the
array-level plan.

The chunked engine consumes :meth:`BatchScheduler.schedule_arrays` directly,
while the event loop closes batches through ``online_batcher()``, so a
tie-break divergence between the two would silently skew *every* chunked
run.  These tests pin the boundaries where such a bug would first appear:
``max_wait_seconds=0`` (the opener-joins-own-batch clamp), duplicated
arrival timestamps, an arrival exactly on a batching deadline (timer fires
first), a batch filling to the cap on the same tick its deadline expires,
and two batches filling on the same tick.
"""

import numpy as np
import pytest
from conftest import make_profile, plan_batches, sweep_batches
from hypothesis import given, settings, strategies as st

from repro.serving import BatchScheduler, InferenceRequest, RequestTrace


def _trace(arrivals, workloads):
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=t, workload=w)
            for i, (t, w) in enumerate(zip(arrivals, workloads))
        ]
    )


def _assert_same_batches(scheduler, trace):
    reference = sweep_batches(scheduler, trace)
    fast = plan_batches(scheduler, trace)
    assert len(reference) == len(fast)
    for ref_batch, fast_batch in zip(reference, fast):
        assert ref_batch.ready_seconds == fast_batch.ready_seconds
        assert [r.request_id for r in ref_batch.requests] == [
            r.request_id for r in fast_batch.requests
        ]


class TestBoundaryPins:
    def test_zero_wait_duplicate_arrivals(self):
        """wait=0: each opener closes its own batch; duplicates don't merge."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.0)
        trace = _trace([0.0, 0.0, 0.0, 1.0, 1.0], [w] * 5)
        _assert_same_batches(scheduler, trace)
        batches = plan_batches(scheduler, trace)
        assert [len(b) for b in batches] == [1, 1, 1, 1, 1]

    def test_zero_wait_cap_one(self):
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=1, max_wait_seconds=0.0)
        trace = _trace([0.0, 0.0, 0.5], [w] * 3)
        _assert_same_batches(scheduler, trace)

    def test_arrival_exactly_at_deadline_starts_next_batch(self):
        """The timer fires before a same-instant arrival (left bisection)."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.005)
        trace = _trace([0.0, 0.003, 0.005, 0.006], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = plan_batches(scheduler, trace)
        assert [len(b) for b in batches] == [2, 2]
        assert batches[0].ready_seconds == 0.005
        assert [r.request_id for r in batches[1].requests] == [2, 3]

    def test_cap_fill_on_deadline_tick(self):
        """Batch reaches the cap by arrivals strictly inside the window."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.010)
        trace = _trace([0.0, 0.004, 0.008, 0.009], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = plan_batches(scheduler, trace)
        # Cap closes at the filling member's arrival, not the deadline.
        assert batches[0].ready_seconds == 0.008
        assert len(batches[0]) == 3

    def test_cap_equals_boundary_tie(self):
        """Exactly ``cap`` arrivals inside the window: size close wins."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.005)
        trace = _trace([0.0, 0.002, 0.005, 0.0055], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = plan_batches(scheduler, trace)
        assert batches[0].ready_seconds == 0.002
        assert len(batches[0]) == 2

    def test_same_tick_fills_close_in_filling_order(self):
        """Two keys filled on one tick close in the order of the filling
        arrivals, not by first member id (the event loop's order)."""
        a, b = make_profile("a"), make_profile("b", batch_size=7)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.01)
        trace = _trace([0.0, 0.001, 0.002, 0.002], [a, b, b, a])
        _assert_same_batches(scheduler, trace)
        batches = plan_batches(scheduler, trace)
        assert [[r.request_id for r in batch.requests] for batch in batches] == [
            [1, 2],
            [0, 3],
        ]

    def test_duplicate_arrivals_split_across_keys(self):
        a, b = make_profile("a"), make_profile("b", batch_size=7)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.001)
        trace = _trace([0.0, 0.0, 0.0, 0.0], [a, b, a, b])
        _assert_same_batches(scheduler, trace)


class TestBatchPlanStructure:
    def test_plan_rows_consistent(self):
        w = make_profile(batch_size=5)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.002)
        trace = _trace([0.0, 0.0005, 0.001, 0.01, 0.0101], [w] * 5)
        plan = scheduler.schedule_arrays(trace)
        assert plan.num_batches == len(plan.ready_seconds)
        assert plan.batch_offsets[0] == 0
        assert plan.batch_offsets[-1] == len(plan.member_positions)
        # Every trace position appears exactly once across the batches.
        assert sorted(plan.member_positions.tolist()) == list(range(5))
        # Merged size is the member count times the uniform profile size.
        counts = np.diff(plan.batch_offsets)
        assert (plan.merged_sizes == counts * 5).all()
        # Dispatch order is (ready, first member id): ready is sorted.
        ready = plan.ready_seconds
        assert (ready[:-1] <= ready[1:]).all()

    def test_fair_mode_raises(self):
        scheduler = BatchScheduler(
            max_batch_size=2, max_wait_seconds=0.001, tenant_weights={"a": 1.0}
        )
        trace = _trace([0.0], [make_profile()])
        with pytest.raises(ValueError, match="fair"):
            scheduler.schedule_arrays(trace)

    def test_empty_trace_plan(self):
        plan = BatchScheduler(max_batch_size=2).schedule_arrays(RequestTrace([]))
        assert plan.num_batches == 0
        assert len(plan.member_positions) == 0
        assert plan.batch_offsets.tolist() == [0]


class TestTieHeavyFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cap=st.integers(min_value=1, max_value=4),
        wait=st.sampled_from([0.0, 0.001, 0.002, 0.01]),
        num_requests=st.integers(min_value=1, max_value=40),
    )
    def test_duplicate_grid_fuzz(self, seed, cap, wait, num_requests):
        """Arrivals on a coarse grid force deadline/arrival/cap collisions."""
        import random

        rng = random.Random(seed)
        profiles = [make_profile("a"), make_profile("b", batch_size=3)]
        arrivals = sorted(rng.choice(range(12)) * 1e-3 for _ in range(num_requests))
        workloads = [rng.choice(profiles) for _ in range(num_requests)]
        scheduler = BatchScheduler(max_batch_size=cap, max_wait_seconds=wait)
        _assert_same_batches(scheduler, _trace(arrivals, workloads))
