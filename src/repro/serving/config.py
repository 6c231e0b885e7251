"""Unified serving configuration: one validated object per serving run.

A run's control-plane options — scoring, admission, degradation,
autoscaling and faults — live in one :class:`ServingConfig`, passed as
``serve_trace(trace, config=...)`` / ``serve_online(source, config=...)``
on :class:`~repro.serving.cluster.ShardedServiceCluster`, the only way to
pass run options.  Each value is set in exactly one place: what belongs to
the cluster (engine, scheduler and tenant weights, topology, placement) is
set on its constructor, and a fault schedule's health-check awareness on
the :class:`~repro.serving.faults.FaultSchedule`.

* **slo** scores the run; on its own it never sheds;
* **admit=True** builds an
  :class:`~repro.serving.control.AdmissionController` from ``slo`` for
  the run, with the admission knobs (``record_decisions``,
  ``batch_aware``, ``degradation``) carried by the config;
* **degradation** (a :class:`~repro.serving.control.DegradationPolicy`)
  turns binary shedding into quality-latency tiering: requests whose
  full-quality prediction violates the SLO are downgraded to a cheaper
  execution profile instead of shed;
* **faults** injects a shard fault schedule;
* **autoscaler** attaches elastic scaling (online loop only); with its
  ``drain=True`` default a scale-down drains-and-migrates queued work to
  the surviving shards instead of stranding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serving.control import (
    AdmissionController,
    Autoscaler,
    DegradationPolicy,
    SLOPolicy,
)
from repro.serving.faults import FaultSchedule


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving run needs, validated up front.

    Attributes:
        slo: latency objectives the run is scored against.  On its own it
            never sheds (score-only).
        admit: build an :class:`AdmissionController` from ``slo`` with the
            knobs below (requires ``slo``).
        record_decisions: keep the per-request admission decision log in
            the report (disable for memory-bounded 100k-request runs).
        batch_aware: predict with marginal merged-batch cost instead of the
            standalone estimate.
        degradation: quality-latency tiering policy; admission downgrades
            SLO-violating requests to their cheaper profile instead of
            shedding when the degraded prediction fits.
        autoscaler: elastic shard scaling (``serve_online`` only); the
            autoscaler's own ``drain`` flag picks drain-and-migrate
            (default) versus legacy stranding scale-downs.
        faults: shard crash/recover/slowdown schedule for the run.
    """

    slo: Optional[SLOPolicy] = None
    admit: bool = False
    record_decisions: bool = True
    batch_aware: bool = False
    degradation: Optional[DegradationPolicy] = None
    autoscaler: Optional[Autoscaler] = None
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self._admission_requested() and self.slo is None:
            raise ValueError(
                "admission (admit=True or any admission knob) requires an slo"
            )

    def _admission_requested(self) -> bool:
        return (
            self.admit
            or self.record_decisions is not True
            or self.batch_aware is not False
            or self.degradation is not None
        )

    def resolved_controller(self) -> Optional[AdmissionController]:
        """A fresh admission controller for one run (``None`` = no shedding).

        Every call builds a new controller, so token-bucket state never
        carries over from an earlier run with the same config.
        """
        if not self._admission_requested():
            return None
        return AdmissionController(
            self.slo,
            record_decisions=self.record_decisions,
            batch_aware=self.batch_aware,
            degradation=self.degradation,
        )
