"""The unified ``ServingConfig`` surface.

Two contracts:

1. *Validation*: a ``ServingConfig`` rejects contradictory field
   combinations at construction, and ``serve_trace`` rejects online-only
   features (admission, autoscaling) up front.
2. *One place per option*: the config carries only a run's control plane;
   what belongs to the cluster (engine, tenant weights, topology,
   placement) is validated by the constructor that takes it.
"""

from dataclasses import fields

import pytest
from conftest import WORKLOAD_POOL

import repro.serving as serving
from repro.serving import (
    Autoscaler,
    BatchScheduler,
    DegradationPolicy,
    OpenLoopArrivals,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
)


def _slo() -> SLOPolicy:
    return SLOPolicy(default_slo_seconds=0.2)


def _trace(num_requests=24, seed=5):
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=seed).trace(
        num_requests
    )


def _cluster(services, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault(
        "scheduler", BatchScheduler(max_batch_size=3, max_wait_seconds=0.003)
    )
    return ShardedServiceCluster(services["DynPre"], **kwargs)


# ---------------------------------------------------------------- validation
class TestValidation:
    def test_has_only_control_plane_fields(self):
        assert [f.name for f in fields(ServingConfig)] == [
            "slo", "admit", "record_decisions", "batch_aware", "degradation",
            "autoscaler", "faults",
        ]

    def test_rejects_unknown_engine(self, services):
        with pytest.raises(ValueError, match="engine"):
            _cluster(services, engine="warp")

    def test_rejects_admission_without_slo(self):
        for kwargs in (
            {"admit": True},
            {"batch_aware": True},
            {"record_decisions": False},
            {"degradation": DegradationPolicy()},
        ):
            with pytest.raises(ValueError, match="slo"):
                ServingConfig(**kwargs)

    def test_rejects_bad_tenant_weights(self):
        # An empty mapping would silently turn on fair mode (and with it
        # the per-event loop); None is the way to turn it off.
        with pytest.raises(ValueError, match="empty"):
            BatchScheduler(tenant_weights={})
        with pytest.raises(ValueError, match="positive"):
            BatchScheduler(tenant_weights={"free": 0.0})

    def test_serve_trace_rejects_online_only_features(self, services):
        cluster = _cluster(services)
        trace = _trace(4)
        with pytest.raises(ValueError, match="serve_online"):
            cluster.serve_trace(
                trace, config=ServingConfig(autoscaler=Autoscaler(max_shards=2))
            )
        with pytest.raises(ValueError, match="serve_online"):
            cluster.serve_trace(trace, config=ServingConfig(slo=_slo(), admit=True))

    def test_resolved_controller_carries_knobs(self):
        config = ServingConfig(
            slo=_slo(),
            admit=True,
            batch_aware=True,
            record_decisions=False,
            degradation=DegradationPolicy(k_factor=0.5),
        )
        controller = config.resolved_controller()
        assert controller.batch_aware is True
        assert controller.record_decisions is False
        assert controller.degradation is config.degradation
        # Score-only config builds no controller at all.
        assert ServingConfig(slo=_slo()).resolved_controller() is None


# ------------------------------------------------------------------- exports
def test_public_surface_is_importable():
    for name in serving.__all__:
        assert hasattr(serving, name), name
    for name in (
        "ServingConfig",
        "DegradationPolicy",
        "QUALITY_FULL",
        "QUALITY_DEGRADED",
        "QUALITY_TIERS",
    ):
        assert name in serving.__all__


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
