"""The chaos-sweep invariant harness (tier-1 budget).

CI runs the same harness with a larger ``--examples`` budget as a separate
job (``python -m repro.serving.chaos``); this tier keeps a small sweep in
the default test run so invariant regressions surface locally.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serving.chaos as chaos_module
from repro.serving.chaos import (
    INVARIANTS,
    ChaosInvariantError,
    chaos_scenarios,
    run_chaos_sweep,
    run_scenario,
)

#: Tier-1 sweep budget — the CI chaos job runs a much larger one.
TEST_SWEEP_EXAMPLES = 10


def test_scenarios_are_deterministic_and_cover_required_races():
    first = chaos_scenarios(TEST_SWEEP_EXAMPLES, seed=1)
    second = chaos_scenarios(TEST_SWEEP_EXAMPLES, seed=1)
    assert len(first) == TEST_SWEEP_EXAMPLES
    assert [s.as_dict() for s in first] == [s.as_dict() for s in second]
    names = {s.name for s in first}
    # The handcrafted edge scenarios always lead the sweep.
    assert {
        "edge-recover-same-instant",
        "edge-outage-races-drain",
        "edge-retry-storm-budget0",
        "edge-whole-cluster-outage",
    } <= names
    # Whole-domain outages race autoscaler drains: every scenario scales and
    # most inject correlated domain events.
    assert sum(1 for s in first if s.faults.domain_events) >= len(first) // 2
    # Retry budgets vary, including the zero-budget storm.
    assert {s.faults.retry_budget for s in first} != {0}
    assert any(s.faults.retry_budget == 0 for s in first)


def test_sweep_passes_all_invariants(services):
    summary = run_chaos_sweep(num_examples=TEST_SWEEP_EXAMPLES, seed=0, services=services)
    assert summary["examples"] == TEST_SWEEP_EXAMPLES
    assert tuple(summary["invariants"]) == INVARIANTS
    totals = summary["totals"]
    assert totals["offered"] == (
        totals["served"] + totals["shed"] + totals["failed"]
    )
    assert totals["offered"] > 0 and totals["served"] > 0
    # The sweep must actually exercise correlated whole-domain outages.
    assert totals["domain_outages"] > 0
    assert len(summary["runs"]) == TEST_SWEEP_EXAMPLES


def test_single_scenario_rows_agree_with_sweep(services):
    scenario = chaos_scenarios(1, seed=0)[0]
    row = run_scenario(services, scenario)
    assert row["scenario"] == scenario.name
    assert row["offered"] == row["served"] + row["shed"] + row["failed"]


def test_violation_writes_reproduction_artifact(services, tmp_path, monkeypatch):
    artifact_path = tmp_path / "chaos_failure.json"

    def broken_check(scenario, report, source, min_shards):
        raise ChaosInvariantError(
            "conservation", scenario.name, "forced for the artifact test",
            scenario.as_dict(),
        )

    monkeypatch.setattr(chaos_module, "_check_run", broken_check)
    with pytest.raises(ChaosInvariantError) as excinfo:
        run_chaos_sweep(
            num_examples=1, seed=0, services=services, artifact_path=artifact_path
        )
    assert excinfo.value.invariant == "conservation"
    artifact = json.loads(artifact_path.read_text())
    assert artifact["invariant"] == "conservation"
    assert artifact["name"] == excinfo.value.scenario
    # The artifact embeds enough to rebuild the failing schedule.
    assert "schedule" in artifact and "provenance" in artifact


def test_module_entry_point_runs_without_runtime_warning():
    """``python -m repro.serving.chaos`` executes the module once: the
    package must not import it, or runpy warns that it is already in
    ``sys.modules`` before running it as ``__main__``."""
    src = str(Path(chaos_module.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serving.chaos",
         "--examples", "1", "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
