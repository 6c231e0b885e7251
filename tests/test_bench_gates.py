"""The bench gate evaluator of ``benchmarks/common.py``.

Every case runs on synthetic committed/fresh documents; no bench runs.  The
structural test checks the committed ``BENCH_*.json`` files against the
gate tables, so a renamed document key cannot silently disable a gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_perf_regression  # noqa: E402
from common import MISSING, Gate, check_against_baseline, evaluate, lookup  # noqa: E402

RATIO = (Gate("ratio", floor=1.5),)
WALL = (Gate("fast_seconds", per="scale", normalizer="reference_seconds"),)
TIER = (Gate("tier.seconds", normalizer="tier.norm", ceiling=60.0),)


def _scale(**entry):
    return {"results": [{"scale": 5000, **entry}]}


def test_pass_at_equality():
    assert evaluate("b", RATIO, {"ratio": 2.0}, {"ratio": 2.0}) == []
    committed = _scale(fast_seconds=1.0, reference_seconds=10.0)
    assert evaluate("e", WALL, committed, committed) == []


def test_fails_below_relative_floor():
    # 0.5 x committed 10.0 = 5.0 is above the absolute floor of 1.5.
    failures = evaluate("b", RATIO, {"ratio": 4.9}, {"ratio": 10.0})
    assert failures == ["b: ratio 4.900 below floor 5.000 (committed 10.000)"]
    assert evaluate("b", RATIO, {"ratio": 5.0}, {"ratio": 10.0}) == []


def test_fails_below_absolute_floor_when_relative_floor_is_lower():
    # 0.5 x committed 2.0 = 1.0 is below the absolute floor of 1.5.
    failures = evaluate("b", RATIO, {"ratio": 1.4}, {"ratio": 2.0})
    assert failures == ["b: ratio 1.400 below floor 1.500 (committed 2.000)"]
    # Standalone runs (no committed document) check the absolute floor only.
    assert evaluate("b", RATIO, {"ratio": 1.4})
    assert evaluate("b", RATIO, {"ratio": 1.6}) == []


def test_absolute_only_row_ignores_the_committed_value():
    gates = (Gate("ratio", floor=1.5, relative=False),)
    assert evaluate("b", gates, {"ratio": 2.0}, {"ratio": 100.0}) == []


def test_per_scale_floors_come_from_the_mapping():
    gates = (Gate("speedup", per="scale", floor={5000: 3.0, 20000: 5.0}),)
    fresh = {"results": [{"scale": 5000, "speedup": 4.0}, {"scale": 20000, "speedup": 4.0}]}
    assert evaluate("e", gates, fresh) == ["e 20000: speedup 4.000 below floor 5.000"]


def test_machine_normalized_wall_budget():
    committed = _scale(fast_seconds=1.0, reference_seconds=10.0)
    # A machine half as fast: budget = 1.2 x (20 / 10) x 1.0 = 2.4 s.
    assert evaluate("e", WALL, _scale(fast_seconds=2.3, reference_seconds=20.0), committed) == []
    failures = evaluate("e", WALL, _scale(fast_seconds=2.5, reference_seconds=20.0), committed)
    assert failures == ["e 5000: fast_seconds 2.500 above budget 2.400 (committed 1.000)"]
    # At the committing machine's speed the budget is 1.2 s.
    assert evaluate("e", WALL, _scale(fast_seconds=1.3, reference_seconds=10.0), committed)


def test_wall_ceiling_and_skipped_tier():
    assert evaluate("e", TIER, {"tier": {"seconds": 59.0, "norm": 9.0}}) == []
    assert evaluate("e", TIER, {"tier": {"seconds": 61.0, "norm": 9.0}}) == [
        "e: tier.seconds 61.000 above budget 60.000"
    ]
    # A null section is a tier the run skipped: reported, not failed.
    committed = {"tier": {"seconds": 1.0, "norm": 9.0}}
    assert evaluate("e", TIER, {"tier": None}, committed) == []
    # ... but a committed baseline without the tier fails when it runs.
    failures = evaluate("e", TIER, committed, {"tier": None})
    assert failures and "committed baseline has no tier.seconds" in failures[0]


def test_required_boolean_false_fails():
    gates = (Gate("speedup", per="scale", floor=5.0, require=("bit_exact", "cycles_identical")),)
    fresh = {
        "results": [
            {"scale": "10k", "speedup": 12.0, "bit_exact": False, "cycles_identical": True},
            {"scale": "1m", "speedup": 6.0},  # this scale carries no equivalence check
        ]
    }
    assert evaluate("pre", gates, fresh, fresh) == ["pre 10k: bit_exact is False, must be true"]
    stress = (Gate("ratio", floor=1.0, require=("stress.conserved",)),)
    assert evaluate("f", stress, {"ratio": 2.0, "stress": {"conserved": False}}) == [
        "f: stress.conserved is False, must be true"
    ]
    assert evaluate("f", stress, {"ratio": 2.0, "stress": {}}) == [
        "f: stress.conserved is missing, must be true"
    ]


def test_missing_baseline_fails_without_running(tmp_path):
    def run(quick):
        raise AssertionError("the fresh run must not start without a baseline")

    module = SimpleNamespace(
        RESULT_PATH=tmp_path / "BENCH_x.json",
        GATES=RATIO,
        run=run,
        __file__=str(tmp_path / "bench_x.py"),
    )
    failures = check_against_baseline(module)
    assert len(failures) == 1
    assert "x: committed baseline BENCH_x.json is missing" in failures[0]
    assert "python benchmarks/bench_x.py" in failures[0]


def test_every_committed_document_has_resolving_gate_rows():
    modules = {module.RESULT_PATH: module for module in check_perf_regression.GATED_BENCHES}
    assert set(REPO_ROOT.glob("BENCH_*.json")) == set(modules)
    for path, module in modules.items():
        assert module.GATES, f"{path.name} has no gate rows"
        document = json.loads(path.read_text())
        for gate in module.GATES:
            entries = document["results"] if gate.per else [document]
            for sub in filter(None, (gate.metric, gate.normalizer)):
                values = [lookup(entry, sub) for entry in entries]
                assert all(v is not None and v is not MISSING for v in values), (path.name, sub)
            for sub in gate.require:
                values = [lookup(entry, sub) for entry in entries]
                assert any(v is True for v in values), (path.name, sub)
