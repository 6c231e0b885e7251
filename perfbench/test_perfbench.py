"""Tests of the benchmark itself, on seconds-scale instances of its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIM_CALLS, WORKLOADS, tiny  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def _units(section: str):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def test_spec_lists_match_the_emitted_metrics():
    assert _units("end_to_end") == bench.END_TO_END
    assert _units("per_layer") == bench.per_layer_units()
    assert sorted(entry["name"] for entry in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = bench.run(tiny(name), seed=5, seconds=0.05, trace=trace, min_calls=12,
                       out_dir=tmp_path)
    assert result["correct"], result["report"]
    assert result["failed"] == 0 and result["attempted"] >= 13
    expected = _units("per_layer" if trace else "end_to_end")
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    for key, value in result["metrics"].items():
        assert isinstance(value["value"], float), key
    if trace:
        spans = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
        assert spans["spans"]["name"] and len(spans["spans"]["start"]) == len(
            spans["spans"]["parent"]
        )
    else:
        for key in bench.END_TO_END:
            assert result["metrics"][key]["value"] > 0, key


def _snapshot(targets):
    return [(t.owner, t.attr, t.attr in vars(t.owner), vars(t.owner).get(t.attr))
            for t in targets]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_restores_every_wrapped_attribute(name):
    workload = tiny(name)
    before = _snapshot(workload.targets)
    tracer = Tracer()
    state = workload.setup(1)
    with tracer.installed(workload.targets):
        assert _snapshot(workload.targets) != before
        with tracer.span("bench.call", call_id=0):
            workload.call(state, 0)
    assert _snapshot(workload.targets) == before
    with pytest.raises(RuntimeError):
        with tracer.installed(workload.targets):
            raise RuntimeError("boom")
    assert _snapshot(workload.targets) == before
    # Self times of one call sum to its root span.
    table = tracer.layer_table([0])
    root = tracer.root_durations([0])[0]
    assert sum(entry["self_s"] for entry in table.values()) == pytest.approx(root, rel=1e-9)


def _inputs(name, state):
    if name.startswith("pre"):
        return state.base.src.copy(), state.base.dst.copy()
    arrays = state.trace.arrays()
    return arrays.arrival_seconds.copy(), arrays.workload_index.copy()


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_and_checks_still_pass(name):
    workload = tiny(name)
    one, two = workload.setup(1), workload.setup(2)
    a, b = _inputs(name, one), _inputs(name, two)
    assert not all(len(x) == len(y) and (x == y).all() for x, y in zip(a, b))
    for state in (one, two):
        workload.oracle(state)
        for index in range(3):
            workload.check(state, index, workload.call(state, index))


@pytest.mark.parametrize("name", NAMES)
def test_simulated_results_repeat_exactly_traced_or_not(name):
    workload = tiny(name)

    def sim(traced: bool):
        state = workload.setup(7)
        tracer = Tracer()
        records = []
        for index in range(SIM_CALLS):
            if traced:
                with tracer.installed(workload.targets):
                    output = workload.call(state, index)
            else:
                output = workload.call(state, index)
            records.append(workload.sim_record(output))
        return workload.sim(state, records), records

    plain = sim(False)
    assert plain == sim(False)
    assert plain == sim(True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pre-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
