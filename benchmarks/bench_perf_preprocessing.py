"""Scaling microbenchmark: reference vs. vectorized preprocessing pipeline.

Times the end-to-end functional preprocessing pipeline (edge ordering, data
reshaping, unique random selection, subgraph reindexing, subgraph conversion)
in both execution modes on synthetic power-law graphs of increasing size, and
verifies the fast-path contract along the way: bit-exact reindexing output and
identical cycle counts between modes (see DESIGN.md).

Results are written to ``BENCH_perf_preprocessing.json`` at the repo root so
future PRs have a machine-readable perf trajectory.  ``GATES`` requires both
equivalence booleans at every scale that checks them and floors the
vectorized/reference speedup; ``benchmarks/check_perf_regression.py`` adds
the floor relative to the committed speedup.

Run standalone (``--quick`` skips the 1M-edge scale, for CI) or through
pytest-benchmark like the figure benchmarks.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

import numpy as np

from common import REPO_ROOT, Gate, bench_main, bench_test
from repro.core.accelerator import AutoGNNDevice
from repro.graph.generators import GraphSpec, power_law_graph
from repro.graph.sampling import MODE_REFERENCE, MODE_VECTORIZED
from repro.preprocessing.pipeline import PreprocessingConfig, preprocess

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_perf_preprocessing.json"

#: Benchmark scales: (label, nodes, edges, batch size).  The 100k-edge scale
#: is the acceptance gate (>= 10x vectorized speedup); the 1M-edge scale
#: documents the trajectory and is skipped in quick mode.
SCALES = [
    ("10k", 2_000, 10_000, 1_000),
    ("100k", 20_000, 100_000, 3_000),
    ("1m", 200_000, 1_000_000, 3_000),
]

#: Cycle-identity verification runs the reference-mode cycle simulator too,
#: so it is limited to scales at or below this edge count.
CYCLE_CHECK_MAX_EDGES = 100_000

#: Workload parameters shared by every scale.
K = 10
NUM_LAYERS = 2
SEED = 0

#: Absolute floor of the vectorized/reference speedup at every scale.
MIN_SPEEDUP = 5.0

GATES = (
    Gate("speedup", per="scale", floor=MIN_SPEEDUP,
         require=("bit_exact", "cycles_identical")),
)


def _time_pipeline(graph, batch_size: int, mode: str, repeats: int = 5) -> float:
    """Minimum wall time of ``repeats`` pipeline passes.

    The minimum is the standard noise-robust estimator (scheduling jitter
    only ever adds time) and is applied to both modes symmetrically.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        preprocess(
            graph,
            k=K,
            num_layers=NUM_LAYERS,
            batch_size=batch_size,
            seed=SEED,
            mode=mode,
        )
        times.append(time.perf_counter() - start)
    return min(times)


def _check_equivalence(graph, batch_size: int) -> Dict[str, bool]:
    """Bit-exactness and cycle-identity checks between the two modes."""
    ref = preprocess(graph, k=K, num_layers=NUM_LAYERS, batch_size=batch_size, seed=SEED,
                     mode=MODE_REFERENCE)
    vec = preprocess(graph, k=K, num_layers=NUM_LAYERS, batch_size=batch_size, seed=SEED,
                     mode=MODE_VECTORIZED)
    bit_exact = (
        ref.reindex.mapping == vec.reindex.mapping
        and np.array_equal(ref.reindex.edges.src, vec.reindex.edges.src)
        and np.array_equal(ref.reindex.edges.dst, vec.reindex.edges.dst)
        and np.array_equal(ref.reindex.original_vids, vec.reindex.original_vids)
        and np.array_equal(ref.subgraph_csc.indptr, vec.subgraph_csc.indptr)
        and np.array_equal(ref.subgraph_csc.indices, vec.subgraph_csc.indices)
    )
    workload = PreprocessingConfig(k=K, num_layers=NUM_LAYERS, batch_size=batch_size, seed=SEED)
    ref_dev = AutoGNNDevice(mode=MODE_REFERENCE).preprocess(graph, workload)
    vec_dev = AutoGNNDevice(mode=MODE_VECTORIZED).preprocess(graph, workload)
    cycles_identical = ref_dev.timing.breakdown() == vec_dev.timing.breakdown()
    return {
        "bit_exact": bool(bit_exact),
        "cycles_identical": bool(cycles_identical),
        "total_cycles": int(vec_dev.timing.total_cycles),
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return the result document."""
    results: List[Dict] = []
    for label, num_nodes, num_edges, batch_size in SCALES:
        if quick and num_edges > 100_000:
            continue
        graph = power_law_graph(
            GraphSpec(num_nodes=num_nodes, num_edges=num_edges, degree_skew=0.5, seed=42)
        )
        vectorized_seconds = _time_pipeline(graph, batch_size, MODE_VECTORIZED)
        reference_seconds = _time_pipeline(graph, batch_size, MODE_REFERENCE)
        entry = {
            "scale": label,
            "num_nodes": num_nodes,
            "num_edges": num_edges,
            "batch_size": batch_size,
            "k": K,
            "num_layers": NUM_LAYERS,
            "reference_seconds": round(reference_seconds, 6),
            "vectorized_seconds": round(vectorized_seconds, 6),
            "speedup": round(reference_seconds / max(vectorized_seconds, 1e-12), 2),
        }
        if num_edges <= CYCLE_CHECK_MAX_EDGES:
            entry.update(_check_equivalence(graph, batch_size))
        results.append(entry)
        print(
            f"{label:>5}: reference {reference_seconds * 1e3:9.1f} ms | "
            f"vectorized {vectorized_seconds * 1e3:8.1f} ms | "
            f"speedup {entry['speedup']:7.1f}x"
            + (
                f" | bit_exact={entry['bit_exact']} cycles_identical={entry['cycles_identical']}"
                if "bit_exact" in entry
                else ""
            )
        )

    return {
        "benchmark": "perf_preprocessing",
        "quick": bool(quick),
        "results": results,
    }


def test_perf_preprocessing(benchmark):
    """Pytest-benchmark entry point (quick scales) with the acceptance gates."""
    document = bench_test(benchmark, sys.modules[__name__])
    by_scale = {entry["scale"]: entry for entry in document["results"]}
    assert by_scale["100k"]["bit_exact"]
    assert by_scale["100k"]["cycles_identical"]
    assert by_scale["100k"]["speedup"] >= 10.0


if __name__ == "__main__":
    sys.exit(bench_main(sys.modules[__name__], "skip the 1M-edge scale (CI mode)"))
