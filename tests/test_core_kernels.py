"""Tests for the UPE/SCR kernels and the shared cycle-count formulas."""

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.core.kernels import (
    SCRKernel,
    UPEKernel,
    key_bits_for_nodes,
    ordering_cycle_count,
    reindexer_scan_width,
    reindexing_cycle_count,
    reindexing_cycle_estimate,
    reshaping_cycle_count,
    reshaping_cycle_estimate,
    selection_cycle_count,
)
from repro.graph.convert import coo_to_csc, edge_order
from repro.graph.coo import COOGraph
from repro.graph.reindex import reindex_edges


@pytest.fixture
def config():
    return HardwareConfig(num_upes=8, upe_width=32, num_scrs=2, scr_width=64)


class TestCycleFormulas:
    def test_key_bits(self):
        assert key_bits_for_nodes(2) == 2
        assert key_bits_for_nodes(1024) == 20
        assert key_bits_for_nodes(1025) == 22

    def test_ordering_scales_with_edges(self, config):
        small = ordering_cycle_count(1000, 100, config)
        large = ordering_cycle_count(100_000, 100, config)
        assert large > small
        assert ordering_cycle_count(0, 100, config) == 0

    def test_ordering_improves_with_more_upes(self):
        few = HardwareConfig(num_upes=2, upe_width=32)
        many = HardwareConfig(num_upes=64, upe_width=32)
        assert ordering_cycle_count(100_000, 1000, many) < ordering_cycle_count(100_000, 1000, few)

    def test_selection_cycles(self, config):
        assert selection_cycle_count(0, 0, config) == 0
        assert selection_cycle_count(80, 8, config) == (80 + 8 * 3 + 7) // 8

    def test_reshaping_count_vs_estimate(self, config, medium_graph):
        ordered = edge_order(medium_graph)
        exact = reshaping_cycle_count(ordered.dst, medium_graph.num_nodes, config)
        estimate = reshaping_cycle_estimate(medium_graph.num_edges, medium_graph.num_nodes, config)
        assert exact > 0
        # The aggregate estimate is within a small factor of the exact walk.
        assert 0.3 <= exact / estimate <= 3.0

    def test_reshaping_empty(self, config):
        assert reshaping_cycle_count(np.array([], dtype=int), 10, config) == 0
        assert reshaping_cycle_estimate(0, 10, config) == 0

    def test_reindexer_scan_width(self, config):
        assert reindexer_scan_width(config) == 128

    def test_reindexing_count(self, config):
        sizes = [1, 10, 200, 300]
        cycles = reindexing_cycle_count(sizes, config)
        assert cycles == 1 + 1 + 2 + 3

    def test_reindexing_estimate(self, config):
        assert reindexing_cycle_estimate(0, 100, config) == 0
        assert reindexing_cycle_estimate(10, 100, config) == 10
        assert reindexing_cycle_estimate(10, 1000, config) == 40


def _assert_exact_edge_order(ordered: COOGraph, graph: COOGraph) -> None:
    """``ordered`` is ``graph`` sorted by (dst, src), element for element."""
    reference = edge_order(graph)
    lex = np.lexsort((graph.src, graph.dst))
    assert np.array_equal(ordered.src, reference.src)
    assert np.array_equal(ordered.dst, reference.dst)
    assert np.array_equal(ordered.src, graph.src[lex])
    assert np.array_equal(ordered.dst, graph.dst[lex])
    assert ordered.num_nodes == graph.num_nodes


def _random_graph(num_nodes: int, num_edges: int, seed: int) -> COOGraph:
    """Random multigraph that always touches the largest VID."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    src[0] = dst[-1] = num_nodes - 1
    return COOGraph(src=src, dst=dst, num_nodes=num_nodes)


#: Inputs of the exact edge-ordering checks: a multigraph with duplicate
#: edges and self-loops, node counts at the key-shift boundaries (the shift
#: is ``num_nodes.bit_length()``, which steps at every power of two) and the
#: empty graph.
EDGE_ORDERING_CASES = {
    "multigraph": COOGraph(
        src=np.array([3, 1, 3, 0, 2, 2, 3, 4, 1, 4, 0, 3]),
        dst=np.array([2, 1, 2, 4, 2, 0, 2, 4, 1, 0, 4, 2]),
        num_nodes=5,
    ),
    "nodes-1": COOGraph(src=np.zeros(7, dtype=int), dst=np.zeros(7, dtype=int), num_nodes=1),
    **{
        f"nodes-{n}": _random_graph(n, 97, seed=n)
        for n in (2, 3, 4, 5, 31, 32, 33, 1023, 1024, 1025)
    },
    "empty": COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=4),
    "empty-no-nodes": COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=0),
}


class TestUPEKernel:
    def test_edge_ordering_matches_reference(self, medium_graph, config):
        kernel = UPEKernel(config)
        ordered, cycles = kernel.edge_ordering(medium_graph)
        _assert_exact_edge_order(ordered, medium_graph)
        assert ordered.is_sorted()
        assert cycles == ordering_cycle_count(medium_graph.num_edges, medium_graph.num_nodes, config)

    @pytest.mark.parametrize("detailed", [False, True], ids=["fast", "detailed"])
    @pytest.mark.parametrize("case", sorted(EDGE_ORDERING_CASES))
    def test_edge_ordering_exact(self, case, detailed, tiny_hardware):
        graph = EDGE_ORDERING_CASES[case]
        before = (graph.src.copy(), graph.dst.copy())
        ordered, cycles = UPEKernel(tiny_hardware, detailed=detailed).edge_ordering(graph)
        _assert_exact_edge_order(ordered, graph)
        assert cycles == ordering_cycle_count(graph.num_edges, graph.num_nodes, tiny_hardware)
        assert np.array_equal(graph.src, before[0]) and np.array_equal(graph.dst, before[1])

    def test_edge_ordering_detailed_matches_fast(self, small_graph, tiny_hardware):
        fast = UPEKernel(tiny_hardware, detailed=False)
        detailed = UPEKernel(tiny_hardware, detailed=True)
        ordered_fast, cycles_fast = fast.edge_ordering(small_graph)
        ordered_detailed, cycles_detailed = detailed.edge_ordering(small_graph)
        assert np.array_equal(ordered_fast.concatenate_vids(), ordered_detailed.concatenate_vids())
        assert cycles_fast == cycles_detailed

    def test_edge_ordering_empty(self, config):
        empty = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=4)
        ordered, cycles = UPEKernel(config).edge_ordering(empty)
        assert ordered.num_edges == 0
        assert cycles == 0

    def test_selection_valid_edges(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, cycles, stats = kernel.unique_random_selection(csc, [0, 1, 2], k=3, num_layers=2, seed=0)
        assert cycles > 0
        assert stats.selection_draws > 0
        for layer in sample.layers:
            for src, dst in zip(layer.src.tolist(), layer.dst.tolist()):
                assert src in csc.in_neighbors(dst).tolist()

    def test_selection_unique_per_node(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, _, _ = kernel.unique_random_selection(csc, list(range(5)), k=4, num_layers=1, seed=1)
        layer = sample.layers[-1]
        for dst in np.unique(layer.dst):
            srcs = layer.src[layer.dst == dst]
            assert len(set(srcs.tolist())) == len(srcs)

    def test_selection_detailed_mode(self, small_graph, tiny_hardware):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(tiny_hardware, detailed=True)
        sample, cycles, _ = kernel.unique_random_selection(csc, [0, 1], k=2, num_layers=1, seed=2)
        assert cycles > 0
        layer = sample.layers[-1]
        for dst in np.unique(layer.dst):
            srcs = layer.src[layer.dst == dst]
            assert len(srcs) <= 2
            assert len(set(srcs.tolist())) == len(srcs)


class TestSCRKernel:
    def test_reshaping_matches_reference(self, medium_graph, config):
        ordered = edge_order(medium_graph)
        kernel = SCRKernel(config)
        csc, cycles = kernel.data_reshaping(ordered)
        reference = coo_to_csc(medium_graph)
        assert np.array_equal(csc.indptr, reference.indptr)
        assert np.array_equal(csc.indices, reference.indices)
        assert cycles > 0

    def test_reshaping_detailed_matches_fast(self, small_graph, tiny_hardware):
        ordered = edge_order(small_graph)
        fast_csc, fast_cycles = SCRKernel(tiny_hardware, detailed=False).data_reshaping(ordered)
        det_csc, det_cycles = SCRKernel(tiny_hardware, detailed=True).data_reshaping(ordered)
        assert np.array_equal(fast_csc.indptr, det_csc.indptr)
        assert fast_cycles == det_cycles

    def test_reindexing_matches_reference(self, small_graph, config):
        csc = coo_to_csc(small_graph)
        kernel = UPEKernel(config)
        sample, _, _ = kernel.unique_random_selection(csc, [0, 1, 2], k=3, num_layers=2, seed=3)
        scr = SCRKernel(config)
        result, cycles = scr.subgraph_reindexing(sample)
        combined = sample.all_edges()
        reference = reindex_edges(combined.src, combined.dst)
        assert result.mapping == reference.mapping
        assert np.array_equal(result.edges.src, reference.edges.src)
        assert cycles >= combined.num_edges  # at least one cycle per endpoint pair

    def test_reindexing_detailed_matches_fast(self, small_graph, tiny_hardware):
        csc = coo_to_csc(small_graph)
        sample, _, _ = UPEKernel(tiny_hardware).unique_random_selection(
            csc, [0, 1], k=2, num_layers=2, seed=4
        )
        fast_result, fast_cycles = SCRKernel(tiny_hardware, detailed=False).subgraph_reindexing(sample)
        det_result, det_cycles = SCRKernel(tiny_hardware, detailed=True).subgraph_reindexing(sample)
        assert fast_result.mapping == det_result.mapping
        assert np.array_equal(fast_result.edges.src, det_result.edges.src)
        assert fast_cycles == det_cycles
