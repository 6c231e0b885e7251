"""Tests for the COO graph container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.coo import COOGraph


def make_graph():
    return COOGraph(src=np.array([0, 2, 1, 3]), dst=np.array([1, 0, 1, 2]), num_nodes=4)


class TestConstruction:
    def test_basic_counts(self):
        g = make_graph()
        assert g.num_edges == 4
        assert g.num_nodes == 4
        assert len(g) == 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, 1]), dst=np.array([0]), num_nodes=2)

    def test_out_of_range_vid_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, 5]), dst=np.array([1, 1]), num_nodes=3)

    def test_negative_vid_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([0, -1]), dst=np.array([1, 1]), num_nodes=3)

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=-1)

    def test_empty_graph(self):
        g = COOGraph(src=np.array([], dtype=int), dst=np.array([], dtype=int), num_nodes=5)
        assert g.num_edges == 0
        assert g.avg_degree == 0.0
        assert g.is_sorted()

    def test_from_edge_list(self):
        g = COOGraph.from_edge_list([(0, 1), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 2

    def test_from_empty_edge_list(self):
        g = COOGraph.from_edge_list([])
        assert g.num_nodes == 0
        assert g.num_edges == 0


class TestDegrees:
    def test_in_degrees(self):
        g = make_graph()
        assert g.in_degrees().tolist() == [1, 2, 1, 0]

    def test_out_degrees(self):
        g = make_graph()
        assert g.out_degrees().tolist() == [1, 1, 1, 1]

    def test_max_degree(self):
        assert make_graph().max_degree() == 2

    def test_avg_degree(self):
        assert make_graph().avg_degree == pytest.approx(1.0)


class TestOperations:
    def test_edges_matrix(self):
        edges = make_graph().edges()
        assert edges.shape == (4, 2)
        assert edges[0].tolist() == [0, 1]

    def test_iteration(self):
        pairs = list(make_graph())
        assert pairs[1] == (2, 0)

    def test_copy_is_independent(self):
        g = make_graph()
        c = g.copy()
        c.src[0] = 3
        assert g.src[0] == 0

    def test_add_edges(self):
        g = make_graph()
        bigger = g.add_edges(np.array([0]), np.array([3]))
        assert bigger.num_edges == 5
        assert g.num_edges == 4

    def test_add_edges_with_new_nodes(self):
        g = make_graph()
        bigger = g.add_edges(np.array([4]), np.array([0]), num_nodes=5)
        assert bigger.num_nodes == 5

    def test_add_edges_keeps_edge_order(self):
        g = make_graph()
        bigger = g.add_edges(np.array([3, 0]), np.array([3, 2]))
        assert bigger.src.tolist() == [0, 2, 1, 3, 3, 0]
        assert bigger.dst.tolist() == [1, 0, 1, 2, 3, 2]

    @pytest.mark.parametrize(
        "src, dst, num_nodes",
        [([4], [0], None), ([0], [4], None), ([5], [0], 5), ([-1], [0], None), ([0], [-1], 5)],
    )
    def test_add_edges_rejects_bad_appended_vid(self, src, dst, num_nodes):
        with pytest.raises(ValueError):
            make_graph().add_edges(np.array(src), np.array(dst), num_nodes=num_nodes)

    def test_add_edges_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_graph().add_edges(np.array([0, 1]), np.array([0]))

    def test_add_edges_shrinking_nodes_checks_existing_edges(self):
        # VID 3 is an existing edge endpoint; the appended edge alone fits.
        with pytest.raises(ValueError):
            make_graph().add_edges(np.array([0]), np.array([1]), num_nodes=3)

    def test_add_edges_shrinking_nodes_allowed_when_edges_fit(self):
        g = COOGraph(src=np.array([0, 1]), dst=np.array([1, 0]), num_nodes=6)
        smaller = g.add_edges(np.array([2]), np.array([1]), num_nodes=3)
        assert smaller.num_nodes == 3
        assert smaller.num_edges == 3

    def test_subgraph_edges(self):
        g = make_graph()
        sub = g.subgraph_edges(np.array([True, False, True, False]))
        assert sub.num_edges == 2

    def test_nbytes_positive(self):
        assert make_graph().nbytes() > 0

    def test_is_sorted_detection(self):
        unsorted = make_graph()
        assert not unsorted.is_sorted()
        ordered = COOGraph(src=np.array([0, 1]), dst=np.array([0, 1]), num_nodes=2)
        assert ordered.is_sorted()


class TestConcatenation:
    def test_roundtrip(self):
        g = make_graph()
        keys = g.concatenate_vids()
        src, dst = COOGraph.deconcatenate_vids(keys, g.num_nodes)
        assert np.array_equal(src, g.src)
        assert np.array_equal(dst, g.dst)

    def test_concatenate_leaves_edges_untouched(self):
        g = make_graph()
        keys = g.concatenate_vids()
        keys[:] = 0
        assert g.src.tolist() == [0, 2, 1, 3]
        assert g.dst.tolist() == [1, 0, 1, 2]

    def test_deconcatenate_leaves_keys_untouched(self):
        g = make_graph()
        keys = g.concatenate_vids()
        before = keys.copy()
        src, dst = COOGraph.deconcatenate_vids(keys, g.num_nodes)
        assert np.array_equal(keys, before)
        assert not np.shares_memory(src, keys) and not np.shares_memory(dst, keys)

    def test_sort_order_is_dst_major(self):
        g = make_graph()
        keys = np.sort(g.concatenate_vids())
        src, dst = COOGraph.deconcatenate_vids(keys, g.num_nodes)
        assert np.all(np.diff(dst) >= 0)

    @given(st.integers(2, 500), st.integers(1, 200), st.integers(0, 10_000))
    def test_roundtrip_property(self, num_nodes, num_edges, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        g = COOGraph(src=src, dst=dst, num_nodes=num_nodes)
        keys = g.concatenate_vids()
        rsrc, rdst = COOGraph.deconcatenate_vids(keys, num_nodes)
        assert np.array_equal(rsrc, g.src)
        assert np.array_equal(rdst, g.dst)
