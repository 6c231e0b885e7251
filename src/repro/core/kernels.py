"""UPE and SCR kernels: controllers, schedulers and cycle accounting.

The UPE kernel (Fig. 12a) owns a pool of UPEs, a scheduler with a scoreboard
and a scratchpad; it executes edge ordering (chunked radix sort + UPE merge)
and unique random selection.  The SCR kernel (Fig. 13a) owns the reshaper and
reindexer controllers and their SCR slots; it executes data reshaping and
subgraph reindexing.

Cycle accounting is centralised in the ``*_cycle_count`` functions so the
functional simulator and the analytic performance models charge identical
costs for identical work (see DESIGN.md, "Timing model").  The functional
fast paths do not model the host algorithms that compute their outputs: edge
ordering, for one, returns the software pipeline's own
:func:`repro.graph.convert.edge_order`, and only ``detailed`` kernels emulate
the UPE datapath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import HardwareConfig
from repro.core.merge import merge_rounds, upe_merge_sort
from repro.core.scr import SCR, Reindexer, Reshaper
from repro.core.upe import CYCLES_PER_PARTITION_PASS, DEFAULT_RADIX_BITS, UPE
from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph
from repro.graph.convert import build_pointer_array, edge_order
from repro.graph.reindex import (
    ReindexResult,
    interleave_endpoints,
    reindex_edges,
    reindex_mapping_sizes,
)
from repro.graph.sampling import (
    MODE_VECTORIZED,
    SampledSubgraph,
    check_mode,
    node_wise_sample_with_stats,
)

#: Per-neighbour-array overhead of the selection control path: building the
#: index array plus the final bitmap-driven set-partition (Fig. 16).
SELECTION_ARRAY_OVERHEAD_CYCLES: int = 1 + CYCLES_PER_PARTITION_PASS


# ---------------------------------------------------------------------------
# Cycle-count formulas shared by the simulator and the analytic models.
# ---------------------------------------------------------------------------
def key_bits_for_nodes(num_nodes: int) -> int:
    """Bits of the concatenated (dst, src) sort key for a graph of ``num_nodes``."""
    vid_bits = max(int(num_nodes - 1).bit_length(), 1) if num_nodes > 1 else 1
    return 2 * vid_bits


def ordering_cycle_count(
    num_edges: int,
    num_nodes: int,
    config: HardwareConfig,
    radix_bits: int = DEFAULT_RADIX_BITS,
) -> int:
    """Cycles for edge ordering: chunked local radix sort plus UPE merge rounds.

    Local sort: each chunk of ``w_upe`` keys takes one set-partition pass per
    radix digit; chunks are spread over the UPEs.  Merge: every merge round
    streams all edges through the UPEs at ``w_upe / 2`` elements per cycle
    (Algorithm 1), and there are ``ceil(log2(num_chunks))`` rounds.
    """
    if num_edges == 0:
        return 0
    w = config.upe_width
    n_upe = config.num_upes
    num_chunks = int(math.ceil(num_edges / w))
    passes = max(int(math.ceil(key_bits_for_nodes(num_nodes) / radix_bits)), 1)
    local = int(math.ceil(num_chunks / n_upe)) * passes * CYCLES_PER_PARTITION_PASS
    rounds = merge_rounds(num_chunks)
    per_round = int(math.ceil(num_edges / (n_upe * max(w // 2, 1))))
    return local + rounds * per_round


def selection_cycle_count(
    num_draws: int,
    num_arrays: int,
    config: HardwareConfig,
) -> int:
    """Cycles for unique random selection.

    Each draw extracts one element with a one-hot set-partition (single
    cycle); every neighbour array additionally pays the index-array setup and
    the final bitmap extraction.  Work is spread over the UPEs.
    """
    if num_draws == 0 and num_arrays == 0:
        return 0
    total = num_draws + num_arrays * SELECTION_ARRAY_OVERHEAD_CYCLES
    return int(math.ceil(total / config.num_upes))


def reshaping_cycle_count(
    sorted_dst: np.ndarray,
    num_nodes: int,
    config: HardwareConfig,
) -> int:
    """Cycles for data reshaping given the actual destination-sorted column.

    Mirrors the reshaper walk: each segment of ``w_scr`` edges is compared
    against groups of ``n_scr`` target VIDs; only targets whose count can
    still change (those not exceeding the segment maximum) are visited.  The
    walk is evaluated in closed form: because the column is sorted, each
    segment's maximum is its last element, so the per-segment target spans
    are differences of the padded segment maxima.
    """
    sorted_dst = np.asarray(sorted_dst, dtype=np.int64)
    num_edges = int(sorted_dst.shape[0])
    if num_edges == 0:
        return 0
    width = config.scr_width
    slots = config.num_scrs
    num_segments = int(math.ceil(num_edges / width))
    seg_ends = np.minimum(np.arange(1, num_segments + 1, dtype=np.int64) * width, num_edges)
    seg_maxima = sorted_dst[seg_ends - 1]
    last_targets = np.minimum(seg_maxima + 1, num_nodes)
    prev_targets = np.concatenate([np.zeros(1, dtype=np.int64), last_targets[:-1]])
    spans = last_targets - prev_targets + 1
    return int(((spans + slots - 1) // slots).sum())


def reshaping_cycle_estimate(num_edges: int, num_nodes: int, config: HardwareConfig) -> int:
    """Reshaping cycles from aggregate counts only (no edge array available).

    Upper-bounds the per-segment target span by assuming targets and segments
    advance in lockstep, which reduces to the Table I envelope
    ``max(ceil(e / w_scr), ceil(n / n_scr))`` plus one cycle per segment.
    """
    if num_edges == 0:
        return 0
    segments = int(math.ceil(num_edges / config.scr_width))
    target_groups = int(math.ceil(num_nodes / config.num_scrs))
    return max(segments, target_groups) + segments


def reindexer_scan_width(config: HardwareConfig) -> int:
    """Mapping entries the reindexer can check per cycle.

    The reindexer drives every SCR slot in parallel against the SRAM bank, so
    its effective filter-tree width is ``n_scr * w_scr``.
    """
    return config.num_scrs * config.scr_width


def reindexing_cycle_count(
    mapping_sizes: Sequence[int],
    config: HardwareConfig,
) -> int:
    """Cycles for subgraph reindexing given the mapping size at each lookup.

    Each lookup scans the SRAM bank through the filter trees of all SCR slots;
    one cycle per ``n_scr * w_scr`` mapping entries (a single cycle while the
    mapping fits in one scan, which is the common case for sampled subgraphs).
    """
    sizes = np.asarray(mapping_sizes, dtype=np.int64)
    if sizes.shape[0] == 0:
        return 0
    width = reindexer_scan_width(config)
    scans = np.maximum((sizes + width - 1) // width, 1)
    return int(scans.sum())


def reindexing_cycle_estimate(num_endpoints: int, mapping_size: int, config: HardwareConfig) -> int:
    """Reindexing cycles from aggregate counts (average mapping occupancy of 1/2)."""
    if num_endpoints == 0:
        return 0
    avg_scan = max(int(math.ceil((mapping_size / 2) / reindexer_scan_width(config))), 1)
    return num_endpoints * avg_scan


# ---------------------------------------------------------------------------
# Kernel statistics
# ---------------------------------------------------------------------------
@dataclass
class KernelStats:
    """Cycle counters per preprocessing task, as reported by the kernels."""

    ordering_cycles: int = 0
    selecting_cycles: int = 0
    reshaping_cycles: int = 0
    reindexing_cycles: int = 0
    selection_draws: int = 0
    selection_arrays: int = 0

    @property
    def total_cycles(self) -> int:
        """Total preprocessing cycles across all four tasks."""
        return (
            self.ordering_cycles
            + self.selecting_cycles
            + self.reshaping_cycles
            + self.reindexing_cycles
        )

    def breakdown(self) -> Dict[str, int]:
        """Per-task cycles keyed by the paper's task names."""
        return {
            "ordering": self.ordering_cycles,
            "selecting": self.selecting_cycles,
            "reshaping": self.reshaping_cycles,
            "reindexing": self.reindexing_cycles,
        }


# ---------------------------------------------------------------------------
# UPE kernel
# ---------------------------------------------------------------------------
class UPEKernel:
    """UPE controller + scheduler + scratchpad executing ordering and selection.

    ``mode`` selects the functional execution path of unique random selection:
    ``"vectorized"`` (default) batches whole frontiers through array
    arithmetic, ``"reference"`` runs the per-node verification loop.  Both
    produce bit-identical samples and identical cycle counts; ``detailed``
    additionally emulates the UPE datapath element by element.
    """

    def __init__(
        self,
        config: HardwareConfig,
        detailed: bool = False,
        radix_bits: int = DEFAULT_RADIX_BITS,
        mode: str = MODE_VECTORIZED,
    ) -> None:
        self.config = config
        self.detailed = detailed
        self.mode = check_mode(mode)
        self.radix_bits = radix_bits
        # The functional datapath is emulated through a single UPE instance;
        # parallelism across the ``num_upes`` physical instances is reflected
        # in the cycle formulas, not by instantiating hundreds of objects.
        self.upe = UPE(width=config.upe_width, radix_bits=radix_bits, detailed=detailed)

    # --------------------------------------------------------- edge ordering
    def edge_ordering(self, graph: COOGraph) -> Tuple[COOGraph, int]:
        """Sort the COO edge array by (dst, src); returns (sorted graph, cycles).

        Cycles always come from :func:`ordering_cycle_count`.  The fast path
        returns :func:`repro.graph.convert.edge_order`, the same routine the
        software pipeline uses; the host sort it runs is not modelled.
        ``detailed`` emulates the datapath instead: chunked UPE radix sorts
        merged by :func:`repro.core.merge.upe_merge_sort`.
        """
        cycles = ordering_cycle_count(
            graph.num_edges, graph.num_nodes, self.config, radix_bits=self.radix_bits
        )
        if not self.detailed or graph.num_edges == 0:
            return edge_order(graph), cycles
        keys = graph.concatenate_vids()
        key_bits = key_bits_for_nodes(graph.num_nodes)
        w = self.config.upe_width
        chunks = [keys[i : i + w] for i in range(0, keys.shape[0], w)]
        sorted_chunks = [self.upe.radix_sort_chunk(c, key_bits)[0] for c in chunks]
        merged, _ = upe_merge_sort(self.upe, sorted_chunks, key_bits)
        src, dst = COOGraph.deconcatenate_vids(merged, graph.num_nodes)
        # A permutation of already-validated edges needs no range re-check.
        return graph.with_edges(src, dst, validate=False), cycles

    # ------------------------------------------------------------- selection
    def unique_random_selection(
        self,
        csc: CSCGraph,
        batch_nodes: Sequence[int],
        k: int,
        num_layers: int,
        seed: int = 0,
    ) -> Tuple[SampledSubgraph, int, KernelStats]:
        """Node-wise unique random selection driven by UPE set-partitioning.

        Functionally equivalent to the reference sampler: for every frontier
        node, ``k`` unique neighbours are drawn without replacement using the
        bitmap + one-hot-extraction procedure of Fig. 16.  The fast path
        executes the shared priority-draw sampler (in this kernel's ``mode``);
        ``detailed`` emulates the datapath element by element.
        """
        if self.detailed:
            return self._detailed_selection(csc, batch_nodes, k, num_layers, seed)
        sample, selection = node_wise_sample_with_stats(
            csc, batch_nodes, k, num_layers, seed=seed, mode=self.mode
        )
        cycles = selection_cycle_count(selection.draws, selection.arrays, self.config)
        stats = KernelStats(
            selecting_cycles=cycles,
            selection_draws=selection.draws,
            selection_arrays=selection.arrays,
        )
        return sample, cycles, stats

    def _detailed_selection(
        self,
        csc: CSCGraph,
        batch_nodes: Sequence[int],
        k: int,
        num_layers: int,
        seed: int,
    ) -> Tuple[SampledSubgraph, int, KernelStats]:
        """Element-by-element emulation of the Fig. 16 selection control path."""
        rng = np.random.default_rng(seed)
        batch = np.asarray(list(batch_nodes), dtype=VID_DTYPE)
        frontier = np.unique(batch)
        layers: List[COOGraph] = []
        seen = set(frontier.tolist())
        draws = 0
        arrays = 0

        for _ in range(num_layers):
            layer_src: List[int] = []
            layer_dst: List[int] = []
            next_frontier: List[int] = []
            for node in frontier.tolist():
                neighbors = np.unique(csc.in_neighbors(int(node)))
                if neighbors.size == 0:
                    continue
                arrays += 1
                take = min(k, int(neighbors.size))
                picked = self._detailed_draw(neighbors, take, rng)
                draws += take
                for src in np.sort(np.asarray(picked, dtype=VID_DTYPE)).tolist():
                    layer_src.append(int(src))
                    layer_dst.append(int(node))
                    next_frontier.append(int(src))
                    seen.add(int(src))
            layers.append(
                COOGraph(
                    src=np.array(layer_src, dtype=VID_DTYPE),
                    dst=np.array(layer_dst, dtype=VID_DTYPE),
                    num_nodes=csc.num_nodes,
                )
            )
            frontier = (
                np.unique(np.array(next_frontier, dtype=VID_DTYPE))
                if next_frontier
                else np.empty(0, dtype=VID_DTYPE)
            )
            if frontier.size == 0:
                break

        cycles = selection_cycle_count(draws, arrays, self.config)
        sample = SampledSubgraph(
            batch_nodes=batch,
            layers=list(reversed(layers)),
            sampled_nodes=np.array(sorted(seen), dtype=VID_DTYPE),
            num_nodes=csc.num_nodes,
        )
        stats = KernelStats(
            selecting_cycles=cycles, selection_draws=draws, selection_arrays=arrays
        )
        return sample, cycles, stats

    def _detailed_draw(
        self, neighbors: np.ndarray, take: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``take`` unique neighbours with explicit bitmap + set-partition.

        Emulates the control path of Fig. 16: maintain a sampled-bitmap, draw a
        random index from the unsampled bucket, extract it with a one-hot
        set-partition, and finally gather the sampled set with one more
        set-partition over the bitmap.
        """
        neighbors = np.asarray(neighbors, dtype=np.int64)
        n = neighbors.shape[0]
        bitmap = np.zeros(n, dtype=bool)
        w = self.config.upe_width
        for _ in range(take):
            unsampled_idx = np.flatnonzero(~bitmap)
            chosen = int(rng.choice(unsampled_idx))
            one_hot = np.zeros(n, dtype=bool)
            one_hot[chosen] = True
            # One-hot extraction through the UPE datapath, chunked by width.
            for start in range(0, n, w):
                self.upe.set_partition(neighbors[start : start + w], one_hot[start : start + w])
            bitmap[chosen] = True
        sampled_parts = []
        for start in range(0, n, w):
            res = self.upe.extract_by_bitmap(neighbors[start : start + w], bitmap[start : start + w])
            sampled_parts.append(res.selected)
        return np.concatenate(sampled_parts) if sampled_parts else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# SCR kernel
# ---------------------------------------------------------------------------
class SCRKernel:
    """SCR controllers (reshaper + reindexer) executing reshaping and reindexing.

    ``mode`` selects the functional reindexing path: ``"vectorized"``
    (default) factorizes the endpoint stream with one ``np.unique``,
    ``"reference"`` walks it with the verification hash-map loop.  Both
    produce bit-identical mappings and identical cycle counts.
    """

    def __init__(
        self, config: HardwareConfig, detailed: bool = False, mode: str = MODE_VECTORIZED
    ) -> None:
        self.config = config
        self.detailed = detailed
        self.mode = check_mode(mode)
        self._scrs = [SCR(width=config.scr_width) for _ in range(config.num_scrs)]
        self.reshaper = Reshaper(self._scrs)
        # The reindexer drives all SCR slots in parallel against its SRAM bank,
        # so its effective scan width is the combined comparator count.
        self.reindexer = Reindexer(SCR(width=config.scr_width * config.num_scrs))

    # -------------------------------------------------------------- reshaping
    def data_reshaping(self, ordered: COOGraph) -> Tuple[CSCGraph, int]:
        """Build the CSC of a destination-sorted COO; returns (csc, cycles)."""
        cycles = reshaping_cycle_count(ordered.dst, ordered.num_nodes, self.config)
        if self.detailed:
            indptr = self.reshaper.build_pointer_array(ordered.dst, ordered.num_nodes)
        else:
            indptr = build_pointer_array(ordered.dst, ordered.num_nodes)
        csc = CSCGraph(
            indptr=indptr,
            indices=ordered.src.copy(),
            num_nodes=ordered.num_nodes,
            name=ordered.name,
        )
        return csc, cycles

    # ------------------------------------------------------------- reindexing
    def subgraph_reindexing(self, sample: SampledSubgraph) -> Tuple[ReindexResult, int]:
        """Renumber the sampled subgraph; returns (reindex result, cycles)."""
        combined = sample.all_edges()
        src = combined.src
        dst = combined.dst
        if self.detailed:
            self.reindexer.reset()
            new_src, new_dst = self.reindexer.reindex_edges(src, dst)
            result = ReindexResult(
                mapping=self.reindexer.mapping,
                edges=COOGraph(
                    src=new_src,
                    dst=new_dst,
                    num_nodes=max(self.reindexer.counter, 1),
                    name="reindexed",
                    validate_vids=False,
                ),
                original_vids=self.reindexer.original_vids(),
            )
            return result, self.reindexer.stats.cycles
        # Both functional paths live in reindex_edges; the assigned IDs are
        # first-occurrence codes in endpoint scan order, so the closed-form
        # occupancy yields the identical cycle charge for either mode.
        result = reindex_edges(src, dst, mode=self.mode, num_vids=combined.num_nodes)
        codes = interleave_endpoints(result.edges.src, result.edges.dst)
        cycles = reindexing_cycle_count(reindex_mapping_sizes(codes), self.config)
        return result, cycles
