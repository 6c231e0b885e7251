"""Neighbour sampling (unique random selection): reference and fast paths.

GNN preprocessing samples a fixed number ``k`` of unique neighbours per node
(node-wise) or per layer (layer-wise) before inference, bounding the node
explosion of multi-hop traversal (Section II-B).

Every sampler exists in two functionally identical execution modes:

* ``"reference"`` — the per-node Python loop the accelerated implementations
  are verified against;
* ``"vectorized"`` — a NumPy fast path that gathers whole frontiers through
  ``CSCGraph.in_neighbors_batch`` and replaces the per-node loops with
  segment arithmetic.

Both modes follow the same *priority-draw* rule and consume the RNG stream in
the same order, so their outputs are bit-identical (see DESIGN.md,
"Reference vs. vectorized fast path"):

* a node's candidate set is its unique in-neighbour array, ascending;
* if the candidate set has at most ``k`` entries it is taken whole and the
  RNG is untouched;
* otherwise one uniform priority per candidate is drawn (in ascending
  candidate order) and the ``k`` candidates with the smallest priorities are
  kept, emitted in ascending VID order.

The equivalence relies on NumPy's ``Generator.random`` producing the same
stream whether drawn in one flat call or in consecutive per-node calls of the
same total length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph

#: Execution-mode names shared by the samplers, kernels and pipeline.
MODE_REFERENCE = "reference"
MODE_VECTORIZED = "vectorized"
SAMPLING_MODES = (MODE_REFERENCE, MODE_VECTORIZED)


def check_mode(mode: str) -> str:
    """Validate an execution-mode name and return it."""
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown execution mode {mode!r}; expected one of {SAMPLING_MODES}")
    return mode


@dataclass
class SelectionStats:
    """Work counters of one multi-hop selection (drives cycle accounting).

    Attributes:
        arrays: neighbour arrays processed (frontier nodes with >= 1 neighbour).
        draws: unique neighbour draws performed (``min(k, unique degree)`` per
            processed array).
    """

    arrays: int = 0
    draws: int = 0


@dataclass
class SampledSubgraph:
    """The result of multi-hop neighbourhood sampling.

    Attributes:
        batch_nodes: the seed (batch) VIDs, in the original graph's numbering.
        layers: one COO edge list per GNN layer, outermost hop first, with
            original VIDs.  ``layers[i]`` holds the edges traversed at hop
            ``num_layers - i`` (matching the paper's layer-1-first inference).
        sampled_nodes: all distinct original VIDs touched by the sample,
            including the batch nodes.
        num_nodes: node count of the graph the sample was drawn from (kept so
            degenerate zero-layer samples still carry the VID range).
    """

    batch_nodes: np.ndarray
    layers: List[COOGraph] = field(default_factory=list)
    sampled_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=VID_DTYPE))
    num_nodes: int = 0

    @property
    def num_layers(self) -> int:
        """Number of sampled hops."""
        return len(self.layers)

    @property
    def num_sampled_nodes(self) -> int:
        """Number of distinct vertices in the sample."""
        return int(self.sampled_nodes.shape[0])

    @property
    def num_sampled_edges(self) -> int:
        """Total number of edges across all sampled layers."""
        return int(sum(layer.num_edges for layer in self.layers))

    def all_edges(self) -> COOGraph:
        """Concatenate every layer's edges into one COO graph (original VIDs)."""
        num_nodes = int(self.layers[0].num_nodes) if self.layers else int(self.num_nodes)
        if not self.layers:
            return COOGraph(
                src=np.empty(0, dtype=VID_DTYPE),
                dst=np.empty(0, dtype=VID_DTYPE),
                num_nodes=num_nodes,
            )
        src = np.concatenate([layer.src for layer in self.layers])
        dst = np.concatenate([layer.dst for layer in self.layers])
        return COOGraph(src=src, dst=dst, num_nodes=num_nodes, validate_vids=False)


# ---------------------------------------------------------------------------
# The shared priority-draw rule
# ---------------------------------------------------------------------------
def _check_k(k: int) -> None:
    """Reject a negative per-node (or per-layer) sample size."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")


def draw_k_smallest(candidates: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Select ``k`` of the ``candidates`` by priority draw; ascending output.

    ``candidates`` must be unique and ascending.  When the set already fits in
    ``k`` it is returned whole without consuming the RNG; otherwise one
    priority per candidate is drawn and the ``k`` smallest win.  Priorities
    are 53-bit doubles (multiples of 2**-53), so ties are rare but possible;
    a tie at the ``k``-th place is broken by ``np.argsort``'s order, which
    the vectorized path reproduces by evaluating this same expression.
    """
    candidates = np.asarray(candidates, dtype=VID_DTYPE)
    if candidates.shape[0] <= k:
        return candidates.copy()
    priorities = rng.random(candidates.shape[0])
    winners = np.argsort(priorities)[:k]
    return candidates[np.sort(winners)]


def sample_neighbors(
    graph: CSCGraph,
    node: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample up to ``k`` unique in-neighbours of ``node`` uniformly at random.

    If the node has fewer than ``k`` neighbours, all of them are returned.
    Uniqueness is guaranteed (priority draw over the unique neighbour set).
    """
    unique = np.unique(graph.in_neighbors(node))
    return draw_k_smallest(unique, k, rng)


# ---------------------------------------------------------------------------
# Per-layer cores (reference loop vs. vectorized segment arithmetic)
# ---------------------------------------------------------------------------
def _node_layer_reference(
    graph: CSCGraph, frontier: np.ndarray, k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One node-wise hop, per-node loop.  Returns (src, dst, arrays, draws)."""
    layer_src: List[int] = []
    layer_dst: List[int] = []
    arrays = 0
    draws = 0
    for node in frontier.tolist():
        unique = np.unique(graph.in_neighbors(int(node)))
        if unique.shape[0] == 0:
            continue
        arrays += 1
        take = min(k, int(unique.shape[0]))
        draws += take
        picked = draw_k_smallest(unique, k, rng)
        for src in picked.tolist():
            layer_src.append(int(src))
            layer_dst.append(int(node))
    return (
        np.array(layer_src, dtype=VID_DTYPE),
        np.array(layer_dst, dtype=VID_DTYPE),
        arrays,
        draws,
    )


def _vid_shift(num_nodes: int) -> int:
    """Bits needed to pack a VID below a segment id in one 64-bit key."""
    return max(int(num_nodes).bit_length(), 1)


def _unique_per_segment(
    flat: np.ndarray, offsets: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate each segment of a concatenated neighbour gather.

    Returns ``(values, unique_degrees)``: the per-segment unique values in
    (segment-major, ascending-value) order and the unique-degree of every
    segment.  On ascending segments one run pass suffices: an entry is kept
    when it starts its segment or differs from its predecessor.  CSCs built
    by the pipeline store each neighbour list ascending; any other input is
    first sorted per segment with one packed ``(segment, value)`` key sort.
    """
    num_segments = int(offsets.shape[0] - 1)
    if flat.shape[0] == 0:
        return np.empty(0, dtype=VID_DTYPE), np.zeros(num_segments, dtype=np.int64)
    degs = np.diff(offsets)
    starts = offsets[:-1][degs > 0]
    # The first non-empty segment starts at 0; the later starts are the
    # positions where a descent between neighbouring entries is allowed.
    descents = flat[1:] < flat[:-1]
    descents[starts[1:] - 1] = False
    if descents.any():
        shift = _vid_shift(num_nodes)
        seg = np.repeat(np.arange(num_segments, dtype=np.int64), degs)
        flat = np.sort((seg << shift) | flat) & ((1 << shift) - 1)
    keep = np.empty(flat.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    keep[starts] = True
    # Positions, not boolean masks: index gathers and a binary search over
    # the kept positions are several times faster than masked gathers and a
    # cumulative sum of the mask.
    kept = np.flatnonzero(keep)
    unique_degrees = np.diff(np.searchsorted(kept, offsets))
    return flat[kept].astype(VID_DTYPE, copy=False), unique_degrees


#: ``Generator.random`` returns multiples of 2**-53, so scaling by 2**53 maps
#: every priority exactly onto a 53-bit integer with the same order.
_PRIORITY_BITS = 53
#: Oversized segments per threshold sort: a block-local segment id of at most
#: 10 bits packs above a 53-bit priority without leaving int64.
_THRESHOLD_BLOCK = 1024


def _k_smallest_mask(degrees: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one priority per entry and mark each segment's ``k`` smallest.

    ``degrees`` are the sizes of consecutive segments, each larger than
    ``k``.  The flat draw consumes the RNG exactly like one
    :func:`draw_k_smallest` call per segment in order.  Each segment's
    ``k``-th smallest priority is read from one sort per block of segments,
    and an entry wins when its priority is at most its segment's threshold.
    A segment with a priority tie at its threshold has more than ``k`` such
    entries; only those segments are re-selected with the reference
    expression ``np.argsort(p)[:k]``, so ties resolve identically too.
    """
    bounds = np.zeros(degrees.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees, out=bounds[1:])
    scaled = rng.random(int(bounds[-1]))
    won = np.zeros(scaled.shape[0], dtype=bool)
    if k == 0:
        return won
    # In place: a fresh temporary of this size costs more in page faults
    # than the multiply itself.  ``scaled * 2**-53`` recovers each priority.
    np.multiply(scaled, float(1 << _PRIORITY_BITS), out=scaled)
    keys = scaled.astype(np.int64)
    for lo in range(0, degrees.shape[0], _THRESHOLD_BLOCK):
        hi = min(lo + _THRESHOLD_BLOCK, degrees.shape[0])
        begin, end = int(bounds[lo]), int(bounds[hi])
        block_degrees = degrees[lo:hi]
        block = keys[begin:end]
        block |= np.repeat(np.arange(hi - lo, dtype=np.int64) << _PRIORITY_BITS, block_degrees)
        ordered = np.sort(block)
        kth = bounds[lo:hi] - begin + (k - 1)
        thresholds = ordered[kth]
        np.less_equal(block, np.repeat(thresholds, block_degrees), out=won[begin:end])
        # Every segment holds more than k entries, so kth + 1 stays inside it.
        for tied in np.flatnonzero(ordered[kth + 1] == thresholds).tolist():
            first, last = int(bounds[lo + tied]), int(bounds[lo + tied + 1])
            priorities = scaled[first:last] * 2.0**-_PRIORITY_BITS
            won[first:last] = False
            won[first + np.argsort(priorities)[:k]] = True
    return won


def _node_layer_vectorized(
    values: np.ndarray,
    unique_degrees: np.ndarray,
    frontier: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One node-wise hop over a deduplicated frontier neighbourhood.

    ``values``/``unique_degrees`` come from :func:`_unique_per_segment` over
    the frontier's gather.  Bit-identical to :func:`_node_layer_reference`:
    uniques per frontier node are enumerated in the same (node-major,
    ascending) order, priorities are drawn from the same RNG stream, and the
    winners are each node's ``k`` smallest priorities, ties resolved by the
    reference's own ``argsort`` (see :func:`_k_smallest_mask`).
    """
    taken = np.minimum(unique_degrees, k)
    arrays = int(np.count_nonzero(unique_degrees))
    draws = int(taken.sum())
    oversized = unique_degrees > k
    # Segments that fit in k are taken whole and never touch the RNG; the
    # winners keep the (node-major, ascending-source) order with no sort.
    if oversized.any():
        needs_draw = np.repeat(oversized, unique_degrees)
        selected = ~needs_draw
        selected[np.flatnonzero(needs_draw)] = _k_smallest_mask(
            unique_degrees[oversized], k, rng
        )
        src = values[np.flatnonzero(selected)]
    else:
        # A reused neighbourhood must not alias an earlier layer's edges.
        src = values.copy()
    dst = np.repeat(frontier, taken).astype(VID_DTYPE, copy=False)
    return src, dst, arrays, draws


# ---------------------------------------------------------------------------
# Multi-hop samplers
# ---------------------------------------------------------------------------
def _sorted_unique(values: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted distinct VIDs, by boolean scatter or ``np.unique``.

    The O(n + N) scatter wins when the VID range is comparable to the input
    size (the dense frontiers of the pipeline); for small inputs against a
    huge graph it would allocate and scan O(num_nodes) per call, so sparse
    inputs fall back to ``np.unique``.  Both produce the identical array.
    """
    if values.size == 0:
        return np.empty(0, dtype=VID_DTYPE)
    if num_nodes <= 4 * values.size + 1024:
        mask = np.zeros(num_nodes, dtype=bool)
        mask[values] = True
        return np.flatnonzero(mask).astype(VID_DTYPE, copy=False)
    return np.unique(values).astype(VID_DTYPE, copy=False)


def node_wise_sample_with_stats(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
    mode: str = MODE_VECTORIZED,
) -> Tuple[SampledSubgraph, SelectionStats]:
    """Node-wise sampling plus the work counters the UPE kernel charges for."""
    check_mode(mode)
    _check_k(k)
    rng = default_rng(seed)
    batch = np.asarray(list(batch_nodes), dtype=VID_DTYPE)
    frontier = _sorted_unique(batch, graph.num_nodes)
    layers: List[COOGraph] = []
    touched: List[np.ndarray] = [frontier]
    stats = SelectionStats()
    neighbourhood_of = neighbourhood = None

    for _ in range(num_layers):
        if mode == MODE_REFERENCE:
            src, dst, arrays, draws = _node_layer_reference(graph, frontier, k, rng)
        else:
            # A saturated frontier repeats from hop to hop; its deduplicated
            # neighbourhood is gathered once per call.
            if neighbourhood_of is None or not np.array_equal(frontier, neighbourhood_of):
                flat, offsets = graph.in_neighbors_batch(frontier)
                neighbourhood = _unique_per_segment(flat, offsets, graph.num_nodes)
                neighbourhood_of = frontier
            src, dst, arrays, draws = _node_layer_vectorized(*neighbourhood, frontier, k, rng)
        stats.arrays += arrays
        stats.draws += draws
        layers.append(COOGraph(src=src, dst=dst, num_nodes=graph.num_nodes, validate_vids=False))
        touched.append(src)
        frontier = _sorted_unique(src, graph.num_nodes)
        if frontier.size == 0:
            break

    sampled = _sorted_unique(np.concatenate(touched), graph.num_nodes)
    # Present layers outermost-hop first, matching the inference order.
    sample = SampledSubgraph(
        batch_nodes=batch,
        layers=list(reversed(layers)),
        sampled_nodes=sampled,
        num_nodes=graph.num_nodes,
    )
    return sample, stats


def node_wise_sample(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
    mode: str = MODE_VECTORIZED,
) -> SampledSubgraph:
    """Node-wise neighbourhood sampling (GraphSAGE-style, Fig. 4a).

    Starting from the batch nodes, each hop samples ``k`` unique neighbours of
    every frontier node; the sampled neighbours become the next frontier.
    """
    sample, _ = node_wise_sample_with_stats(
        graph, batch_nodes, k, num_layers, seed=seed, mode=mode
    )
    return sample


def layer_wise_sample(
    graph: CSCGraph,
    batch_nodes: Sequence[int],
    k: int,
    num_layers: int,
    seed: int = 0,
    mode: str = MODE_VECTORIZED,
) -> SampledSubgraph:
    """Layer-wise sampling (FastGCN-style): ``k`` nodes per layer, aggregated.

    All frontier neighbour arrays of a layer are pooled into one candidate set
    and ``k`` unique nodes are drawn from the pool (Section V-A control path).
    Edges are emitted source-major with destinations ascending within a
    source, identically in both execution modes.
    """
    check_mode(mode)
    _check_k(k)
    rng = default_rng(seed)
    batch = np.asarray(list(batch_nodes), dtype=VID_DTYPE)
    frontier = _sorted_unique(batch, graph.num_nodes)
    layers: List[COOGraph] = []
    touched: List[np.ndarray] = [frontier]

    for _ in range(num_layers):
        if mode == MODE_REFERENCE:
            cand_src: List[int] = []
            cand_dst: List[int] = []
            for node in frontier.tolist():
                unique = np.unique(graph.in_neighbors(int(node)))
                for src in unique.tolist():
                    cand_src.append(int(src))
                    cand_dst.append(int(node))
            values = np.array(cand_src, dtype=VID_DTYPE)
            dsts = np.array(cand_dst, dtype=VID_DTYPE)
        else:
            flat, offsets = graph.in_neighbors_batch(frontier)
            values, unique_degrees = _unique_per_segment(flat, offsets, graph.num_nodes)
            dsts = np.repeat(frontier, unique_degrees)
        if values.size == 0:
            break
        pool = _sorted_unique(values, graph.num_nodes)
        chosen = draw_k_smallest(pool, k, rng)
        keep = np.isin(values, chosen)
        src = values[keep]
        dst = dsts[keep]
        # Emit source-major with destinations ascending within a source.
        shift = _vid_shift(graph.num_nodes)
        keys = np.sort((src.astype(np.int64, copy=False) << shift) | dst)
        layers.append(
            COOGraph(
                src=(keys >> shift).astype(VID_DTYPE, copy=False),
                dst=(keys & ((1 << shift) - 1)).astype(VID_DTYPE, copy=False),
                num_nodes=graph.num_nodes,
                validate_vids=False,
            )
        )
        touched.append(chosen)
        frontier = chosen

    sampled = _sorted_unique(np.concatenate(touched), graph.num_nodes)
    layers = list(reversed(layers))
    return SampledSubgraph(
        batch_nodes=batch, layers=layers, sampled_nodes=sampled, num_nodes=graph.num_nodes
    )


def expected_sampled_nodes(batch_size: int, k: int, num_layers: int) -> int:
    """Upper bound on sampled node count: ``b * (k^(l+1) - 1) / (k - 1)``.

    The paper's cost model (Table I) uses the related total-selection count
    ``s = b * (k^(l+1) - 1)``; this helper gives the geometric-series bound on
    distinct nodes, useful for sanity checks and memory provisioning.
    """
    if k <= 1:
        return batch_size * (num_layers + 1)
    return int(batch_size * (k ** (num_layers + 1) - 1) // (k - 1))
