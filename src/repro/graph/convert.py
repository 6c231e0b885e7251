"""Reference graph-format conversion (COO <-> CSC).

These are the pure-software reference implementations of the two graph
conversion tasks the paper decomposes (Section II-B): *edge ordering* (sort
edges by destination then source) and *data reshaping* (build the CSC pointer
array from the sorted edge array).  Every hardware/baseline implementation in
the repo is checked against these functions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.coo import COOGraph, VID_DTYPE
from repro.graph.csc import CSCGraph


def edge_order(graph: COOGraph) -> COOGraph:
    """Sort edges by destination VID, breaking ties by source VID.

    This produces the layout that data reshaping turns into CSC: edges sharing
    a destination are contiguous, and within a destination sources ascend.
    Sorting the concatenated ``(dst, src)`` keys with a single-key sort is
    equivalent to ``np.lexsort((src, dst))`` (destination occupies the high
    bits) and several times faster.
    """
    keys = graph.concatenate_vids()
    keys.sort()  # the keys are a fresh array, so sort them in place
    src, dst = COOGraph.deconcatenate_vids(keys, graph.num_nodes)
    # A permutation of already-validated edges needs no range re-check.
    return graph.with_edges(src, dst, validate=False)


def build_pointer_array(sorted_dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Build the CSC pointer array from a destination-sorted edge array.

    ``pointer[v]`` equals the number of edges whose destination VID is strictly
    smaller than ``v`` — exactly the set-counting formulation of Section IV-A.
    """
    sorted_dst = np.asarray(sorted_dst, dtype=VID_DTYPE)
    counts = np.bincount(sorted_dst, minlength=num_nodes) if sorted_dst.size else np.zeros(
        num_nodes, dtype=VID_DTYPE
    )
    indptr = np.zeros(num_nodes + 1, dtype=VID_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def coo_to_csc(graph: COOGraph) -> CSCGraph:
    """Convert a COO graph to CSC (edge ordering followed by data reshaping)."""
    ordered = edge_order(graph)
    indptr = build_pointer_array(ordered.dst, graph.num_nodes)
    return CSCGraph(
        indptr=indptr,
        indices=ordered.src.copy(),
        num_nodes=graph.num_nodes,
        name=graph.name,
    )


def csc_to_coo(graph: CSCGraph) -> COOGraph:
    """Convert a CSC graph back to COO (destination-major edge order)."""
    src, dst = graph.edge_arrays()
    return COOGraph(src=src, dst=dst, num_nodes=graph.num_nodes, name=graph.name)


def validate_conversion(coo: COOGraph, csc: CSCGraph) -> bool:
    """Return True when ``csc`` is a faithful conversion of ``coo``.

    The check is order-insensitive on the COO side: the multiset of edges must
    match and the CSC must be internally consistent.
    """
    csc.validate()
    if coo.num_edges != csc.num_edges or coo.num_nodes != csc.num_nodes:
        return False
    ref = coo_to_csc(coo)
    if not np.array_equal(ref.indptr, csc.indptr):
        return False
    # Within a destination group, source order may legitimately differ between
    # implementations; compare groups as multisets.
    for dst in range(csc.num_nodes):
        a = np.sort(ref.in_neighbors(dst))
        b = np.sort(csc.in_neighbors(dst))
        if not np.array_equal(a, b):
            return False
    return True


def sorted_coo_arrays(graph: COOGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(src, dst)`` arrays sorted by (dst, src); convenience helper."""
    ordered = edge_order(graph)
    return ordered.src, ordered.dst
