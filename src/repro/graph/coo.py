"""Coordinate-format (COO) graph container.

The COO format stores each edge as a ``(source VID, destination VID)`` pair in
an unsorted edge array.  The paper uses COO as the storage format of raw and
frequently-updated graphs (Section II-A); AutoGNN's graph-conversion stage
turns it into CSC.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

VID_DTYPE = np.int64


@dataclass
class COOGraph:
    """An edge-array graph.

    Attributes:
        src: 1-D array of source VIDs, one entry per edge.
        dst: 1-D array of destination VIDs, one entry per edge.
        num_nodes: number of vertices; VIDs are integers in ``[0, num_nodes)``.
        name: optional human-readable name (dataset key).
        validate_vids: skip the O(E) VID range check when False — only for
            internal constructions whose edges are valid by derivation.
    """

    src: np.ndarray
    dst: np.ndarray
    num_nodes: int
    name: str = ""
    _degree_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _out_degree_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    validate_vids: InitVar[bool] = True

    def __post_init__(self, validate_vids: bool = True) -> None:
        self.src = np.asarray(self.src, dtype=VID_DTYPE).ravel()
        self.dst = np.asarray(self.dst, dtype=VID_DTYPE).ravel()
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src and dst must have the same length, got {self.src.shape} vs {self.dst.shape}"
            )
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if self.num_edges and validate_vids:
            max_vid = int(max(self.src.max(), self.dst.max()))
            if max_vid >= self.num_nodes:
                raise ValueError(
                    f"VID {max_vid} out of range for num_nodes={self.num_nodes}"
                )
            min_vid = int(min(self.src.min(), self.dst.min()))
            if min_vid < 0:
                raise ValueError("VIDs must be non-negative")

    # ------------------------------------------------------------------ basic
    @property
    def num_edges(self) -> int:
        """Number of edges in the graph."""
        return int(self.src.shape[0])

    @property
    def avg_degree(self) -> float:
        """Average in-degree (edges per vertex)."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            yield int(s), int(d)

    def edges(self) -> np.ndarray:
        """Return a ``(num_edges, 2)`` array of ``(src, dst)`` pairs."""
        return np.stack([self.src, self.dst], axis=1)

    # ----------------------------------------------------------------- stats
    def in_degrees(self) -> np.ndarray:
        """Return the in-degree (edges arriving) per destination VID."""
        if self._degree_cache is None:
            self._degree_cache = np.bincount(self.dst, minlength=self.num_nodes).astype(VID_DTYPE)
        return self._degree_cache

    def out_degrees(self) -> np.ndarray:
        """Return the out-degree per source VID (cached like :meth:`in_degrees`)."""
        if self._out_degree_cache is None:
            self._out_degree_cache = np.bincount(self.src, minlength=self.num_nodes).astype(
                VID_DTYPE
            )
        return self._out_degree_cache


    def max_degree(self) -> int:
        """Maximum in-degree over all vertices."""
        degrees = self.in_degrees()
        return int(degrees.max()) if degrees.size else 0

    # ------------------------------------------------------------ operations
    @classmethod
    def from_edge_list(
        cls, edges: Iterable[Tuple[int, int]], num_nodes: Optional[int] = None, name: str = ""
    ) -> "COOGraph":
        """Build a COO graph from an iterable of ``(src, dst)`` pairs."""
        pairs = list(edges)
        if pairs:
            src = np.array([p[0] for p in pairs], dtype=VID_DTYPE)
            dst = np.array([p[1] for p in pairs], dtype=VID_DTYPE)
        else:
            src = np.empty(0, dtype=VID_DTYPE)
            dst = np.empty(0, dtype=VID_DTYPE)
        if num_nodes is None:
            num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if pairs else 0
        return cls(src=src, dst=dst, num_nodes=num_nodes, name=name)

    def concatenate_vids(self) -> np.ndarray:
        """Concatenate (dst, src) VID pairs into single 64-bit sort keys.

        The UPE controller concatenates destination and source VIDs so that a
        single radix sort orders edges primarily by destination and secondarily
        by source (Section V-A, Fig. 15).  Destination occupies the high bits.
        """
        shift = max(int(self.num_nodes).bit_length(), 1)
        # One fresh array: shift into it, then OR the sources in place.
        keys = self.dst.astype(np.int64, copy=False) << shift
        keys |= self.src
        return keys

    @staticmethod
    def deconcatenate_vids(keys: np.ndarray, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`concatenate_vids`: split keys back into (src, dst).

        Allocates only the two returned arrays; ``keys`` is left untouched.
        """
        shift = max(int(num_nodes).bit_length(), 1)
        keys = np.asarray(keys, dtype=VID_DTYPE)
        return keys & ((1 << shift) - 1), keys >> shift

    def with_edges(self, src: np.ndarray, dst: np.ndarray, validate: bool = True) -> "COOGraph":
        """Return a new graph with the same node count but different edges.

        The result is a fresh instance, so it never inherits this graph's
        degree caches; they are rebuilt on first use.  ``validate=False``
        skips the VID range check for edges known valid by derivation (e.g.
        permutations of this graph's own edges).
        """
        return COOGraph(
            src=src, dst=dst, num_nodes=self.num_nodes, name=self.name, validate_vids=validate
        )

    def add_edges(self, src: np.ndarray, dst: np.ndarray, num_nodes: Optional[int] = None) -> "COOGraph":
        """Return a new graph with the given edges appended (caches not inherited).

        Only the appended edges are range-checked while ``num_nodes`` does not
        shrink: the existing edges already fit a node count no larger.  A
        shrinking ``num_nodes`` re-checks every edge.
        """
        new_nodes = self.num_nodes if num_nodes is None else num_nodes
        added = COOGraph(src=src, dst=dst, num_nodes=new_nodes)
        return COOGraph(
            src=np.concatenate([self.src, added.src]),
            dst=np.concatenate([self.dst, added.dst]),
            num_nodes=new_nodes,
            name=self.name,
            validate_vids=new_nodes < self.num_nodes,
        )

    def subgraph_edges(self, mask: np.ndarray) -> "COOGraph":
        """Return a new graph keeping only edges where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        return self.with_edges(self.src[mask], self.dst[mask])

    def nbytes(self) -> int:
        """Approximate in-memory size of the edge arrays in bytes."""
        return int(self.src.nbytes + self.dst.nbytes)

    def copy(self) -> "COOGraph":
        """Deep copy of the edge arrays."""
        return COOGraph(
            src=self.src.copy(), dst=self.dst.copy(), num_nodes=self.num_nodes, name=self.name
        )

    def is_sorted(self) -> bool:
        """True when edges are sorted by (dst, src) — the post-ordering layout."""
        keys = self.concatenate_vids()
        return bool(np.all(keys[:-1] <= keys[1:])) if keys.size else True
