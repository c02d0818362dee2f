"""The CSR graph container.

An undirected simple graph stored as a CSR adjacency structure plus the
deduplicated edge list it was built from.  Vertex *order* is significant and
preserved: the paper's Algorithm 1 cuts the graph at a vertex index, so the
generator-provided ordering (spatial for road networks, crawl-like for web
graphs) is part of the instance.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

_INDEX = np.int64
#: Cells a fused ``lo * n + hi`` int64 edge key can address.
_KEY_CELLS = 2**63


class Graph:
    """Undirected simple graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices (vertices are ``0 .. n-1``).
    edge_u, edge_v:
        Endpoint arrays of the undirected edge list.  Self loops are
        rejected; duplicate edges (in either orientation) are folded.

    Notes
    -----
    The adjacency arrays store both orientations (each edge appears twice),
    the standard CSR-graph layout; :attr:`m` counts undirected edges once.
    """

    __slots__ = ("n", "edge_u", "edge_v", "indptr", "adjacency")

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        if n < 0:
            raise ValidationError("n must be non-negative")
        n = int(n)
        u = np.asarray(edge_u, dtype=_INDEX)
        v = np.asarray(edge_v, dtype=_INDEX)
        if u.shape != v.shape or u.ndim != 1:
            raise ValidationError("edge_u/edge_v must be equal-length 1-D arrays")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(u == v):
                raise ValidationError("self loops are not allowed")
        if n * n > _KEY_CELLS:
            raise ValidationError(
                f"graph with n={n} vertices is too large: its edge key "
                f"n * n overflows int64"
            )
        # Canonicalize (lo, hi) and deduplicate on the fused key lo*n + hi:
        # sorted keys are the edges in (lo, hi) order.  (np.sort plus a
        # neighbour mask, not np.unique, whose hash path is much slower.)
        key = np.minimum(u, v)
        key *= n
        key += np.maximum(u, v)
        key.sort()
        if key.size:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        lo = key // n
        hi = np.remainder(key, n, out=key)
        self.n = n
        self.edge_u = lo
        self.edge_v = hi
        # CSR adjacency with both orientations, placed rather than sorted.
        # Vertex v lists its higher neighbours (edges with lo == v, already
        # ascending in the edge list) and then its lower neighbours (edges
        # with hi == v, ascending lo after a stable argsort on hi).
        lo_counts = np.bincount(lo, minlength=n)
        hi_counts = np.bincount(hi, minlength=n)
        degrees = lo_counts + hi_counts
        self.indptr = np.concatenate(([0], np.cumsum(degrees))).astype(_INDEX)
        edge_ids = np.arange(lo.size, dtype=_INDEX)
        adjacency = np.empty(2 * lo.size, dtype=_INDEX)
        # Edge i sits at indptr[lo_i] + (i - first edge with lo == lo_i),
        # which is i plus the hi-entries of the vertices before lo_i.
        dest = np.cumsum(hi_counts)
        dest -= hi_counts
        dest = dest[lo]
        dest += edge_ids
        adjacency[dest] = hi
        # The j-th edge in hi order lands after all lo-entries up to its hi.
        dest = np.repeat(np.cumsum(lo_counts), hi_counts)
        dest += edge_ids
        adjacency[dest] = lo[np.argsort(hi, kind="stable")]
        self.adjacency = adjacency

    # -- queries ---------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.edge_u.size)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex *v*'s adjacency list."""
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} out of range [0, {self.n})")
        return self.adjacency[self.indptr[v] : self.indptr[v + 1]]

    def memory_bytes(self) -> int:
        """Bytes of the CSR arrays — what a PCIe transfer ships."""
        return int(self.indptr.nbytes + self.adjacency.nbytes)

    def subgraph(self, vertices: np.ndarray) -> "Graph":
        """Induced subgraph on *vertices*, relabeled to ``0..len-1``.

        *vertices* must be sorted and unique; relative order (and therefore
        the partition-relevant vertex ordering) is preserved.
        """
        vs = np.asarray(vertices, dtype=_INDEX)
        if vs.size:
            if np.any(np.diff(vs) <= 0):
                raise ValidationError("vertices must be sorted and unique")
            if vs[0] < 0 or vs[-1] >= self.n:
                raise ValidationError("vertex out of range")
        pos_u = np.searchsorted(vs, self.edge_u)
        pos_v = np.searchsorted(vs, self.edge_v)
        pos_u_c = np.minimum(pos_u, max(vs.size - 1, 0))
        pos_v_c = np.minimum(pos_v, max(vs.size - 1, 0))
        if vs.size == 0:
            return Graph(0, np.empty(0, dtype=_INDEX), np.empty(0, dtype=_INDEX))
        keep = (vs[pos_u_c] == self.edge_u) & (vs[pos_v_c] == self.edge_v)
        return Graph(vs.size, pos_u_c[keep], pos_v_c[keep])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: np.ndarray) -> Graph:
    """Build a :class:`Graph` from an ``(m, 2)`` edge array."""
    edges = np.asarray(edges, dtype=_INDEX)
    if edges.size == 0:
        return Graph(n, np.empty(0, dtype=_INDEX), np.empty(0, dtype=_INDEX))
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError(f"expected (m, 2) edge array, got {edges.shape}")
    return Graph(n, edges[:, 0], edges[:, 1])
