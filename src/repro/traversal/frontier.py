"""Frontier representations and the vectorized CSR neighbor gather.

Frontiers are held *sparse* (sorted arrays of vertex IDs) because the
trace layer needs per-vertex sublists, but dense boolean masks are handy
for membership tests; this module converts between the two and provides
the core ``gather_neighbors`` primitive every traversal algorithm uses.

Fast-path notes: ``gather_neighbors`` materialises a frontier's
out-edges in O(E_f) with no Python loop (one ``repeat`` + one fancy
gather).  The traversal algorithms deduplicate their next frontier with
a *reused* boolean mark array — scatter candidate vertices into the
mask, ``flatnonzero`` it, clear only the set bits — which is
O(E_f + n) per round and replaces the O(E_f log E_f) ``np.unique``
sort each round used to pay; the result is the same sorted unique
vertex set, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph

__all__ = [
    "dense_to_sparse",
    "sparse_to_dense",
    "frontier_union",
    "ragged_indices",
    "gather_neighbors",
]


def dense_to_sparse(mask: np.ndarray) -> np.ndarray:
    """Vertex IDs set in a boolean mask, ascending."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise TraceError(f"expected a boolean mask, got dtype {mask.dtype}")
    return np.flatnonzero(mask).astype(np.int64)


def sparse_to_dense(vertices: np.ndarray, num_vertices: int) -> np.ndarray:
    """Boolean mask of length ``num_vertices`` with ``vertices`` set."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size and (vertices.min() < 0 or vertices.max() >= num_vertices):
        raise TraceError("frontier contains out-of-range vertex IDs")
    mask = np.zeros(num_vertices, dtype=bool)
    mask[vertices] = True
    return mask


def frontier_union(*frontiers: np.ndarray) -> np.ndarray:
    """Sorted union of sparse frontiers."""
    non_empty = [np.asarray(f, dtype=np.int64) for f in frontiers if len(f)]
    if not non_empty:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(non_empty))


def ragged_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + lengths[i])``, in order.

    Each output element is its position in the output, ``arange(total)``,
    shifted by its range's ``start - out_start`` (the range's start minus
    its starting output offset): one ``repeat`` of one offset per range.
    """
    out_start = np.cumsum(lengths) - lengths
    shift = np.repeat(np.asarray(starts, dtype=np.int64) - out_start, lengths)
    shift += np.arange(shift.size, dtype=np.int64)
    return shift


def gather_neighbors(
    graph: CSRGraph, frontier: np.ndarray, *, with_sources: bool = False
) -> tuple[np.ndarray, ...]:
    """Concatenated out-neighbors of every frontier vertex (vectorized).

    Returns ``(neighbors,)`` or ``(neighbors, sources)`` where ``sources``
    repeats each frontier vertex once per out-edge.  For weighted graphs the
    matching edge weights can be recovered by also returning the flat edge
    indices — pass ``with_sources=True`` and use the third element:

    ``neighbors, sources, edge_idx = gather_neighbors(g, f, with_sources=True)``

    The gather builds, without Python loops, the index array selecting every
    frontier vertex's CSR slice: for vertex ``v`` with degree ``k`` the
    indices ``indptr[v] .. indptr[v]+k-1``.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    counts = graph.degrees[frontier]
    edge_idx = ragged_indices(graph.indptr[frontier], counts)
    neighbors = graph.indices[edge_idx]
    if not with_sources:
        return (neighbors,)
    sources = np.repeat(frontier, counts)
    return neighbors, sources, edge_idx
