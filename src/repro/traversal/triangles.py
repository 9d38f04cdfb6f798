"""Triangle counting: the *two-phase neighborhood-join* workload.

Triangle counting reads each vertex's sublist and then the sublists of
its (higher-numbered) neighbors — a neighborhood *join* rather than a
frontier expansion.  Its access trace therefore has a very different
shape from BFS/CC: every vertex is visited exactly once in ID order
(mostly-sequential phase 1) and each batch triggers a second, random
burst over the batch's neighbor set (phase 2).  Dann et al. classify
this as the canonical "static, high locality, read-only" pattern, the
opposite corner from BFS's sparse random frontier.

The forward-counting scheme orients every edge from its lower to its
higher endpoint, so each triangle ``u < v < w`` is counted exactly once
at ``u``; the graph is assumed symmetric (undirected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .frontier import ragged_indices
from .source import CSRSource, EdgeSource
from .trace import AccessTrace

__all__ = [
    "TriangleCountResult",
    "triangle_count_kernel",
    "triangle_count",
    "triangle_count_reference",
]

#: Vertices processed per trace step (phase-1 batch size).
TRIANGLE_BATCH = 1024


@dataclass(frozen=True)
class TriangleCountResult:
    """Output of a triangle count: per-vertex counts (at the min vertex)."""

    per_vertex: np.ndarray
    trace: AccessTrace

    @property
    def total(self) -> int:
        """Total number of distinct triangles in the graph."""
        return int(self.per_vertex.sum())


def triangle_count_kernel(
    src: EdgeSource, *, batch: int = TRIANGLE_BATCH
) -> np.ndarray:
    """Two-phase forward triangle counting; returns per-vertex counts.

    Per batch of vertices: phase 1 reads the batch's own sublists
    (mostly sequential), phase 2 reads the batch's higher-neighbor
    sublists (random burst).  Counts come from the fetched sublists,
    never from host-side adjacency; each triangle is counted at its
    minimum vertex.  Assumes a symmetric graph.
    """
    graph = src.graph
    n = graph.num_vertices
    if n == 0:
        raise TraceError("triangle counting needs a non-empty graph")
    per_vertex = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    degrees = graph.degrees
    with src.algorithm("triangle_count", vertices=n):
        for lo in range(0, n, batch):
            chunk = np.arange(lo, min(lo + batch, n), dtype=np.int64)
            with src.step(chunk.size):
                src.touch_vertex_state(chunk)
                cat1, src1, _ = src.read_neighbors(chunk)
            # Phase 2: the batch's higher-neighbor set, mask-deduped.
            seen[cat1[cat1 > src1]] = True
            joined = np.flatnonzero(seen).astype(np.int64)
            seen[joined] = False
            with src.step(joined.size):
                src.touch_vertex_state(joined)
                cat2, _, _ = src.read_neighbors(joined)
            # Segment cat1 by chunk vertex and cat2 by joined vertex
            # (both are concatenated sublists).
            deg1 = degrees[chunk]
            starts1 = np.cumsum(deg1) - deg1
            deg2 = degrees[joined]
            starts2 = np.cumsum(deg2) - deg2
            for i, u in enumerate(chunk):
                seg = cat1[starts1[i] : starts1[i] + deg1[i]]
                a = seg[seg > u]
                if a.size < 2:
                    continue
                # w closes (u, v, w) when w > v and w is also in a.
                pick = np.searchsorted(joined, a)
                wcat = cat2[ragged_indices(starts2[pick], deg2[pick])]
                forward = wcat > np.repeat(a, deg2[pick])
                per_vertex[u] = int(np.isin(wcat[forward], a).sum())
    return per_vertex


def triangle_count(
    graph: CSRGraph, *, batch: int = TRIANGLE_BATCH
) -> TriangleCountResult:
    """Run :func:`triangle_count_kernel` in memory and record its trace."""
    src = CSRSource(graph)
    per_vertex = triangle_count_kernel(src, batch=batch)
    return TriangleCountResult(per_vertex, src.trace("triangle_count"))


def triangle_count_reference(graph: CSRGraph) -> int:
    """Naive O(V * d^2) oracle: test each neighbor pair for closure.

    Counts each triangle three times (once per corner) and divides;
    intentionally structured nothing like the forward-counting scheme so
    a shared bug cannot hide in both.
    """
    adjacency = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
    triple = 0
    for v in range(graph.num_vertices):
        nbrs = sorted(adjacency[v])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b in adjacency[a]:
                    triple += 1
    # Each triangle is seen once per corner.
    return triple // 3
