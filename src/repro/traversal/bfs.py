"""Level-synchronous breadth-first search with trace emission.

BFS is the paper's primary workload (Figures 3, 5, 6, 11; Table 2).  Each
level is one synchronous step: the GPU fetches the edge sublists of every
frontier vertex from external memory, marks unvisited neighbors, and the
marked set becomes the next frontier.  The per-level frontier sizes are
exactly Table 2's profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from .source import CSRSource, EdgeSource, check_source
from .trace import AccessTrace

__all__ = ["BFSResult", "bfs_kernel", "bfs", "bfs_reference"]


@dataclass(frozen=True)
class BFSResult:
    """Output of a BFS run.

    Attributes
    ----------
    depths:
        Per-vertex BFS depth; ``-1`` for unreachable vertices.
    parents:
        Per-vertex BFS parent; ``-1`` for unreachable vertices and the source.
    frontier_sizes:
        Vertices per depth (Table 2).
    trace:
        External-memory access trace, one step per depth.
    """

    source: int
    depths: np.ndarray
    parents: np.ndarray
    frontier_sizes: list[int]
    trace: AccessTrace

    @property
    def num_reached(self) -> int:
        """Vertices reached from the source (including the source)."""
        return int((self.depths >= 0).sum())

    @property
    def max_depth(self) -> int:
        """Deepest level reached (0 for a lone source)."""
        return int(self.depths.max())

    def table2_rows(self) -> list[dict[str, int]]:
        """Per-depth frontier sizes in the shape of the paper's Table 2."""
        return [
            {"depth": depth, "vertices": size}
            for depth, size in enumerate(self.frontier_sizes)
        ]


def bfs_kernel(src: EdgeSource, source: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS from ``source``; returns ``(depths, parents)``.

    Step *k* reads the sublists of the depth-*k* frontier (the source's
    own sublist is step 0).
    """
    graph = src.graph
    n = graph.num_vertices
    check_source(graph, source)
    depths = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    # Reused discovery mask: O(n) bytes once, instead of an O(E_f log E_f)
    # np.unique sort per level to deduplicate the next frontier.
    discovered = np.zeros(n, dtype=bool)
    depth = 0
    with src.algorithm("bfs", source=source, vertices=n):
        while frontier.size:
            with src.step(frontier.size):
                src.touch_vertex_state(frontier)
                neighbors, sources, _ = src.read_neighbors(frontier)
                unseen = depths[neighbors] < 0
                neighbors, sources = neighbors[unseen], sources[unseen]
                # A vertex may be discovered by several frontier vertices
                # at once; keep the first discoverer as parent (any is
                # valid).  Fancy assignment keeps the *last* write per
                # index, so assigning reversed arrays leaves the first.
                parents[neighbors[::-1]] = sources[::-1]
                depths[neighbors] = depth + 1
                discovered[neighbors] = True
                next_frontier = np.flatnonzero(discovered)
                discovered[next_frontier] = False
                src.touch_vertex_state(next_frontier)
            frontier = next_frontier
            depth += 1
    return depths, parents


def bfs(graph: CSRGraph, source: int = 0) -> BFSResult:
    """Run :func:`bfs_kernel` in memory and record its trace."""
    src = CSRSource(graph)
    depths, parents = bfs_kernel(src, source)
    trace = src.trace("bfs")
    return BFSResult(source, depths, parents, trace.frontier_sizes, trace)


def bfs_reference(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Straightforward queue-based BFS returning depths (test oracle).

    Intentionally written with plain Python data structures so a bug in the
    vectorized gather cannot hide in both implementations.
    """
    n = graph.num_vertices
    check_source(graph, source)
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    queue = [source]
    while queue:
        next_queue: list[int] = []
        for v in queue:
            for u in graph.neighbors(v):
                if depths[u] < 0:
                    depths[u] = depths[v] + 1
                    next_queue.append(int(u))
        queue = next_queue
    return depths
