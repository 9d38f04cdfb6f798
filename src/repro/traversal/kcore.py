"""k-core decomposition by iterative peeling.

A further fine-grained random-access workload beyond the paper's pair:
repeatedly remove all vertices of (residual) degree < k; the survivors
form the k-core.  Each peeling round reads the sublists of the removed
vertices (to decrement their neighbors' residual degrees), so the trace
has many smaller steps whose sizes shrink as the graph empties — a very
different step profile from BFS's explosive middle, useful for stressing
the per-step concurrency model.

:func:`core_numbers` computes the full core decomposition (the largest k
for which each vertex survives) by peeling with increasing k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .source import CSRSource, EdgeSource
from .trace import AccessTrace

__all__ = ["KCoreResult", "kcore_kernel", "kcore", "core_numbers"]


@dataclass(frozen=True)
class KCoreResult:
    """Output of one k-core peel: the surviving vertex set plus trace."""

    k: int
    in_core: np.ndarray
    rounds: int
    trace: AccessTrace

    @property
    def core_size(self) -> int:
        """Vertices in the k-core."""
        return int(self.in_core.sum())


def kcore_kernel(src: EdgeSource, *, k: int = 2) -> np.ndarray:
    """Peel a symmetric graph down to its k-core; returns the core mask.

    Each round reads the peeled vertices' sublists to decrement their
    surviving neighbors' residual degrees.
    """
    if k < 1:
        raise TraceError(f"k must be >= 1, got {k}")
    graph = src.graph
    n = graph.num_vertices
    residual = graph.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    rounds = 0
    with src.algorithm("kcore", vertices=n, k=k):
        while True:
            peel = np.flatnonzero(alive & (residual < k))
            if peel.size == 0:
                break
            with src.step(peel.size):
                src.touch_vertex_state(peel)
                alive[peel] = False
                neighbors, _, _ = src.read_neighbors(peel)
                neighbors = neighbors[alive[neighbors]]
                if neighbors.size:
                    np.subtract.at(residual, neighbors, 1)
                    touched[neighbors] = True
                    updated = np.flatnonzero(touched)
                    touched[updated] = False
                    src.touch_vertex_state(updated)
            rounds += 1
        if rounds == 0:
            # Nothing peeled: one empty step, so the trace is non-empty.
            with src.step(0):
                src.read_neighbors(np.empty(0, dtype=np.int64))
    return alive


def kcore(graph: CSRGraph, k: int) -> KCoreResult:
    """Run :func:`kcore_kernel` in memory and record its trace."""
    src = CSRSource(graph)
    in_core = kcore_kernel(src, k=k)
    return KCoreResult(k, in_core, len(src.frontiers), src.trace(f"kcore-{k}"))


def core_numbers(graph: CSRGraph, max_k: int | None = None) -> np.ndarray:
    """Core number of every vertex (largest k whose k-core contains it).

    Simple repeated-peeling implementation (O(max_core) peels); fine for
    reproduction-scale graphs and trivially correct, which is what the
    networkx cross-check wants.
    """
    n = graph.num_vertices
    cores = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        result = kcore(graph, k)
        if result.core_size == 0:
            break
        cores[result.in_core] = k
        k += 1
        if max_k is not None and k > max_k:
            break
    return cores
