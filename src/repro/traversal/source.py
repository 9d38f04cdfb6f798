"""Where an algorithm body reads its graph from.

Each registered workload's algorithm is one kernel written against the
:class:`EdgeSource` protocol.  :class:`CSRSource` runs it in memory and
records each read frontier as one step of an
:class:`~repro.traversal.trace.AccessTrace`;
:class:`~repro.engine.engine.ExternalGraphEngine` serves the same reads
through a byte backend and opens the ``engine.*`` spans.  Within a step
a kernel touches the frontier's state, makes exactly one
:meth:`~EdgeSource.read_neighbors` call, then touches the next
frontier's state, so trace steps and engine steps coincide.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Optional, Protocol

import numpy as np

from ..errors import TraceError
from ..graph.csr import CSRGraph
from .frontier import gather_neighbors
from .trace import AccessTrace, trace_from_frontiers

__all__ = ["EdgeSource", "CSRSource", "check_source"]

#: A frontier's out-edges as ``(neighbors, sources, weights)``; ``weights``
#: is ``None`` for unweighted graphs.
Neighbors = tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class EdgeSource(Protocol):
    """The graph access an algorithm body needs."""

    @property
    def graph(self) -> CSRGraph:
        """The graph being traversed (host-side ``indptr``/``degrees``)."""
        ...

    def read_neighbors(self, frontier: np.ndarray) -> Neighbors:
        """Read the edge sublists of ``frontier``."""
        ...

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Fetch the state slots of ``vertices``; returns the bytes fetched."""
        ...

    def step(self, frontier_size: int) -> ContextManager[object]:
        """Scope of one synchronous step; leaving it ends the step."""
        ...

    def algorithm(self, name: str, **attrs: Any) -> ContextManager[object]:
        """Scope of one whole algorithm run."""
        ...


class CSRSource:
    """In-memory source: reads the CSR arrays, records the read frontiers."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.frontiers: list[np.ndarray] = []

    def read_neighbors(self, frontier: np.ndarray) -> Neighbors:
        """Gather ``frontier``'s out-edges and record it as one trace step."""
        frontier = np.asarray(frontier, dtype=np.int64)
        self.frontiers.append(frontier)
        neighbors, sources, edge_idx = gather_neighbors(
            self.graph, frontier, with_sources=True
        )
        weights = self.graph.weights
        return neighbors, sources, None if weights is None else weights[edge_idx]

    def touch_vertex_state(self, vertices: np.ndarray) -> int:
        """Vertex state is host memory here: nothing to fetch."""
        return 0

    def step(self, frontier_size: int) -> ContextManager[object]:
        """Steps need no bookkeeping beyond the recorded frontier."""
        return nullcontext()

    def algorithm(self, name: str, **attrs: Any) -> ContextManager[object]:
        """In-memory runs open no spans."""
        return nullcontext()

    def trace(self, algorithm: str) -> AccessTrace:
        """The access trace of every read so far, one step per read."""
        return trace_from_frontiers(self.graph, self.frontiers, algorithm=algorithm)


def check_source(graph: CSRGraph, source: int) -> None:
    """Reject a source vertex outside ``[0, num_vertices)``."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise TraceError(f"source {source} out of range [0, {n})")
