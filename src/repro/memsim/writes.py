"""Write-workload modelling (Section 5: "Read-only workloads").

The paper's evaluation is read-only and flags writes as future work with
two named complications: cache-coherence overheads on CXL and the write
characteristics of flash.  This module makes both quantitative so the
repository can *explore* the paper's caution rather than just repeat it:

* **Write-back traces** — graph traversals also produce output (BFS
  depths/parents, SSSP distances).  :func:`writeback_trace` converts a
  traversal's per-step discovered vertices into the byte ranges a GPU
  kernel would write to an external property array.
* **CXL write traffic** — CXL.mem writes move whole 64 B lines and a
  cache-coherent write first obtains ownership, so a scattered 8 B
  property write costs a 64 B read *and* a 64 B write on the device side
  (:func:`cxl_write_traffic`).
* **Flash write cost** — flash programs whole pages and reclaims space
  with garbage collection; :func:`gc_write_amplification` is the classic
  greedy-GC bound and :func:`flash_write_traffic` combines page padding
  with GC to give the media-level write volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import CXL_FLIT_BYTES, VERTEX_ID_BYTES
from ..errors import ModelError, TraceError
from ..traversal.trace import AccessTrace, TraceStep
from .alignment import distinct_block_spans, expand_to_blocks

__all__ = [
    "writeback_trace",
    "WriteTraffic",
    "cxl_write_traffic",
    "gc_write_amplification",
    "flash_write_traffic",
]


def writeback_trace(
    frontiers: Sequence[np.ndarray],
    *,
    num_vertices: int,
    bytes_per_vertex: int = VERTEX_ID_BYTES,
    algorithm: str = "writeback",
) -> AccessTrace:
    """Per-step property writes of a traversal.

    Step *k* writes ``bytes_per_vertex`` at each vertex discovered at
    step *k* (BFS depth, SSSP distance, CC label ...), into a dense
    property array indexed by vertex ID — the standard layout for GPU
    graph analytics output.
    """
    if bytes_per_vertex < 1:
        raise ModelError("bytes_per_vertex must be >= 1")
    if num_vertices < 1:
        raise ModelError("num_vertices must be >= 1")
    trace = AccessTrace(
        algorithm=algorithm,
        graph_name="property-array",
        edge_list_bytes=num_vertices * bytes_per_vertex,
    )
    for frontier in frontiers:
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size and (frontier.min() < 0 or frontier.max() >= num_vertices):
            raise TraceError("frontier contains out-of-range vertex IDs")
        starts = frontier * bytes_per_vertex
        lengths = np.full(frontier.size, bytes_per_vertex, dtype=np.int64)
        trace.append(TraceStep(frontier, starts, lengths))
    return trace


@dataclass(frozen=True)
class WriteTraffic:
    """Device-side volume of a write workload.

    ``user_bytes`` is what the algorithm logically writes; ``read_bytes``
    / ``written_bytes`` what the device actually moves (read-for-
    ownership / RMW reads, padded or amplified writes).
    """

    user_bytes: int
    read_bytes: int
    written_bytes: int

    @property
    def write_amplification(self) -> float:
        """Device writes per user byte."""
        return self.written_bytes / self.user_bytes if self.user_bytes else 0.0

    @property
    def total_bytes(self) -> int:
        """All device-side traffic (reads + writes)."""
        return self.read_bytes + self.written_bytes


def cxl_write_traffic(
    trace: AccessTrace, *, flit_bytes: int = CXL_FLIT_BYTES
) -> WriteTraffic:
    """CXL.mem traffic of a write trace.

    Every touched 64 B line is written whole; a line only partially
    covered by the step's writes must first be read (read-modify-write —
    the coherence/ownership round trip Section 5 worries about).  Lines
    shared by several writes within a step merge, mirroring the GPU's
    write coalescing.
    """
    user = 0
    read = 0
    written = 0
    for step in trace:
        keep = step.lengths > 0
        starts, lengths = step.starts[keep], step.lengths[keep]
        user += int(lengths.sum())
        if starts.size == 0:
            continue
        block_ids, request_idx = expand_to_blocks(starts, lengths, flit_bytes)
        # Bytes of each line covered by writes (sum of overlaps).
        line_start = block_ids * flit_bytes
        req_start = starts[request_idx]
        req_end = req_start + lengths[request_idx]
        overlap = np.minimum(req_end, line_start + flit_bytes) - np.maximum(
            req_start, line_start
        )
        unique_lines, inverse = np.unique(block_ids, return_inverse=True)
        covered = np.zeros(unique_lines.size, dtype=np.int64)
        np.add.at(covered, inverse, overlap)
        written += int(unique_lines.size) * flit_bytes
        # Partially covered lines are fetched for the merge.
        read += int((covered < flit_bytes).sum()) * flit_bytes
    return WriteTraffic(user_bytes=user, read_bytes=read, written_bytes=written)


def gc_write_amplification(overprovisioning: float) -> float:
    """Greedy-GC write amplification for uniform random writes.

    The classic closed form ``WAF = (1 + OP) / (2 * OP)`` where ``OP`` is
    the over-provisioned fraction of raw capacity: 7 % OP -> ~7.6x,
    28 % -> ~2.3x.  Sequential writes approach 1.0 and are not modelled
    here (graph property write-back is scattered, i.e. the bad case).
    """
    if not 0 < overprovisioning < 1:
        raise ModelError(
            f"overprovisioning must be in (0, 1), got {overprovisioning}"
        )
    return (1 + overprovisioning) / (2 * overprovisioning)


def flash_write_traffic(
    trace: AccessTrace,
    *,
    page_bytes: int = 4096,
    overprovisioning: float = 0.07,
) -> WriteTraffic:
    """Flash media traffic of a write trace.

    Scattered small writes are absorbed page-granularly (each touched
    page is rewritten: a read-modify-write at page scope) and then
    multiplied by garbage-collection write amplification.  This is the
    quantitative form of Section 5's warning that flash write behaviour
    "may have dependencies on the address alignment size".
    """
    if page_bytes < 1:
        raise ModelError("page_bytes must be >= 1")
    waf = gc_write_amplification(overprovisioning)
    user = 0
    pages_touched = 0
    for step in trace:
        user += step.useful_bytes
        _, counts, _ = distinct_block_spans(step.starts, step.lengths, page_bytes)
        pages_touched += int(counts.sum())
    page_writes = pages_touched * page_bytes
    return WriteTraffic(
        user_bytes=user,
        read_bytes=page_writes,  # RMW read of every partially updated page
        written_bytes=int(page_writes * waf),
    )
