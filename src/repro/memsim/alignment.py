"""Address-alignment arithmetic (Section 3.1, Figure 2).

External memory is accessed in units of an alignment size ``a``: a read of
``length`` bytes at ``start`` actually fetches the aligned span
``[align_down(start), align_up(start + length))``.  Everything here is
vectorized over request arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..traversal.frontier import ragged_indices

__all__ = [
    "align_down",
    "align_up",
    "aligned_span",
    "blocks_per_request",
    "distinct_block_spans",
    "expand_to_blocks",
    "split_by_max_transfer",
]


def _check_alignment(alignment: int) -> int:
    if not isinstance(alignment, (int, np.integer)) or alignment < 1:
        raise ModelError(f"alignment must be a positive int, got {alignment!r}")
    return int(alignment)


def align_down(offsets: np.ndarray | int, alignment: int) -> np.ndarray | int:
    """Largest multiple of ``alignment`` not exceeding each offset."""
    alignment = _check_alignment(alignment)
    if np.isscalar(offsets):
        return (int(offsets) // alignment) * alignment
    offsets = np.asarray(offsets, dtype=np.int64)
    return (offsets // alignment) * alignment


def align_up(offsets: np.ndarray | int, alignment: int) -> np.ndarray | int:
    """Smallest multiple of ``alignment`` not below each offset."""
    alignment = _check_alignment(alignment)
    if np.isscalar(offsets):
        return -(-int(offsets) // alignment) * alignment
    offsets = np.asarray(offsets, dtype=np.int64)
    return -(-offsets // alignment) * alignment


def aligned_span(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned ``(starts, lengths)`` covering each request.

    Zero-length requests stay zero-length (they fetch nothing).
    This is the *direct access* amplification: the 3a-byte fetch of
    Figure 2's example, with no cross-request sharing.
    """
    alignment = _check_alignment(alignment)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ModelError("starts and lengths must have the same shape")
    if lengths.size and lengths.min() < 0:
        raise ModelError("request lengths must be non-negative")
    a_starts = align_down(starts, alignment)
    ends = align_up(starts + lengths, alignment)
    a_lengths = np.where(lengths > 0, ends - a_starts, 0)
    return a_starts, a_lengths


def blocks_per_request(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> np.ndarray:
    """Number of alignment-sized blocks each request touches."""
    _, a_lengths = aligned_span(starts, lengths, alignment)
    return a_lengths // alignment


def expand_to_blocks(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten requests into their touched block IDs, in request order.

    Returns ``(block_ids, request_idx)`` where ``block_ids[k]`` is the
    ``k``-th block reference of the access stream and ``request_idx[k]``
    identifies the originating request.  This is the reference stream
    order-dependent cache models (LRU) consume; counting distinct blocks
    needs only :func:`distinct_block_spans`.
    """
    alignment = _check_alignment(alignment)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = blocks_per_request(starts, lengths, alignment)
    request_idx = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    block_ids = ragged_indices(starts // alignment, counts)
    return block_ids, request_idx


def distinct_block_spans(
    starts: np.ndarray, lengths: np.ndarray, alignment: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Disjoint, ascending block spans covering every block the requests touch.

    Returns ``(first_blocks, counts, references)``: span ``k`` is the
    blocks ``first_blocks[k] .. first_blocks[k] + counts[k] - 1``, no
    block lies in two spans, and ``counts.sum()`` is the number of
    distinct blocks.  ``references`` is the length of the block stream
    :func:`expand_to_blocks` would produce.  Each request becomes its
    ``(first, last)`` block interval; sorted by ``first`` (skipped when
    already sorted, as BFS frontiers are), a request keeps only the
    blocks past the running maximum of the earlier requests' ``last``.
    That is O(R log R) in requests R, with no per-block array.
    """
    alignment = _check_alignment(alignment)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ModelError("starts and lengths must have the same shape")
    if lengths.size and lengths.min() < 0:
        raise ModelError("request lengths must be non-negative")
    starts, lengths = starts.ravel(), lengths.ravel()
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    first = starts // alignment
    last = (starts + lengths - 1) // alignment
    references = int((last - first).sum()) + first.size
    if first.size > 1 and (first[1:] < first[:-1]).any():
        order = np.argsort(first)
        first, last = first[order], last[order]
    lo = first.copy()
    if lo.size > 1:
        np.maximum(lo[1:], np.maximum.accumulate(last)[:-1] + 1, out=lo[1:])
    counts = last - lo + 1
    new = counts > 0
    return lo[new], counts[new], references


def split_by_max_transfer(
    starts: np.ndarray, lengths: np.ndarray, max_transfer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split requests larger than ``max_transfer`` into back-to-back pieces.

    Models device transfer-size ceilings (XLFDD's 2 kB, the GPU's 128 B
    cache line).  Zero-length requests are dropped.
    """
    max_transfer = _check_alignment(max_transfer)
    starts = np.asarray(starts, dtype=np.int64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if lengths.size and lengths.min() < 0:
        raise ModelError("request lengths must be non-negative")
    pieces = -(-lengths // max_transfer)  # zero-length requests get none
    request_idx = np.repeat(np.arange(starts.size, dtype=np.int64), pieces)
    # Piece k of each request starts k max transfers into it.
    offset = ragged_indices(np.zeros_like(starts), pieces) * max_transfer
    sub_starts = starts[request_idx] + offset
    sub_lengths = np.minimum(lengths[request_idx] - offset, max_transfer)
    return sub_starts, sub_lengths
