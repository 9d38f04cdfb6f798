"""Build CSR graphs from raw edge arrays.

Generators and file loaders produce flat ``(src, dst[, weight])`` arrays;
this module turns them into validated :class:`~repro.graph.csr.CSRGraph`
instances, with the clean-up steps the GAP benchmark suite applies to its
inputs (self-loop removal, duplicate removal, optional symmetrization).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = ["build_csr", "symmetrize_edges", "dedupe_edges", "remove_self_loops"]


def _as_edge_arrays(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError(
            f"src/dst must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
        )
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise GraphFormatError(
                f"weights shape {weights.shape} does not match edges {src.shape}"
            )
    return src, dst, weights


def remove_self_loops(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Drop edges with ``src == dst``."""
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    keep = src != dst
    return src[keep], dst[keep], (weights[keep] if weights is not None else None)


def dedupe_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Remove duplicate ``(src, dst)`` pairs, keeping the first weight.

    Input order is otherwise not preserved: edges come back sorted by
    ``(src, dst)``, which is the order CSR construction wants anyway.

    The pairs sort as one fused int64 key ``(src - lo) * span + (dst - lo)``
    (a stable sort when weighted, so the first weight wins), and a
    two-key ``lexsort`` is left only for ID ranges whose ``span**2``
    would overflow int64.
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    if src.size == 0:
        return src, dst, weights
    lo = int(min(src.min(), dst.min()))
    span = int(max(src.max(), dst.max())) - lo + 1
    if span * span <= 2**63:
        key = src - lo  # built in place: one edge-sized array, no temporaries
        key *= span
        key += dst
        key -= lo
        if weights is None:
            order = None
            key.sort()
        else:
            order = np.argsort(key, kind="stable")
            key = key[order]
        keep = _run_heads(key)
        key = key[keep]
        src = key // span
        dst = np.remainder(key, span, out=key)
        src += lo
        dst += lo
    else:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = _run_heads(src) | _run_heads(dst)
        src, dst = src[keep], dst[keep]
    if weights is not None:
        weights = weights[order][keep]
    return src, dst, weights


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor (first is set)."""
    heads = np.empty(values.size, dtype=bool)
    heads[0] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Add the reverse of every edge (making the graph undirected).

    Duplicates introduced by symmetrization are *not* removed here; chain
    with :func:`dedupe_edges` when a simple graph is required.
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    new_src = np.concatenate([src, dst])
    new_dst = np.concatenate([dst, src])
    new_w = np.concatenate([weights, weights]) if weights is not None else None
    return new_src, new_dst, new_w


def build_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    weights: np.ndarray | None = None,
    *,
    symmetrize: bool = False,
    dedupe: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """Construct a :class:`CSRGraph` from edge arrays.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays (directed ``src -> dst``).
    num_vertices:
        Vertex-set size; inferred as ``max(endpoint) + 1`` when omitted.
    weights:
        Optional per-edge weights, carried through all clean-up steps.
    symmetrize, dedupe, drop_self_loops:
        Clean-up steps, applied in the order: self-loop removal,
        symmetrization, deduplication.
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    if drop_self_loops:
        src, dst, weights = remove_self_loops(src, dst, weights)
    if symmetrize:
        src, dst, weights = symmetrize_edges(src, dst, weights)
    if dedupe:
        src, dst, weights = dedupe_edges(src, dst, weights)

    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    n = int(num_vertices)
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("edge endpoints must be non-negative")
    if src.size and (src.max() >= n or dst.max() >= n):
        raise GraphFormatError(
            f"edge endpoints exceed num_vertices={n}: "
            f"max src {src.max()}, max dst {dst.max()}"
        )

    order = np.argsort(src, kind="stable")
    dst_sorted = dst[order]
    weights_sorted = weights[order] if weights is not None else None
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst_sorted, weights_sorted, name=name)
