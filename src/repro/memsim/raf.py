"""Read-amplification factor (RAF) engine — Section 3.1, Figure 3.

``RAF = D / E``: total bytes fetched from external memory over bytes the
algorithm actually uses.  Two access disciplines are modelled:

* **cache-line access** (:func:`read_amplification`) — each step's
  requests are served in alignment-sized blocks through a cache model
  (:meth:`repro.memsim.cache.CacheModel.access_spans`); external memory
  sees one block read per miss.  This is how EMOGI (hardware 32 B
  sectors / 128 B lines) and BaM (software cache, d = a) behave, and it is
  the paper's Figure 3 methodology.
* **direct access** (:func:`direct_access_amplification`) — each edge
  sublist is fetched with one aligned request and nothing is cached; this
  is the XLFDD discipline (Section 4.1.1).

Both entry points are memoized when their result is a pure function of
their arguments — cache-line RAF with the default (stateless-across-calls)
step-local cache, and direct access always — keyed by the trace's content
fingerprint plus the alignment parameters.  Sweeps price the same trace
at the same alignment through several systems, so each distinct key is
priced once and is an O(1) dict hit after.  Pricing itself is O(R log R)
in the step's requests R for the step-local and ideal caches, which
count distinct blocks from block intervals; only LRU and the no-cache
model walk the per-block reference stream.
The memo is a :class:`repro.core.evalcache.Memo`, so it is bounded and
flushed by :func:`repro.core.evalcache.clear_evaluation_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ModelError, TraceError
from ..traversal.trace import AccessTrace
from .alignment import aligned_span, split_by_max_transfer
from .cache import CacheModel, StepLocalCache

__all__ = [
    "RAFResult",
    "read_amplification",
    "direct_access_amplification",
    "raf_curve",
]


@dataclass(frozen=True)
class RAFResult:
    """Physical-traffic summary of one trace under one access discipline.

    ``fetched_bytes`` is the paper's ``D``; ``useful_bytes`` is ``E``;
    ``raf`` their ratio.  ``requests`` counts external-memory requests
    (misses for cache-line access, issued reads for direct access), so
    ``avg_transfer_bytes`` is the paper's ``d``.
    """

    alignment: int
    useful_bytes: int
    fetched_bytes: int
    requests: int
    per_step_fetched: np.ndarray
    per_step_requests: np.ndarray

    @property
    def raf(self) -> float:
        """Read amplification factor D / E (0 when E == 0)."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Average external-memory request size ``d = D / #requests``."""
        return self.fetched_bytes / self.requests if self.requests else 0.0


def _check_trace(trace: AccessTrace) -> None:
    if trace.num_steps == 0:
        raise TraceError("cannot compute amplification of an empty trace")


# Imported after RAFResult: repro.core's package init imports it back.
from ..core.evalcache import Memo, trace_fingerprint  # noqa: E402

#: Memo of deterministic RAF evaluations (see module docstring).
_memo: Memo[RAFResult] = Memo(128)


def _memo_key(kind: str, trace: AccessTrace, *params: object) -> tuple | None:
    """Memo key for a deterministic evaluation, or None if unfingerprintable."""
    try:
        return (kind, trace_fingerprint(trace), *params)
    except (ModelError, AttributeError, TypeError):
        return None


def _result(
    trace: AccessTrace,
    alignment: int,
    per_step_fetched: np.ndarray,
    per_step_requests: np.ndarray,
) -> RAFResult:
    return RAFResult(
        alignment=alignment,
        useful_bytes=trace.useful_bytes,
        fetched_bytes=int(per_step_fetched.sum()),
        requests=int(per_step_requests.sum()),
        per_step_fetched=per_step_fetched,
        per_step_requests=per_step_requests,
    )


def _cache_line_raf(
    trace: AccessTrace, alignment: int, cache: CacheModel
) -> RAFResult:
    cache.reset()
    per_step_fetched = np.zeros(trace.num_steps, dtype=np.int64)
    per_step_requests = np.zeros(trace.num_steps, dtype=np.int64)
    for i, step in enumerate(trace):
        misses = cache.access_spans(step.starts, step.lengths, alignment)
        per_step_requests[i] = misses
        per_step_fetched[i] = misses * alignment
    return _result(trace, alignment, per_step_fetched, per_step_requests)


def read_amplification(
    trace: AccessTrace, alignment: int, cache: CacheModel | None = None
) -> RAFResult:
    """Cache-line RAF of ``trace`` at ``alignment`` through ``cache``.

    The cache is reset before use so results are independent of prior
    state; it defaults to :class:`StepLocalCache` — requests within a step
    share fetched blocks, nothing survives across steps — which is the
    regime the paper's software-cache simulation reports (and what makes
    RAF grow with alignment in Figure 3).  Pass an :class:`LRUCache` /
    :class:`IdealCache` for the cache ablation.  Each miss costs one
    ``alignment``-sized fetch, so ``d = a`` exactly as in Section 3.3.2.
    """
    _check_trace(trace)
    if cache is not None:
        return _cache_line_raf(trace, alignment, cache)
    # Pure function of (trace, alignment): the default step-local cache
    # carries no state across calls and nobody observes its stats.
    return _memo.get_or_compute(
        _memo_key("steplocal", trace, alignment),
        lambda: _cache_line_raf(trace, alignment, StepLocalCache()),
    )


def _direct_raf(
    trace: AccessTrace, alignment: int, max_transfer: int | None
) -> RAFResult:
    per_step_fetched = np.zeros(trace.num_steps, dtype=np.int64)
    per_step_requests = np.zeros(trace.num_steps, dtype=np.int64)
    for i, step in enumerate(trace):
        a_starts, a_lengths = aligned_span(step.starts, step.lengths, alignment)
        if max_transfer is not None:
            a_starts, a_lengths = split_by_max_transfer(a_starts, a_lengths, max_transfer)
        per_step_fetched[i] = a_lengths.sum()
        per_step_requests[i] = int((a_lengths > 0).sum())
    return _result(trace, alignment, per_step_fetched, per_step_requests)


def direct_access_amplification(
    trace: AccessTrace, alignment: int, max_transfer: int | None = None
) -> RAFResult:
    """Direct (cache-less) RAF: one aligned read per edge sublist.

    ``max_transfer`` splits large sublists into multiple requests (XLFDD
    caps a request at 2 kB); splitting changes the request count and hence
    ``d``, but not the fetched bytes.
    """
    _check_trace(trace)
    if max_transfer is not None and max_transfer % alignment != 0:
        raise ModelError(
            f"max_transfer {max_transfer} must be a multiple of alignment {alignment}"
        )
    return _memo.get_or_compute(
        _memo_key("direct", trace, alignment, max_transfer),
        lambda: _direct_raf(trace, alignment, max_transfer),
    )


def raf_curve(
    trace: AccessTrace,
    alignments: Sequence[int],
    cache_factory: Callable[[int], CacheModel | None] | None = None,
) -> list[RAFResult]:
    """RAF at each alignment (Figure 3's x-axis sweep).

    ``cache_factory(alignment)`` supplies the cache per point — capacity is
    usually fixed in bytes, so the block count varies with alignment.
    ``None`` (default) uses the memoized step-local default of
    :func:`read_amplification` at every point.
    """
    results = []
    for alignment in alignments:
        cache = cache_factory(alignment) if cache_factory is not None else None
        results.append(read_amplification(trace, alignment, cache))
    return results
