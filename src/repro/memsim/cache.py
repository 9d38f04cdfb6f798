"""Software cache models over alignment-sized blocks.

The paper computes read amplification with "a CPU simulation implementing
a software cache" (Section 3.1) — BaM likewise keeps a software cache in
GPU memory (Section 3.3.2), while the XLFDD path runs cache-less (Section
4.1.1).  Three models cover those cases:

* :class:`NoCache` — every block reference is a miss (XLFDD direct access);
* :class:`StepLocalCache` — blocks are shared within one traversal step but
  evicted before the next (Figure 2's narrative: "Sublist 2 is likely to be
  on the GPU cache ... may be evicted from the cache before it is referenced
  later"); the default for RAF computation;
* :class:`IdealCache` — infinite capacity, only cold misses (upper bound);
* :class:`LRUCache` — exact fully-associative LRU with finite capacity
  (the BaM-style software cache).

Callers price one batch of byte-range reads with
:meth:`CacheModel.access_spans`.  The order-dependent models (no cache,
LRU) expand the batch into its block reference stream (see
:func:`repro.memsim.alignment.expand_to_blocks`); the step-local and ideal
caches only count distinct blocks, so they work from block intervals
(:func:`repro.memsim.alignment.distinct_block_spans`) and never build the
stream.  :meth:`CacheModel.access` still takes a block-ID stream directly.
Every model reports hit/miss statistics; misses are what external memory
must serve.
"""

from __future__ import annotations

import heapq
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..traversal.frontier import ragged_indices
from .alignment import distinct_block_spans, expand_to_blocks

__all__ = [
    "CacheStats",
    "CacheModel",
    "NoCache",
    "StepLocalCache",
    "IdealCache",
    "LRUCache",
    "make_cache",
]


@dataclass
class CacheStats:
    """Running hit/miss counters for a cache model."""

    hits: int = 0
    misses: int = 0

    @property
    def references(self) -> int:
        """Total block references seen."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / references (0.0 when nothing was referenced)."""
        return self.hits / self.references if self.references else 0.0


class CacheModel(ABC):
    """Interface: feed block-ID reference streams, count misses."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    @abstractmethod
    def access(self, block_ids: np.ndarray) -> int:
        """Process references in order; return the number of misses."""

    def access_spans(
        self, starts: np.ndarray, lengths: np.ndarray, block_bytes: int
    ) -> int:
        """Serve one batch of byte-range reads in ``block_bytes`` blocks.

        Returns the misses: the blocks external memory must fetch.  The
        default feeds the batch's block reference stream to :meth:`access`.
        """
        block_ids, _ = expand_to_blocks(starts, lengths, block_bytes)
        return self.access(block_ids)

    @abstractmethod
    def reset(self) -> None:
        """Drop all cached state and zero the statistics."""

    def clone_empty(self) -> "CacheModel":
        """A fresh cache of the same configuration (for sweep reuse)."""
        fresh = type(self).__new__(type(self))
        fresh.__dict__.update(self.__dict__)
        fresh.reset()
        return fresh


class NoCache(CacheModel):
    """Every reference misses: models direct device access without caching."""

    def access(self, block_ids: np.ndarray) -> int:
        block_ids = np.asarray(block_ids, dtype=np.int64)
        self.stats.misses += block_ids.size
        return block_ids.size

    def reset(self) -> None:
        self.stats = CacheStats()


class StepLocalCache(CacheModel):
    """Within-batch sharing only: one miss per distinct block per ``access``.

    Callers feed one traversal step per :meth:`access` call, so blocks are
    deduplicated within a step (massively parallel requests of the same
    step hit each other's fetches) but nothing survives to the next step.
    This is the paper's software-cache behaviour in the regime it reports —
    per-step working sets far exceed realistic cache capacities, so
    cross-step reuse is lost to eviction.  :meth:`access_spans` counts the
    distinct blocks from the requests' block intervals, never per block.
    """

    def access(self, block_ids: np.ndarray) -> int:
        block_ids = np.asarray(block_ids, dtype=np.int64)
        return self._count(int(np.unique(block_ids).size), block_ids.size)

    def access_spans(
        self, starts: np.ndarray, lengths: np.ndarray, block_bytes: int
    ) -> int:
        _, counts, references = distinct_block_spans(starts, lengths, block_bytes)
        return self._count(int(counts.sum()), references)

    def _count(self, misses: int, references: int) -> int:
        self.stats.misses += misses
        self.stats.hits += references - misses
        return misses

    def reset(self) -> None:
        self.stats = CacheStats()


class IdealCache(CacheModel):
    """Infinite cache: each distinct block misses exactly once.

    The seen set is a dense boolean mask indexed by block ID (block IDs
    are byte offsets over alignment, so they are small non-negative
    integers): membership is one fancy gather, marking is one fancy
    scatter, and the mask grows geometrically — O(batch) amortised per
    access with no per-block Python loop and no re-sorting of the
    ever-growing seen set.  :meth:`access_spans` expands only the union
    of the batch's block intervals, which is already sorted and distinct.
    """

    def __init__(self) -> None:
        super().__init__()
        self._seen = np.zeros(0, dtype=bool)

    def access(self, block_ids: np.ndarray) -> int:
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return 0
        return self._admit(np.unique(block_ids), block_ids.size)

    def access_spans(
        self, starts: np.ndarray, lengths: np.ndarray, block_bytes: int
    ) -> int:
        first, counts, references = distinct_block_spans(starts, lengths, block_bytes)
        if references == 0:
            return 0
        # Disjoint ascending spans expand to sorted, distinct block IDs.
        return self._admit(ragged_indices(first, counts), references)

    def _admit(self, unique: np.ndarray, references: int) -> int:
        """Mark the sorted distinct ``unique`` blocks seen; count the new ones."""
        if unique[0] < 0:
            raise ModelError(f"negative block id {unique[0]} in cache access")
        top = int(unique[-1]) + 1
        seen = self._seen
        if top > seen.size:
            grown = np.zeros(max(top, 2 * seen.size), dtype=bool)
            grown[: seen.size] = seen
            self._seen = seen = grown
        new_blocks = unique[~seen[unique]]
        seen[new_blocks] = True
        misses = int(new_blocks.size)
        self.stats.misses += misses
        self.stats.hits += references - misses
        return misses

    def reset(self) -> None:
        self.stats = CacheStats()
        self._seen = np.zeros(0, dtype=bool)


class LRUCache(CacheModel):
    """Exact fully-associative LRU over ``capacity_blocks`` blocks.

    Exactness matters here — the paper validates its RAF simulation
    against BaM's hardware measurements, so approximate caches would
    undermine the Figure 3 reproduction.

    Implemented as a last-access-tick dict plus a lazy-deletion min-heap
    of ``(tick, block)`` entries: a hit just bumps the block's tick (no
    reordering work), and an eviction pops heap entries until one matches
    the block's current tick — that block is the true LRU victim.  Stale
    entries are discarded as they surface, so each reference does O(1)
    amortised dict work plus O(log k) heap work, with none of the
    delete-and-reinsert churn of an ordered-dict LRU list.  The heap is
    built lazily at the *first* eviction (heapify of the live ticks):
    until the cache fills, and forever for caches that never fill (the
    UVM path models its page cache as an LRU with effectively unbounded
    capacity), every access is plain O(1) dict work with no heap memory.
    """

    def __init__(self, capacity_blocks: int) -> None:
        super().__init__()
        self.capacity_blocks = _whole_count(capacity_blocks, "cache capacity_blocks")
        self._tick_of: dict[int, int] = {}
        self._heap: list[tuple[int, int]] | None = None
        self._tick = 0

    def access(self, block_ids: np.ndarray) -> int:
        block_ids = np.asarray(block_ids, dtype=np.int64)
        tick_of = self._tick_of
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        capacity = self.capacity_blocks
        tick = self._tick
        misses = 0
        for block in block_ids.tolist():
            tick += 1
            if block in tick_of:
                tick_of[block] = tick
            else:
                misses += 1
                if len(tick_of) >= capacity:
                    if heap is None:
                        # First eviction: build the heap from live ticks.
                        heap = [(t, b) for b, t in tick_of.items()]
                        heapq.heapify(heap)
                        self._heap = heap
                    # Pop until a live entry surfaces: the LRU victim.
                    while True:
                        t, victim = pop(heap)
                        if tick_of.get(victim) == t:
                            del tick_of[victim]
                            break
                tick_of[block] = tick
            if heap is not None:
                push(heap, (tick, block))
        self._tick = tick
        self.stats.misses += misses
        self.stats.hits += block_ids.size - misses
        return misses

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tick_of = {}
        self._heap = None
        self._tick = 0

    @property
    def occupancy(self) -> int:
        """Blocks currently resident."""
        return len(self._tick_of)


def _whole_count(value: object, name: str) -> int:
    """``value`` as an int; ModelError unless it is a finite whole number >= 1."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and float(value).is_integer()
        and value >= 1
    ):
        raise ModelError(f"{name} must be a finite whole number >= 1, got {value!r}")
    return int(value)


def make_cache(
    kind: str, *, capacity_bytes: int | None = None, block_bytes: int | None = None
) -> CacheModel:
    """Factory: ``"none"``, ``"step"``, ``"ideal"``, or ``"lru"``.

    LRU requires ``capacity_bytes`` and ``block_bytes``, each a finite
    whole number >= 1; capacity is rounded down to whole blocks (minimum
    one).
    """
    kind = kind.lower()
    if kind == "none":
        return NoCache()
    if kind == "step":
        return StepLocalCache()
    if kind == "ideal":
        return IdealCache()
    if kind == "lru":
        if capacity_bytes is None or block_bytes is None:
            raise ModelError("lru cache requires capacity_bytes and block_bytes")
        capacity = _whole_count(capacity_bytes, "lru capacity_bytes")
        block = _whole_count(block_bytes, "lru block_bytes")
        return LRUCache(max(1, capacity // block))
    raise ModelError(f"unknown cache kind {kind!r} (expected none/step/ideal/lru)")
