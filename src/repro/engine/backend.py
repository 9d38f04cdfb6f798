"""External-memory backends: byte stores with device access disciplines.

A backend holds the raw bytes of the edge list and serves byte-range
reads the way a real device would: rounding to its alignment, splitting
at its transfer ceiling, optionally deduplicating through a cache — and
keeping exact counts of what crossed the "link".  The three disciplines
mirror :mod:`repro.gpu`'s access methods:

* :class:`DirectBackend` — XLFDD-style: one aligned read per request,
  no cache (Section 4.1.1);
* :class:`CachedBackend` — BaM-style: cache-line reads through a
  software cache (Section 3.3.2);
* :class:`ZeroCopyBackend` — EMOGI-style: 32 B sectors coalesced into
  up-to-128 B transactions (Section 3.3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..config import GPU_CACHE_LINE_BYTES, GPU_SECTOR_BYTES
from ..errors import DeviceError
from ..memsim.alignment import aligned_span, expand_to_blocks, split_by_max_transfer
from ..memsim.cache import CacheModel, StepLocalCache
from ..telemetry.metrics import MetricRegistry
from ..traversal.frontier import ragged_indices
from ..units import to_usec

__all__ = [
    "MemoryStats",
    "ExternalMemoryBackend",
    "DirectBackend",
    "CachedBackend",
    "ZeroCopyBackend",
]

#: Gather word sizes (bytes) and the unsigned type read at each.
_WORD_TYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_MAX_WORD_BYTES = max(_WORD_TYPES)


def _stat(name: str, doc: str, cast: type = int) -> property:
    """A MemoryStats field stored in the instance's metric registry.

    Read-modify-write assignments (``stats.retries += n``) keep working:
    the getter reads the backing ``memory.<name>`` counter, the setter
    overwrites it.
    """
    key = f"memory.{name}"

    def _get(self: "MemoryStats"):
        return cast(self.registry.counter(key).value)

    def _set(self: "MemoryStats", value) -> None:
        self.registry.counter(key).set(value)

    _get.__doc__ = doc
    return property(_get, _set)


class MemoryStats:
    """Running counters of external-memory traffic.

    The fault-exposure counters (``retries``, ``timeouts``, ``evictions``,
    ``faults_injected``) and the observed-latency samples stay zero/empty
    for plain backends; :class:`repro.faults.FaultyBackend` populates them
    so every experiment can report how much fault machinery it exercised.

    Every counter is backed by a ``memory.*`` entry in a
    :class:`~repro.telemetry.metrics.MetricRegistry` (a private one per
    instance by default; pass ``registry`` to publish into a shared one).
    The attribute API is unchanged — ``stats.requests += n`` still works —
    and :meth:`record_latency` additionally feeds the
    ``memory.latency_us`` histogram.
    """

    requests = _stat("requests", "Issued device requests.")
    fetched_bytes = _stat("fetched_bytes", "Bytes the device actually moved.")
    useful_bytes = _stat("useful_bytes", "Bytes the traversal asked for.")
    retries = _stat("retries", "Reissued attempts after failures.")
    timeouts = _stat("timeouts", "Attempts cut off at the retry timeout.")
    evictions = _stat("evictions", "Pool members evicted by health tracking.")
    faults_injected = _stat("faults_injected", "Injected per-attempt faults.")
    retry_wait_time = _stat(
        "retry_wait_time", "Total backoff wait in seconds.", cast=float
    )

    def __init__(
        self,
        requests: int = 0,
        fetched_bytes: int = 0,
        useful_bytes: int = 0,
        retries: int = 0,
        timeouts: int = 0,
        evictions: int = 0,
        faults_injected: int = 0,
        retry_wait_time: float = 0.0,
        latency_samples: list | None = None,
        *,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.requests = requests
        self.fetched_bytes = fetched_bytes
        self.useful_bytes = useful_bytes
        self.retries = retries
        self.timeouts = timeouts
        self.evictions = evictions
        self.faults_injected = faults_injected
        self.retry_wait_time = retry_wait_time
        self.latency_samples: list = (
            list(latency_samples) if latency_samples else []
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in (
                "requests",
                "fetched_bytes",
                "useful_bytes",
                "retries",
                "timeouts",
                "evictions",
                "faults_injected",
                "retry_wait_time",
            )
        )
        return f"MemoryStats({fields})"

    @property
    def read_amplification(self) -> float:
        """Measured RAF = fetched / useful."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0

    @property
    def avg_transfer_bytes(self) -> float:
        """Measured average request size d."""
        return self.fetched_bytes / self.requests if self.requests else 0.0

    @property
    def retry_factor(self) -> float:
        """Issued attempts per logical request (1.0 when fault-free)."""
        return 1.0 + self.retries / self.requests if self.requests else 1.0

    def record_latency(self, seconds) -> None:
        """Record completed-request latencies (scalar or array)."""
        samples = np.atleast_1d(np.asarray(seconds, float))
        self.latency_samples.extend(samples)
        histogram = self.registry.histogram("memory.latency_us")
        for sample in samples:
            histogram.observe(to_usec(float(sample)))

    def latency_percentile(self, q: float) -> float:
        """Observed completion-latency percentile (0.0 with no samples)."""
        if not self.latency_samples:
            return 0.0
        return float(np.percentile(np.asarray(self.latency_samples), q))

    @property
    def latency_p50(self) -> float:
        """Median observed completion latency in seconds."""
        return self.latency_percentile(50.0)

    @property
    def latency_p99(self) -> float:
        """99th-percentile observed completion latency in seconds."""
        return self.latency_percentile(99.0)

    @property
    def latency_p999(self) -> float:
        """99.9th-percentile observed completion latency in seconds."""
        return self.latency_percentile(99.9)


class ExternalMemoryBackend(ABC):
    """A byte store served through a device access discipline.

    ``read`` returns exactly the requested bytes, concatenated in request
    order, while the stats record what the device actually moved.  A
    *step boundary* (:meth:`end_step`) tells cache-bearing disciplines
    that the massively parallel batch ended (see
    :class:`repro.memsim.cache.StepLocalCache`).
    """

    def __init__(self, data: np.ndarray | bytes) -> None:
        self._data = np.frombuffer(bytes(data), dtype=np.uint8).copy()
        self.stats = MemoryStats()

    @property
    def size_bytes(self) -> int:
        """Capacity of the stored byte range."""
        return self._data.size

    def read(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Serve a batch of byte-range reads; returns the gathered bytes."""
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise DeviceError("starts and lengths must have the same shape")
        if starts.size and (
            starts.min() < 0 or (starts + lengths).max() > self._data.size
        ):
            raise DeviceError("read outside the stored byte range")
        if lengths.size and lengths.min() < 0:
            raise DeviceError("lengths must be non-negative")
        self._account(starts, lengths)
        self.stats.useful_bytes += int(lengths.sum())
        return self._gather(starts, lengths)

    def end_step(self) -> None:
        """Mark a traversal-step boundary (default: nothing to flush)."""

    def reset_stats(self) -> None:
        """Zero the traffic counters (cache state resets too)."""
        self.stats = MemoryStats()

    @abstractmethod
    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Update ``stats`` for this batch under the discipline's rules."""

    def _gather(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The requested bytes, gathered a word at a time.

        The word is the widest unsigned type, up to 8 B, whose size
        divides every start, every length and the store size (8 B for
        every engine payload; 1 B for arbitrary byte ranges), so the
        index costs one entry per word rather than one per byte.
        """
        starts, lengths = starts.ravel(), lengths.ravel()
        common = np.bitwise_or.reduce(starts) | np.bitwise_or.reduce(lengths)
        bits = int(common) | self._data.size | _MAX_WORD_BYTES
        word = bits & -bits  # lowest set bit: the largest shared power of two
        words = self._data.view(_WORD_TYPES[word])
        return words[ragged_indices(starts // word, lengths // word)].view(np.uint8)


class DirectBackend(ExternalMemoryBackend):
    """Cache-less aligned reads with a transfer ceiling (XLFDD)."""

    def __init__(
        self,
        data: np.ndarray | bytes,
        *,
        alignment_bytes: int = 16,
        max_transfer_bytes: int | None = 2_048,
    ) -> None:
        super().__init__(data)
        if alignment_bytes < 1:
            raise DeviceError("alignment must be >= 1")
        if max_transfer_bytes is not None:
            # An alignment above the ceiling forces every read to the
            # alignment size (XLFDDMethod.effective_max_transfer).
            max_transfer_bytes = max(max_transfer_bytes, alignment_bytes)
            if max_transfer_bytes % alignment_bytes != 0:
                raise DeviceError("max transfer must be a multiple of the alignment")
        self.alignment_bytes = alignment_bytes
        self.max_transfer_bytes = max_transfer_bytes

    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        a_starts, a_lengths = aligned_span(starts, lengths, self.alignment_bytes)
        if self.max_transfer_bytes is not None:
            a_starts, a_lengths = split_by_max_transfer(
                a_starts, a_lengths, self.max_transfer_bytes
            )
        self.stats.requests += int((a_lengths > 0).sum())
        self.stats.fetched_bytes += int(a_lengths.sum())


class CachedBackend(ExternalMemoryBackend):
    """Cache-line reads through a software cache (BaM)."""

    def __init__(
        self,
        data: np.ndarray | bytes,
        *,
        cacheline_bytes: int = 4_096,
        cache: CacheModel | None = None,
    ) -> None:
        super().__init__(data)
        if cacheline_bytes < 1:
            raise DeviceError("cacheline must be >= 1")
        self.cacheline_bytes = cacheline_bytes
        self.cache = cache if cache is not None else StepLocalCache()
        self.cache.reset()

    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        misses = self.cache.access_spans(starts, lengths, self.cacheline_bytes)
        self.stats.requests += misses
        self.stats.fetched_bytes += misses * self.cacheline_bytes

    def reset_stats(self) -> None:
        super().reset_stats()
        self.cache.reset()


class ZeroCopyBackend(ExternalMemoryBackend):
    """Sector-coalesced load/store access (EMOGI).

    Each request's 32 B-aligned span is chopped at 128 B line boundaries;
    every piece is one transaction.
    """

    def __init__(
        self,
        data: np.ndarray | bytes,
        *,
        sector_bytes: int = GPU_SECTOR_BYTES,
        line_bytes: int = GPU_CACHE_LINE_BYTES,
    ) -> None:
        super().__init__(data)
        if line_bytes % sector_bytes != 0:
            raise DeviceError("line must be a multiple of the sector")
        self.sector_bytes = sector_bytes
        self.line_bytes = line_bytes

    def _account(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        a_starts, a_lengths = aligned_span(starts, lengths, self.sector_bytes)
        keep = a_lengths > 0
        a_starts, a_lengths = a_starts[keep], a_lengths[keep]
        if a_starts.size == 0:
            return
        line_ids, request_idx = expand_to_blocks(a_starts, a_lengths, self.line_bytes)
        line_start = line_ids * self.line_bytes
        req_start = a_starts[request_idx]
        req_end = req_start + a_lengths[request_idx]
        overlap = np.minimum(req_end, line_start + self.line_bytes) - np.maximum(
            req_start, line_start
        )
        self.stats.requests += int(overlap.size)
        self.stats.fetched_bytes += int(overlap.sum())
