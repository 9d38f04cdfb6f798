"""One bounded memo for every repeated model evaluation in the process.

The expensive half of :func:`repro.core.runtime_model.predict_runtime` is
``method.physical_trace(trace)`` — turning a logical access trace into
physical requests.  Sweeps and the evaluation suite price the *same*
trace through the *same* access method many times (EMOGI appears once
per normalisation baseline; the CXL latency sweep varies only the
latency, never the method), so this module keys that work by two
content fingerprints:

* **trace fingerprint** — SHA-256 over every step's arrays, computed
  lazily and stamped on the trace instance together with the step count
  it covered; appending steps invalidates the stamp.
* **config fingerprint** — a recursive canonical hash of any frozen
  dataclass / primitive / NumPy composite, so two structurally equal
  ``AccessMethod`` configurations share an entry even when they are
  distinct objects.

:class:`Memo` is the one memo implementation: a bounded FIFO with hit
and miss counters.  The physical-trace cache here, the RAF memo in
:mod:`repro.memsim.raf` and the graph / trace memos in
:mod:`repro.exec.tasks` are all instances, and every instance is
flushed by :func:`clear_evaluation_cache` — the benchmark harness does
so at the start of every timed repeat so memoization only gets credit
for *within-run* duplicate work, never for state left by a warmup.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Callable, Generic, Hashable, TypeVar

import numpy as np

from ..errors import ModelError

__all__ = [
    "config_fingerprint",
    "trace_fingerprint",
    "cached_physical_trace",
    "Memo",
    "clear_evaluation_cache",
    "evaluation_cache_stats",
]

V = TypeVar("V")

#: Every Memo ever built; clear_evaluation_cache flushes them all.
_memos: list["Memo[Any]"] = []


class Memo(Generic[V]):
    """Bounded FIFO memo with hit / miss counters.

    A ``None`` key means "not fingerprintable": the value is computed
    without caching and the counters stay put.  Each instance registers
    itself on construction, so :func:`clear_evaluation_cache` empties
    every memo in the process.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ModelError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[Hashable, V] = {}
        self.hits = 0
        self.misses = 0
        _memos.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, key: Hashable | None, compute: Callable[[], V]) -> V:
        """The value stored under ``key``, computing and storing it on a miss."""
        if key is None:
            return compute()
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        value = compute()
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Physical traces by (trace, method) fingerprint; sweeps touch a handful
#: of pairs, so 256 is generous while capping long-lived processes.
_physical: Memo[Any] = Memo(256)


def _update_hash(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00b" + (b"1" if obj else b"0"))
    elif isinstance(obj, int):
        h.update(b"\x00i" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00f" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"\x00s" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"\x00y" + obj)
    elif isinstance(obj, enum.Enum):
        h.update(b"\x00e" + type(obj).__qualname__.encode() + b"." + obj.name.encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00a" + str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        _update_hash(h, obj.item())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00d" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            h.update(b"\x00k" + f.name.encode())
            _update_hash(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"\x00t" + str(len(obj)).encode())
        for item in obj:
            _update_hash(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00m" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _update_hash(h, key)
            _update_hash(h, obj[key])
    else:
        raise ModelError(
            f"cannot fingerprint {type(obj).__qualname__} for evaluation caching"
        )


def config_fingerprint(obj: Any) -> str:
    """Canonical content hash of a configuration object.

    Supports frozen dataclasses (recursively), primitives, enums, NumPy
    arrays/scalars, and tuple/list/dict composites; raises
    :class:`~repro.errors.ModelError` for anything it cannot canonicalise
    (better loud than a silently colliding cache key).
    """
    h = hashlib.sha256()
    _update_hash(h, obj)
    return h.hexdigest()


def trace_fingerprint(trace: Any) -> str:
    """Content hash of an :class:`~repro.traversal.trace.AccessTrace`.

    Cached on the instance, stamped with the step count it was computed
    over — ``AccessTrace.append`` grows the trace, which invalidates the
    stamp and forces a recompute.  O(bytes) the first time, O(1) after.
    """
    stamped: tuple[int, str] | None = getattr(
        trace, "_evalcache_fingerprint", None
    )
    num_steps = trace.num_steps
    if stamped is not None and stamped[0] == num_steps:
        return stamped[1]
    h = hashlib.sha256()
    h.update(trace.algorithm.encode())
    h.update(str(trace.edge_list_bytes).encode())
    for step in trace:
        _update_hash(h, step.starts)
        _update_hash(h, step.lengths)
    digest = h.hexdigest()
    # Plain attribute stamp; AccessTrace is a normal mutable class.
    trace._evalcache_fingerprint = (num_steps, digest)
    return digest


def cached_physical_trace(method: Any, trace: Any) -> Any:
    """``method.physical_trace(trace)`` through the process-wide memo.

    The key is (trace content, method configuration); the cached value is
    the :class:`~repro.gpu.base.PhysicalTrace`, which callers treat as
    immutable.  Falls back to an uncached call when the method is not
    fingerprintable (e.g. an ad-hoc test double that is not a dataclass).
    """
    try:
        key: tuple[str, str] | None = (
            trace_fingerprint(trace),
            config_fingerprint(method),
        )
    except ModelError:
        key = None
    return _physical.get_or_compute(key, lambda: method.physical_trace(trace))


def clear_evaluation_cache() -> None:
    """Empty every :class:`Memo` in the process and zero its counters."""
    for memo in _memos:
        memo.clear()


def evaluation_cache_stats() -> dict[str, int]:
    """Physical-trace memo statistics: ``hits``, ``misses``, ``entries``."""
    return {
        "hits": _physical.hits,
        "misses": _physical.misses,
        "entries": len(_physical),
    }
