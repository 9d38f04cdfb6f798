"""The process-wide evaluation memo, pinned through its public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evalcache import (
    Memo,
    cached_physical_trace,
    clear_evaluation_cache,
    evaluation_cache_stats,
    trace_fingerprint,
)
from repro.errors import ModelError
from repro.gpu import XLFDDMethod
from repro.memsim.raf import read_amplification
from repro.traversal.trace import AccessTrace, TraceStep


def _step(starts, lengths) -> TraceStep:
    starts = np.asarray(starts, dtype=np.int64)
    return TraceStep(np.arange(starts.size), starts, np.asarray(lengths))


def _trace() -> AccessTrace:
    trace = AccessTrace("bfs", "handmade", edge_list_bytes=4096)
    trace.append(_step([0, 200, 1000], [64, 24, 512]))
    trace.append(_step([64, 3000], [8, 1000]))
    return trace


class _Opaque:
    """An access method that is not a dataclass, so not fingerprintable."""

    def __init__(self) -> None:
        self.calls = 0
        self.inner = XLFDDMethod()

    def physical_trace(self, trace: AccessTrace):
        self.calls += 1
        return self.inner.physical_trace(trace)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


def test_pricing_twice_hits_the_cache():
    trace, method = _trace(), XLFDDMethod()
    first = cached_physical_trace(method, trace)
    second = cached_physical_trace(method, trace)
    assert second is first
    assert evaluation_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}


def test_raf_is_memoized_until_cleared():
    trace = _trace()
    first = read_amplification(trace, 64)
    assert read_amplification(trace, 64) is first
    clear_evaluation_cache()
    again = read_amplification(trace, 64)
    assert again is not first
    assert again.fetched_bytes == first.fetched_bytes


def test_unfingerprintable_method_is_priced_uncached():
    trace, method = _trace(), _Opaque()
    cached_physical_trace(method, trace)
    cached_physical_trace(method, trace)
    assert method.calls == 2
    assert evaluation_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_append_changes_the_trace_fingerprint():
    trace = _trace()
    before = trace_fingerprint(trace)
    assert trace_fingerprint(trace) == before
    trace.append(_step([128], [16]))
    assert trace_fingerprint(trace) != before


def test_run_evaluation_builds_each_graph_once(monkeypatch):
    import repro.graph.datasets as datasets
    from repro.core.suite import run_evaluation

    calls = []
    original = datasets.load_dataset

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(datasets, "load_dataset", spy)
    kwargs = dict(scale=8, datasets=("urand",), algorithms=("bfs", "sssp"))
    run_evaluation(**kwargs)
    assert len(calls) == 1
    run_evaluation(**kwargs)
    assert len(calls) == 1


class TestMemo:
    def test_hit_miss_counters(self):
        memo = Memo(4)
        assert memo.get_or_compute("k", lambda: 42) == 42
        assert memo.get_or_compute("k", lambda: 0) == 42
        assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)

    def test_hit_skips_compute(self):
        memo = Memo(4)
        calls = []
        for _ in range(3):
            memo.get_or_compute("k", lambda: calls.append(1) or len(calls))
        assert calls == [1]

    def test_fifo_eviction_at_capacity(self):
        memo = Memo(2)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):  # "c" evicts "a"
            memo.get_or_compute(key, lambda v=value: v)
        assert memo.get_or_compute("b", lambda: 0) == 2
        assert memo.get_or_compute("c", lambda: 0) == 3
        assert memo.get_or_compute("a", lambda: 9) == 9
        assert len(memo) == 2

    def test_none_key_computes_uncached(self):
        memo = Memo(2)
        assert memo.get_or_compute(None, lambda: 1) == 1
        assert memo.get_or_compute(None, lambda: 2) == 2
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)

    def test_flushed_by_clear_evaluation_cache(self):
        memos = [Memo(2), Memo(3)]
        for memo in memos:
            memo.get_or_compute("k", lambda: 1)
            memo.get_or_compute("k", lambda: 1)
        cached_physical_trace(XLFDDMethod(), _trace())
        clear_evaluation_cache()
        for memo in memos:
            assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)
            assert memo.get_or_compute("k", lambda: 2) == 2
        assert evaluation_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_invalid_capacity(self):
        with pytest.raises(ModelError):
            Memo(0)
