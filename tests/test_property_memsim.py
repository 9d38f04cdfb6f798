"""Property-based tests: alignment, caches, read amplification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.memsim.alignment import (
    aligned_span,
    blocks_per_request,
    distinct_block_spans,
    expand_to_blocks,
    split_by_max_transfer,
)
from repro.memsim.cache import IdealCache, LRUCache, NoCache, StepLocalCache
from repro.memsim.raf import direct_access_amplification, read_amplification
from repro.traversal.trace import AccessTrace, TraceStep

alignments = st.sampled_from([16, 32, 64, 128, 512, 4096])


@st.composite
def request_arrays(draw, max_requests=40):
    m = draw(st.integers(min_value=1, max_value=max_requests))
    starts = draw(
        st.lists(st.integers(0, 50_000), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    lengths = draw(
        st.lists(st.integers(0, 3_000), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    return starts, lengths


@given(request_arrays(), alignments)
@settings(max_examples=80, deadline=None)
def test_aligned_span_is_minimal_cover(reqs, a):
    starts, lengths = reqs
    a_starts, a_lengths = aligned_span(starts, lengths, a)
    nonzero = lengths > 0
    # Covers the request...
    assert np.all(a_starts[nonzero] <= starts[nonzero])
    assert np.all(
        a_starts[nonzero] + a_lengths[nonzero] >= starts[nonzero] + lengths[nonzero]
    )
    # ...is aligned...
    assert np.all(a_starts % a == 0)
    assert np.all(a_lengths % a == 0)
    # ...and minimal (shrinking either end by one block uncovers bytes).
    assert np.all(a_lengths[nonzero] - lengths[nonzero] < 2 * a)


@given(request_arrays(), alignments)
@settings(max_examples=80, deadline=None)
def test_block_expansion_consistent(reqs, a):
    starts, lengths = reqs
    blocks, request_idx = expand_to_blocks(starts, lengths, a)
    counts = blocks_per_request(starts, lengths, a)
    assert blocks.size == counts.sum()
    # Each request's blocks are consecutive and start at start//a.
    for i in np.unique(request_idx):
        mine = blocks[request_idx == i]
        assert mine[0] == starts[i] // a
        assert np.all(np.diff(mine) == 1)


@given(request_arrays(), st.sampled_from([64, 256, 2048]))
@settings(max_examples=80, deadline=None)
def test_split_conserves_bytes_and_caps_size(reqs, max_transfer):
    starts, lengths = reqs
    out_starts, out_lengths = split_by_max_transfer(starts, lengths, max_transfer)
    assert out_lengths.sum() == lengths.sum()
    if out_lengths.size:
        assert out_lengths.max() <= max_transfer
        assert out_lengths.min() >= 1


block_streams = st.lists(
    st.lists(st.integers(0, 30), min_size=0, max_size=50).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    min_size=1,
    max_size=6,
)


@given(block_streams)
@settings(max_examples=80, deadline=None)
def test_cache_hierarchy_ordering(batches):
    """Ideal is the floor; NoCache the ceiling.  StepLocal and finite LRU
    sit in between but are not mutually ordered (LRU retains across steps
    yet thrashes within a large one; StepLocal is the reverse)."""
    def total_misses(cache):
        return sum(cache.access(batch) for batch in batches)

    none = total_misses(NoCache())
    step = total_misses(StepLocalCache())
    lru = total_misses(LRUCache(capacity_blocks=8))
    ideal = total_misses(IdealCache())
    assert none >= step >= ideal
    assert none >= lru >= ideal


@given(block_streams, st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_lru_stack_inclusion(batches, capacity):
    """Doubling LRU capacity never increases misses."""
    small = LRUCache(capacity_blocks=capacity)
    large = LRUCache(capacity_blocks=capacity * 2)
    small_misses = sum(small.access(b) for b in batches)
    large_misses = sum(large.access(b) for b in batches)
    assert large_misses <= small_misses


@given(block_streams)
@settings(max_examples=60, deadline=None)
def test_cache_stats_conservation(batches):
    for cache in (NoCache(), StepLocalCache(), IdealCache(), LRUCache(4)):
        for batch in batches:
            cache.access(batch)
        total = sum(b.size for b in batches)
        assert cache.stats.hits + cache.stats.misses == total


span_alignments = st.sampled_from([1, 3, 16, 4096])


@st.composite
def span_batches(draw):
    """Multi-step batches of unsorted, duplicate, overlapping and
    zero-length byte-range reads."""
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(0, 25))
        starts = draw(st.lists(st.integers(0, 20_000), min_size=m, max_size=m))
        lengths = draw(
            st.lists(
                st.one_of(st.just(0), st.integers(1, 64), st.integers(1, 9_000)),
                min_size=m,
                max_size=m,
            )
        )
        if m and draw(st.booleans()):  # repeat a request verbatim
            starts.append(starts[0])
            lengths.append(lengths[0])
        batches.append(
            (np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64))
        )
    return batches


@given(span_batches(), span_alignments)
@settings(max_examples=150, deadline=None)
def test_access_spans_matches_block_stream(batches, a):
    """Every model prices a byte-range batch exactly as it prices the
    batch's expanded block stream: same misses, same hits."""
    for make in (NoCache, StepLocalCache, IdealCache, lambda: LRUCache(5)):
        spans, stream = make(), make()
        for starts, lengths in batches:
            expected = stream.access(expand_to_blocks(starts, lengths, a)[0])
            assert spans.access_spans(starts, lengths, a) == expected
        assert (spans.stats.hits, spans.stats.misses) == (
            stream.stats.hits,
            stream.stats.misses,
        )


@given(span_batches(), span_alignments)
@settings(max_examples=150, deadline=None)
def test_distinct_block_spans_cover_the_block_set(batches, a):
    for starts, lengths in batches:
        first, counts, references = distinct_block_spans(starts, lengths, a)
        blocks = expand_to_blocks(starts, lengths, a)[0]
        union = np.repeat(first, counts) + (
            np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        assert np.array_equal(union, np.unique(blocks))
        assert references == blocks.size
        assert np.all(counts > 0)


@given(span_batches(), span_alignments)
@settings(max_examples=40, deadline=None)
def test_access_spans_rejects_negative_lengths(batches, a):
    starts, lengths = batches[0]
    starts = np.append(starts, 0)
    lengths = np.append(lengths, -1)
    for cache in (NoCache(), StepLocalCache(), IdealCache(), LRUCache(5)):
        with pytest.raises(ModelError, match="non-negative"):
            cache.access_spans(starts, lengths, a)


@st.composite
def traces(draw):
    """Traces whose per-step requests are disjoint, as real sublist reads
    are (a traversal step reads each frontier vertex's sublist once)."""
    steps = draw(st.integers(1, 4))
    trace = AccessTrace(algorithm="p", graph_name="p", edge_list_bytes=2**21)
    for _ in range(steps):
        m = draw(st.integers(1, 20))
        lengths = np.asarray(
            draw(st.lists(st.integers(0, 2_000), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        gaps = np.asarray(
            draw(st.lists(st.integers(0, 5_000), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        starts = np.cumsum(gaps + lengths) - lengths
        trace.append(TraceStep(np.arange(m), starts, lengths))
    return trace


@given(traces(), alignments)
@settings(max_examples=60, deadline=None)
def test_raf_at_least_one_when_data_read(trace, a):
    result = read_amplification(trace, a)
    if trace.useful_bytes > 0:
        assert result.raf >= 1.0 - 1e-12
    assert result.fetched_bytes == result.requests * a


@given(traces(), alignments)
@settings(max_examples=60, deadline=None)
def test_direct_access_dominates_cached(trace, a):
    direct = direct_access_amplification(trace, a)
    cached = read_amplification(trace, a)
    assert direct.fetched_bytes >= cached.fetched_bytes


@given(traces())
@settings(max_examples=40, deadline=None)
def test_raf_monotone_in_alignment_property(trace):
    fetched = [
        read_amplification(trace, a).fetched_bytes for a in (16, 64, 256, 1024)
    ]
    assert fetched == sorted(fetched)


@given(traces())
@settings(max_examples=40, deadline=None)
def test_write_traffic_conservation(trace):
    """CXL write traffic covers the user bytes; flash dominates CXL for
    every workload (page >= flit granularity, GC >= 1)."""
    from repro.memsim.writes import cxl_write_traffic, flash_write_traffic

    cxl = cxl_write_traffic(trace)
    flash = flash_write_traffic(trace)
    assert cxl.user_bytes == flash.user_bytes == trace.useful_bytes
    assert cxl.written_bytes >= cxl.user_bytes
    if trace.useful_bytes:
        assert flash.written_bytes >= cxl.written_bytes


@given(traces(), st.sampled_from([2, 5, 16]), st.sampled_from([64, 4096, 2**20]))
@settings(max_examples=40, deadline=None)
def test_stripe_split_consistent_with_device_of(trace, devices, stripe):
    """Every sub-request lands on the device that owns its first byte."""
    from repro.graph.partition import StripedLayout

    layout = StripedLayout(num_devices=devices, stripe_bytes=stripe)
    for step in trace:
        dev, starts, lengths = layout.split_requests(step.starts, step.lengths)
        assert np.array_equal(dev, layout.device_of(starts))
        # No sub-request crosses a stripe-unit boundary.
        assert np.all(starts // stripe == (starts + lengths - 1) // stripe)
