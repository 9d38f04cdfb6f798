"""Property-based tests: the functional engine on random graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.engine import CachedBackend, DirectBackend, ExternalGraphEngine, ZeroCopyBackend
from repro.faults import FaultPlan, FaultyBackend
from repro.graph.builder import build_csr
from repro.traversal.bfs import bfs_reference
from repro.traversal.sssp import sssp_reference


@st.composite
def graphs(draw, max_vertices=20, max_edges=60):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    src = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                     dtype=np.int64)
    dst = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                     dtype=np.int64)
    return build_csr(src, dst, num_vertices=n)


backend_factories = st.sampled_from(
    [
        lambda d: DirectBackend(d, alignment_bytes=16),
        lambda d: DirectBackend(d, alignment_bytes=64, max_transfer_bytes=128),
        lambda d: CachedBackend(d, cacheline_bytes=64),
        lambda d: ZeroCopyBackend(d),
    ]
)


@given(graphs(), backend_factories, st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_engine_bfs_matches_reference(graph, factory, source_seed):
    if graph.num_edges == 0:
        return
    source = source_seed % graph.num_vertices
    engine = ExternalGraphEngine(graph, factory)
    run = workloads.get("bfs").run(engine, source=source)
    assert np.array_equal(run.values, bfs_reference(graph, source))


@given(graphs(), backend_factories, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_engine_traffic_invariants(graph, factory, source_seed):
    if graph.num_edges == 0:
        return
    source = source_seed % graph.num_vertices
    engine = ExternalGraphEngine(graph, factory)
    run = workloads.get("bfs").run(engine, source=source)
    stats = run.stats
    # Fetched always covers the useful bytes; request count is positive
    # whenever anything was read.
    assert stats.fetched_bytes >= stats.useful_bytes
    assert (stats.requests == 0) == (stats.fetched_bytes == 0)
    if stats.useful_bytes:
        assert stats.read_amplification >= 1.0


@given(graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_engine_sssp_matches_dijkstra(graph, weight_seed):
    if graph.num_edges == 0:
        return
    weighted = graph.with_uniform_random_weights(seed=weight_seed)
    engine = ExternalGraphEngine(
        weighted, lambda d: DirectBackend(d, alignment_bytes=16)
    )
    run = workloads.get("sssp").run(engine, source=0)
    assert np.allclose(run.values, sssp_reference(weighted, 0))


byte_backends = st.sampled_from(
    [
        lambda d: DirectBackend(d, alignment_bytes=16),
        lambda d: CachedBackend(d, cacheline_bytes=64),
        lambda d: ZeroCopyBackend(d),
        lambda d: FaultyBackend(
            DirectBackend(d, alignment_bytes=16),
            FaultPlan(seed=5, read_error_rate=0.2),
        ),
    ]
)


@st.composite
def stores_and_reads(draw):
    """A byte store and a batch of in-range ``(start, length)`` reads.

    The store size, the starts and the lengths are multiples of
    independently drawn granules (1, 2, 4 or 8 B): all-8 draws give fully
    8 B-aligned batches, mixed draws give odd offsets beside 8 B lengths.
    """
    granules = st.sampled_from([1, 2, 4, 8])
    size_unit, start_unit, length_unit = draw(granules), draw(granules), draw(granules)
    size = size_unit * draw(st.integers(1, 64))
    data = draw(st.binary(min_size=size, max_size=size))
    ranges = []
    for _ in range(draw(st.integers(0, 12))):
        start = start_unit * draw(st.integers(0, size // start_unit))
        length = length_unit * draw(st.integers(0, (size - start) // length_unit))
        ranges.append((start, length))
    return data, ranges


@given(stores_and_reads(), byte_backends)
@settings(max_examples=200, deadline=None)
def test_backend_read_returns_requested_bytes(store, factory):
    data, ranges = store
    starts = np.array([s for s, _ in ranges], dtype=np.int64)
    lengths = np.array([n for _, n in ranges], dtype=np.int64)
    out = factory(data).read(starts, lengths)
    assert out.dtype == np.uint8
    assert out.tobytes() == b"".join(data[s:s + n] for s, n in ranges)
