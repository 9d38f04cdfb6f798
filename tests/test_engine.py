"""Functional engine: correct results AND traffic matching the models.

The engine executes traversals through byte-level backends; these tests
are the repository's strongest cross-validation — three independently
written layers (in-memory algorithms, analytic traffic models, and the
functional engine) must agree exactly.
"""

import numpy as np
import pytest

from repro import workloads
from repro.core.experiment import run_algorithm
from repro.engine import (
    CachedBackend,
    DirectBackend,
    ExternalGraphEngine,
    ZeroCopyBackend,
)
from repro.errors import DeviceError, TraceError
from repro.memsim.cache import LRUCache
from repro.memsim.coalesce import coalesce_trace
from repro.memsim.raf import direct_access_amplification, read_amplification
from repro.traversal.bfs import bfs
from repro.traversal.cc import connected_components
from repro.traversal.sssp import sssp_reference


@pytest.fixture(scope="module")
def direct_engine(urand_small):
    return ExternalGraphEngine(
        urand_small, lambda data: DirectBackend(data, alignment_bytes=16)
    )


class TestCorrectness:
    def test_bfs_matches_in_memory(self, urand_small, direct_engine):
        run = workloads.get("bfs").run(direct_engine, source=0)
        assert np.array_equal(run.values, bfs(urand_small, 0).depths)

    def test_bfs_different_sources(self, urand_small, direct_engine):
        for source in (5, 100):
            run = workloads.get("bfs").run(direct_engine, source=source)
            assert np.array_equal(run.values, bfs(urand_small, source).depths)

    def test_sssp_matches_dijkstra(self, weighted_small):
        engine = ExternalGraphEngine(
            weighted_small, lambda data: DirectBackend(data, alignment_bytes=16)
        )
        run = workloads.get("sssp").run(engine, source=0)
        assert np.allclose(run.values, sssp_reference(weighted_small, 0))

    def test_cc_matches_in_memory(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda data: CachedBackend(data, cacheline_bytes=512)
        )
        run = workloads.get("cc").run(engine)
        assert np.array_equal(
            run.values, connected_components(urand_small).labels
        )

    def test_results_identical_across_backends(self, urand_small):
        runs = [
            workloads.get("bfs").run(
                ExternalGraphEngine(urand_small, factory), source=0
            ).values
            for factory in (
                lambda d: DirectBackend(d),
                lambda d: CachedBackend(d),
                lambda d: ZeroCopyBackend(d),
            )
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[1], runs[2])

    def test_sssp_requires_weights(self, urand_small, direct_engine):
        with pytest.raises(TraceError, match="weighted"):
            workloads.get("sssp").run(direct_engine, source=0)

    def test_bad_source(self, direct_engine):
        with pytest.raises(TraceError):
            workloads.get("bfs").run(direct_engine, source=10**9)


class TestTrafficCrossValidation:
    """Measured backend traffic == analytic model predictions, exactly."""

    def test_direct_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small,
            lambda d: DirectBackend(d, alignment_bytes=16, max_transfer_bytes=2048),
        )
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = direct_access_amplification(trace, 16, max_transfer=2048)
        assert run.stats.fetched_bytes == model.fetched_bytes
        assert run.stats.requests == model.requests
        assert run.stats.useful_bytes == trace.useful_bytes

    def test_cached_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda d: CachedBackend(d, cacheline_bytes=4096)
        )
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = read_amplification(trace, 4096)
        assert run.stats.fetched_bytes == model.fetched_bytes
        assert run.stats.requests == model.requests

    def test_zero_copy_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(urand_small, ZeroCopyBackend)
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = coalesce_trace(trace)
        assert run.stats.fetched_bytes == model.total_bytes
        assert run.stats.requests == model.transactions

    def test_measured_raf_ordering(self, urand_small):
        """Measured RAFs reproduce Observation 1 end to end."""
        rafs = {}
        for alignment in (16, 512, 4096):
            engine = ExternalGraphEngine(
                urand_small,
                lambda d, a=alignment: DirectBackend(
                    d, alignment_bytes=a, max_transfer_bytes=None
                ),
            )
            run = workloads.get("bfs").run(engine, source=0)
            rafs[alignment] = run.stats.read_amplification
        assert rafs[16] < rafs[512] < rafs[4096]

    def test_lru_cache_backend(self, urand_small):
        cache = LRUCache(capacity_blocks=64)
        engine = ExternalGraphEngine(
            urand_small,
            lambda d: CachedBackend(d, cacheline_bytes=512, cache=cache),
        )
        run = workloads.get("bfs").run(engine, source=0)
        assert run.stats.fetched_bytes >= run.stats.useful_bytes

    def test_stats_reset_between_runs(self, urand_small):
        engine = ExternalGraphEngine(urand_small, DirectBackend)
        first = workloads.get("bfs").run(engine, source=0).stats.fetched_bytes
        second = workloads.get("bfs").run(engine, source=0).stats.fetched_bytes
        assert first == second


class TestBackendValidation:
    def test_out_of_range_read_rejected(self):
        backend = DirectBackend(b"\x00" * 64)
        with pytest.raises(DeviceError, match="outside"):
            backend.read(np.array([60]), np.array([10]))

    def test_negative_length_rejected(self):
        backend = DirectBackend(b"\x00" * 64)
        with pytest.raises(DeviceError):
            backend.read(np.array([0]), np.array([-1]))

    def test_gather_returns_exact_bytes(self):
        data = bytes(range(64))
        backend = DirectBackend(data, alignment_bytes=16)
        out = backend.read(np.array([3, 40]), np.array([4, 2]))
        assert out.tobytes() == bytes([3, 4, 5, 6, 40, 41])
        # Fetched is aligned: [0,16) and [32,48) -> 32 bytes.
        assert backend.stats.fetched_bytes == 32
        assert backend.stats.useful_bytes == 6

    def test_config_validation(self):
        with pytest.raises(DeviceError):
            DirectBackend(b"\x00", alignment_bytes=0)
        with pytest.raises(DeviceError):
            DirectBackend(b"\x00", alignment_bytes=16, max_transfer_bytes=100)
        with pytest.raises(DeviceError):
            ZeroCopyBackend(b"\x00", sector_bytes=48, line_bytes=100)

    def test_weighted_payload_roundtrip(self, weighted_small):
        engine = ExternalGraphEngine(weighted_small, DirectBackend)
        neighbors, _, weights = engine.read_neighbors(np.array([0]))
        assert np.array_equal(neighbors, weighted_small.neighbors(0))
        assert np.allclose(weights, weighted_small.edge_weights(0))
