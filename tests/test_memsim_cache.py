"""Cache models: miss accounting, LRU semantics, factory."""

import numpy as np
import pytest

import repro.memsim.alignment
import repro.memsim.cache
from repro.core.evalcache import clear_evaluation_cache
from repro.errors import ModelError
from repro.gpu.bam import BaMMethod
from repro.memsim.cache import (
    IdealCache,
    LRUCache,
    NoCache,
    StepLocalCache,
    make_cache,
)
from repro.memsim.raf import read_amplification


class TestNoCache:
    def test_everything_misses(self):
        cache = NoCache()
        assert cache.access(np.array([1, 1, 2])) == 3
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0

    def test_reset(self):
        cache = NoCache()
        cache.access(np.array([1]))
        cache.reset()
        assert cache.stats.references == 0


class TestStepLocalCache:
    def test_dedupes_within_batch(self):
        cache = StepLocalCache()
        assert cache.access(np.array([5, 5, 6, 5])) == 2
        assert cache.stats.hits == 2

    def test_nothing_survives_between_batches(self):
        cache = StepLocalCache()
        cache.access(np.array([5]))
        assert cache.access(np.array([5])) == 1

    def test_empty_batch(self):
        assert StepLocalCache().access(np.array([], dtype=np.int64)) == 0


class TestIdealCache:
    def test_cold_misses_only(self):
        cache = IdealCache()
        assert cache.access(np.array([1, 2, 1])) == 2
        assert cache.access(np.array([1, 2, 3])) == 1
        assert cache.stats.misses == 3
        assert cache.stats.hits == 3

    def test_reset_forgets(self):
        cache = IdealCache()
        cache.access(np.array([1]))
        cache.reset()
        assert cache.access(np.array([1])) == 1


class TestLRUCache:
    def test_hit_within_capacity(self):
        cache = LRUCache(capacity_blocks=2)
        assert cache.access(np.array([1, 2, 1, 2])) == 2

    def test_eviction_order_is_lru(self):
        cache = LRUCache(capacity_blocks=2)
        cache.access(np.array([1, 2]))
        cache.access(np.array([1]))  # 1 becomes MRU; 2 is now LRU
        cache.access(np.array([3]))  # evicts 2
        assert cache.access(np.array([1])) == 0  # hit
        assert cache.access(np.array([2])) == 1  # miss (was evicted)

    def test_cyclic_thrash_all_misses(self):
        """Classic LRU pathological case: loop one block larger than cache."""
        cache = LRUCache(capacity_blocks=3)
        stream = np.tile(np.array([0, 1, 2, 3]), 5)
        misses = cache.access(stream)
        assert misses == stream.size

    def test_occupancy_tracks_resident_blocks(self):
        cache = LRUCache(capacity_blocks=4)
        cache.access(np.array([1, 2]))
        assert cache.occupancy == 2
        cache.access(np.array([3, 4, 5]))
        assert cache.occupancy == 4

    def test_big_capacity_equals_ideal(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 100, 2_000)
        lru = LRUCache(capacity_blocks=1_000)
        ideal = IdealCache()
        assert lru.access(stream) == ideal.access(stream)

    def test_capacity_validation(self):
        with pytest.raises(ModelError, match="capacity"):
            LRUCache(capacity_blocks=0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 1.5, -3, "8"])
    def test_rejects_non_whole_capacities(self, capacity):
        with pytest.raises(ModelError, match="capacity_blocks"):
            LRUCache(capacity_blocks=capacity)

    def test_accepts_integral_float_capacity(self):
        assert LRUCache(capacity_blocks=8.0).capacity_blocks == 8

    def test_clone_empty_keeps_capacity(self):
        cache = LRUCache(capacity_blocks=7)
        cache.access(np.array([1, 2, 3]))
        clone = cache.clone_empty()
        assert clone.capacity_blocks == 7
        assert clone.stats.references == 0
        assert clone.occupancy == 0


class TestInclusionProperty:
    def test_smaller_cache_never_fewer_misses(self):
        """LRU's stack property: misses decrease monotonically in capacity."""
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 50, 3_000)
        misses = [
            LRUCache(capacity_blocks=c).access(stream) for c in (2, 8, 32, 128)
        ]
        assert misses == sorted(misses, reverse=True)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_cache("none"), NoCache)
        assert isinstance(make_cache("step"), StepLocalCache)
        assert isinstance(make_cache("ideal"), IdealCache)
        lru = make_cache("lru", capacity_bytes=8192, block_bytes=512)
        assert isinstance(lru, LRUCache)
        assert lru.capacity_blocks == 16

    def test_lru_requires_sizes(self):
        with pytest.raises(ModelError, match="requires"):
            make_cache("lru")

    def test_lru_minimum_one_block(self):
        lru = make_cache("lru", capacity_bytes=10, block_bytes=512)
        assert lru.capacity_blocks == 1

    def test_unknown_kind(self):
        with pytest.raises(ModelError, match="none/step/ideal/lru"):
            make_cache("arc")

    @pytest.mark.parametrize(
        "capacity", [float("nan"), float("inf"), -5, 0, 4096.5, None]
    )
    def test_lru_rejects_bad_capacity_bytes(self, capacity):
        with pytest.raises(ModelError):
            make_cache("lru", capacity_bytes=capacity, block_bytes=4096)

    @pytest.mark.parametrize("block", [float("nan"), float("inf"), 0, 0.5])
    def test_lru_rejects_bad_block_bytes(self, block):
        with pytest.raises(ModelError, match="block_bytes"):
            make_cache("lru", capacity_bytes=8192, block_bytes=block)

    def test_stats_hit_rate(self):
        cache = IdealCache()
        cache.access(np.array([1, 1, 1, 2]))
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert NoCache().stats.hit_rate == 0.0


class TestAccessSpans:
    """Byte-range batches priced through each model's ``access_spans``."""

    STARTS = np.array([4096, 0, 100, 8000, 300], dtype=np.int64)
    LENGTHS = np.array([10, 200, 0, 400, 50], dtype=np.int64)

    def test_step_local_counts_distinct_blocks(self):
        cache = StepLocalCache()
        # Blocks at 128 B: {32}, {0, 1}, {}, {62, 63, 64, 65}, {2}.
        assert cache.access_spans(self.STARTS, self.LENGTHS, 128) == 8
        assert cache.stats.misses == 8
        assert cache.stats.hits == 0
        assert cache.access_spans(self.STARTS, self.LENGTHS, 4096) == 3
        assert cache.stats.hits == 2

    def test_ideal_remembers_across_batches(self):
        cache = IdealCache()
        assert cache.access_spans(self.STARTS, self.LENGTHS, 128) == 8
        assert cache.access_spans(self.STARTS, self.LENGTHS, 128) == 0
        assert cache.stats.hits == 8

    def test_ideal_rejects_negative_blocks(self):
        with pytest.raises(ModelError, match="negative block"):
            IdealCache().access_spans(np.array([-64]), np.array([8]), 16)

    def test_negative_length_is_typed_error(self):
        for cache in (StepLocalCache(), IdealCache(), NoCache(), LRUCache(4)):
            with pytest.raises(ModelError, match="non-negative"):
                cache.access_spans(np.array([0, 16]), np.array([8, -1]), 16)

    def test_interval_paths_never_expand_blocks(self, monkeypatch):
        """Step-local and ideal pricing work from intervals alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("expand_to_blocks called")

        monkeypatch.setattr(repro.memsim.alignment, "expand_to_blocks", refuse)
        monkeypatch.setattr(repro.memsim.cache, "expand_to_blocks", refuse)
        from repro.traversal.trace import AccessTrace, TraceStep

        trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=2**20)
        trace.append(TraceStep(np.arange(3), [0, 5000, 40], [100, 64, 300]))
        trace.append(TraceStep(np.arange(2), [9000, 0], [20, 0]))
        clear_evaluation_cache()
        assert read_amplification(trace, 16).requests == 29
        assert read_amplification(trace, 32, IdealCache()).requests == 15
        assert BaMMethod().physical_trace(trace).total_requests == 3
