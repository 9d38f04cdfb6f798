"""Discrete-event simulator: request pipelines and resource limits."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.des import (
    DESConfig,
    simulate_step,
    simulate_step_faulty,
    simulate_trace,
)
from repro.sim.fluid import FluidParams
from repro.telemetry.tracer import Tracer, use_tracer
from repro.units import MB_PER_S, MIOPS, USEC


def make_config(**overrides):
    defaults = dict(
        link_bandwidth=24_000 * MB_PER_S,
        latency=1.2 * USEC,
        device_iops=100 * MIOPS,
        device_internal_bandwidth=100_000 * MB_PER_S,
        num_devices=1,
        link_outstanding=768,
        device_outstanding=None,
        gpu_concurrency=2_048,
        step_overhead=0.0,
    )
    defaults.update(overrides)
    return DESConfig(**defaults)


class TestSingleRequest:
    def test_time_is_latency_plus_service(self):
        config = make_config()
        result = simulate_step(np.array([128]), config)
        expected = (
            1 / (100 * MIOPS)  # device admission
            + 128 / (100_000 * MB_PER_S)  # media
            + 1.2 * USEC  # latency
            + 128 / (24_000 * MB_PER_S)  # link transfer
        )
        assert result.time == pytest.approx(expected, rel=1e-9)

    def test_empty_step(self):
        result = simulate_step(np.array([], dtype=np.int64), make_config())
        assert result.time == 0.0
        assert result.requests == 0

    def test_zero_sizes_filtered(self):
        result = simulate_step(np.array([0, 0, 64]), make_config())
        assert result.requests == 1


class TestResourceLimits:
    def test_link_tags_respected(self):
        config = make_config(link_outstanding=8)
        result = simulate_step(np.full(100, 64), config)
        assert result.max_link_tags <= 8

    def test_warp_limit_respected(self):
        config = make_config(gpu_concurrency=4, link_outstanding=None)
        result = simulate_step(np.full(50, 64), config)
        assert result.max_warps <= 4

    def test_latency_dominates_with_tiny_concurrency(self):
        config = make_config(gpu_concurrency=1)
        n = 20
        result = simulate_step(np.full(n, 32), config)
        # Fully serialized: n round trips.
        assert result.time >= n * 1.2 * USEC

    def test_bandwidth_bound_throughput(self):
        config = make_config()
        n, size = 5_000, 4_096
        result = simulate_step(np.full(n, size), config)
        # Achieved throughput within 2% of the link bandwidth.
        achieved = n * size / result.time
        assert achieved == pytest.approx(24_000 * MB_PER_S, rel=0.02)

    def test_iops_bound_throughput(self):
        config = make_config(device_iops=1 * MIOPS)
        n = 2_000
        result = simulate_step(np.full(n, 64), config)
        assert n / result.time == pytest.approx(1 * MIOPS, rel=0.02)

    def test_multi_device_scales_iops(self):
        slow = simulate_step(
            np.full(1_000, 64), make_config(device_iops=1 * MIOPS, num_devices=1)
        )
        fast = simulate_step(
            np.full(1_000, 64), make_config(device_iops=1 * MIOPS, num_devices=4)
        )
        assert slow.time / fast.time == pytest.approx(4, rel=0.1)

    def test_link_utilization_bounded(self):
        result = simulate_step(np.full(500, 128), make_config())
        assert 0.0 < result.link_utilization <= 1.0


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(SimulationError):
            make_config(link_bandwidth=0)
        with pytest.raises(SimulationError):
            make_config(num_devices=0)

    @pytest.mark.parametrize(
        "field",
        ["link_bandwidth", "latency", "device_iops", "device_internal_bandwidth"],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rates_and_latency_must_be_positive(self, field, value):
        with pytest.raises(SimulationError, match="positive"):
            make_config(**{field: value})

    @pytest.mark.parametrize("value", [-1e-6, float("nan"), float("inf")])
    def test_step_overhead_must_be_finite_nonnegative(self, value):
        with pytest.raises(SimulationError, match="step_overhead"):
            make_config(step_overhead=value)

    @pytest.mark.parametrize("field", ["link_outstanding", "device_outstanding"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_outstanding_limits_rejected_at_construction(self, field, value):
        with pytest.raises(SimulationError, match=field):
            make_config(**{field: value})

    def test_device_array_shape_checked(self):
        with pytest.raises(SimulationError, match="shape"):
            simulate_step(np.array([64, 64]), make_config(), devices=np.array([0]))

    def test_device_index_range_checked(self):
        with pytest.raises(SimulationError, match="range"):
            simulate_step(np.array([64]), make_config(), devices=np.array([5]))

    def test_from_fluid_divides_per_device(self):
        params = FluidParams(
            link_bandwidth=12_000 * MB_PER_S,
            device_iops=10 * MIOPS,
            device_internal_bandwidth=10_000 * MB_PER_S,
            latency=2 * USEC,
            device_outstanding=320,
        )
        config = DESConfig.from_fluid(params, num_devices=5)
        assert config.device_iops == pytest.approx(2 * MIOPS)
        assert config.device_outstanding == 64
        assert config.num_devices == 5


class TestTrace:
    def test_steps_are_sequential_with_overhead(self):
        config = make_config(step_overhead=10 * USEC)
        one = simulate_step(np.full(100, 64), config, include_overhead=True)
        trace = simulate_trace([np.full(100, 64)] * 3, config)
        assert trace.time == pytest.approx(3 * one.time, rel=1e-6)
        assert trace.requests == 300

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            simulate_trace([], make_config())


class TestEventCounts:
    """A step where every permit pool blocks: tracing must not change the
    result, and ``max_events`` counts timed events plus permit handoffs."""

    CONFIG = make_config(
        num_devices=3, link_outstanding=16, device_outstanding=2, gpu_concurrency=64
    )
    SIZES = np.tile(np.array([64, 0, 128, 32, 4_096], dtype=np.int64), 60)
    #: 480 timed events (two per request) plus 634 permit handoffs.
    EVENTS = 1_114

    def test_tracing_changes_nothing(self):
        plain = simulate_step(self.SIZES, self.CONFIG)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = simulate_step(self.SIZES, self.CONFIG)
        assert traced.time == plain.time
        assert traced.link_busy_time == plain.link_busy_time
        assert traced.max_link_tags == plain.max_link_tags == 16
        assert traced.max_warps == plain.max_warps == 64
        assert np.array_equal(traced.completion_times, plain.completion_times)
        samples = Counter(r.name for r in tracer.records if r.kind == "counter")
        # One sample at each device-tag grant and one at each finish.
        assert samples == {f"des.dev{d}.queue_depth": 160 for d in range(3)}
        assert len(tracer.spans("des.step")) == 1

    def test_event_budget_counts_the_same_events(self):
        simulate_step(self.SIZES, self.CONFIG, max_events=self.EVENTS)
        with pytest.raises(SimulationError, match="runaway"):
            simulate_step(self.SIZES, self.CONFIG, max_events=self.EVENTS - 1)


@st.composite
def des_cases(draw):
    num_devices = draw(st.integers(1, 5))
    config = make_config(
        link_bandwidth=draw(st.sampled_from([6_000, 24_000])) * MB_PER_S,
        latency=draw(st.sampled_from([0.1, 1.2, 10.0])) * USEC,
        device_iops=draw(st.sampled_from([1, 16, 100])) * MIOPS,
        device_internal_bandwidth=draw(st.sampled_from([5_700, 100_000])) * MB_PER_S,
        num_devices=num_devices,
        link_outstanding=draw(st.sampled_from([None, 1, 2, 16])),
        device_outstanding=draw(st.sampled_from([None, 1, 2, 16])),
        gpu_concurrency=draw(st.sampled_from([1, 7, 64, 2_048])),
    )
    sizes = np.array(
        draw(st.lists(st.sampled_from([0, 8, 32, 64, 128, 4_096]), max_size=120)),
        dtype=np.int64,
    )
    devices = None
    if draw(st.booleans()):
        live = int((sizes > 0).sum())
        devices = np.array(
            draw(st.lists(st.integers(0, num_devices - 1), min_size=live, max_size=live)),
            dtype=np.int64,
        )
    return sizes, config, devices


@given(des_cases())
@settings(max_examples=60, deadline=None)
def test_flat_loop_matches_chained_faulty_des_without_faults(case):
    """The fault-free chained-event DES is an independent oracle: with an
    empty fault plan it must agree with the flat loop bit for bit."""
    sizes, config, devices = case
    flat = simulate_step(sizes, config, devices)
    chained = simulate_step_faulty(
        sizes, config, FaultPlan(seed=0), RetryPolicy(), devices
    )
    assert flat.time == chained.time
    assert flat.link_busy_time == chained.link_busy_time
    assert np.array_equal(flat.completion_times, chained.completion_times)
    assert flat.max_link_tags == chained.max_link_tags
    assert flat.max_warps == chained.max_warps
    assert chained.faults_injected == 0
