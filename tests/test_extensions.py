"""Extension features: OoO bridge, DES prediction, flash-CXL, cost model."""

import numpy as np
import pytest

from repro.core.cost import MEDIA_COSTS, MediaCost, cost_performance, system_memory_cost
from repro.core.experiment import (
    bam_system,
    cxl_system,
    emogi_system,
    flash_cxl_system,
    run_algorithm,
    xlfdd_system,
)
from repro.core.runtime_model import predict_runtime, predict_runtime_des
from repro.devices.cxl import (
    LatencyBridge,
    OutOfOrderLatencyBridge,
    head_of_line_penalty,
)
from repro.errors import DeviceError, ModelError
from repro.units import USEC


class TestOutOfOrderBridge:
    def test_equivalent_to_fifo_for_constant_latency(self):
        arrivals = np.sort(np.random.default_rng(0).uniform(0, 1e-4, 100))
        fifo = LatencyBridge(1 * USEC).release_times(arrivals, 0.1 * USEC)
        ooo = OutOfOrderLatencyBridge(1 * USEC).release_times(arrivals, 0.1 * USEC)
        assert np.allclose(fifo, ooo)

    def test_no_head_of_line_blocking(self):
        bridge = OutOfOrderLatencyBridge(0.0)
        arrivals = np.array([0.0, 1e-9])
        # First request is slow; second must not wait for it.
        out = bridge.release_times_variable(arrivals, np.array([5 * USEC, 0.1 * USEC]))
        assert out[1] < out[0]

    def test_penalty_zero_for_constant_latency(self):
        arrivals = np.linspace(0, 1e-4, 50)
        assert head_of_line_penalty(arrivals, np.full(50, 1e-7)) == 0.0

    def test_penalty_positive_for_variable_latency(self):
        rng = np.random.default_rng(1)
        arrivals = np.sort(rng.uniform(0, 1e-5, 200))
        latencies = rng.exponential(0.5e-6, 200)
        assert head_of_line_penalty(arrivals, latencies) > 0.0

    def test_penalty_grows_with_variance(self):
        rng = np.random.default_rng(2)
        arrivals = np.sort(rng.uniform(0, 1e-5, 500))
        low_var = rng.normal(1e-6, 1e-8, 500).clip(min=0)
        high_var = rng.normal(1e-6, 5e-7, 500).clip(min=0)
        assert head_of_line_penalty(arrivals, high_var) > head_of_line_penalty(
            arrivals, low_var
        )

    def test_validation(self):
        with pytest.raises(DeviceError):
            head_of_line_penalty(np.array([0.0]), np.array([1e-6, 2e-6]))
        with pytest.raises(DeviceError):
            OutOfOrderLatencyBridge(0.0).release_times(
                np.array([1.0, 0.0]), 1e-6
            )


class TestDESPrediction:
    def test_matches_fluid_prediction(self, urand_paper, paper_bfs_trace):
        system = emogi_system()
        fluid = predict_runtime(paper_bfs_trace, system).runtime
        des = predict_runtime_des(
            paper_bfs_trace, system, max_requests_per_step=4_000
        )
        assert des == pytest.approx(fluid, rel=0.2)

    def test_cxl_latency_effect_visible_in_des(self, paper_bfs_trace):
        fast = predict_runtime_des(
            paper_bfs_trace, cxl_system(0.0), max_requests_per_step=2_000
        )
        slow = predict_runtime_des(
            paper_bfs_trace, cxl_system(3 * USEC), max_requests_per_step=2_000
        )
        assert slow > 1.5 * fast

    @pytest.mark.parametrize("cap", [0, -5, float("nan")])
    def test_bad_request_cap_is_a_model_error(self, paper_bfs_trace, cap):
        with pytest.raises(ModelError, match="max_requests_per_step"):
            predict_runtime_des(
                paper_bfs_trace, emogi_system(), max_requests_per_step=cap
            )


class TestFlashCXL:
    def test_today_flash_exceeds_budget(self, paper_bfs_trace):
        """4 us flash + CXL + path > 2.87 us allowance: visibly slower."""
        dram = predict_runtime(paper_bfs_trace, emogi_system()).runtime
        flash = predict_runtime(paper_bfs_trace, flash_cxl_system(4 * USEC)).runtime
        assert flash > 1.4 * dram

    def test_projected_flash_is_close(self, paper_bfs_trace):
        """The paper's 'within reach' projection: ~1.5 us flash lands the
        total near the allowance and the runtime near host DRAM."""
        dram = predict_runtime(paper_bfs_trace, emogi_system()).runtime
        flash = predict_runtime(
            paper_bfs_trace, flash_cxl_system(1.2 * USEC)
        ).runtime
        assert flash < 1.25 * dram

    def test_runtime_monotone_in_flash_latency(self, paper_bfs_trace):
        runtimes = [
            predict_runtime(paper_bfs_trace, flash_cxl_system(l * USEC)).runtime
            for l in (1, 2, 4, 8)
        ]
        assert runtimes == sorted(runtimes)

    def test_validation(self):
        with pytest.raises(ModelError):
            flash_cxl_system(0.0)


class TestCostModel:
    def test_media_cost_linear_below_tier(self):
        media = MediaCost("m", usd_per_gb=2.0)
        assert media.cost(int(10e9)) == pytest.approx(20.0)

    def test_tier_multiplier_applies_above_threshold(self):
        media = MediaCost(
            "m", usd_per_gb=2.0, tier_threshold_gb=10.0, tier_multiplier=3.0
        )
        # 10 GB at base + 5 GB at 3x.
        assert media.cost(int(15e9)) == pytest.approx(10 * 2 + 5 * 6)

    def test_device_fixed_costs(self):
        media = MediaCost("m", usd_per_gb=1.0, usd_per_device=100.0)
        assert media.cost(int(1e9), devices=4) == pytest.approx(401.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=-1)
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=1, tier_multiplier=0.5)
        with pytest.raises(ModelError):
            MediaCost("m", usd_per_gb=1).cost(-1)

    def test_system_media_resolution(self):
        data = int(35.2e9)
        assert system_memory_cost(emogi_system(), data) > 0
        # flash-cxl resolves to the flash tier, far cheaper per GB than
        # cxl-dram at large capacity.
        big = int(2e12)
        assert system_memory_cost(
            flash_cxl_system(2 * USEC), big
        ) < system_memory_cost(cxl_system(0.0), big)

    def test_unknown_system_rejected(self, emogi_gen4):
        from dataclasses import replace

        odd = replace(emogi_gen4, name="mystery-system")
        with pytest.raises(ModelError, match="no media pricing"):
            system_memory_cost(odd, 10**9)

    def test_paper_scale_frontier(self, paper_bfs_trace):
        """At multi-TB capacities, flash-backed CXL wins cost-performance
        over DRAM — the paper's economic thesis."""
        systems = [
            emogi_system(),
            cxl_system(0.0, link=emogi_system().link, devices=12),
            flash_cxl_system(1.2 * USEC),
        ]
        rows = cost_performance(paper_bfs_trace, systems, data_bytes=int(2e12))
        by_name = {str(r["system"]): r for r in rows}
        flash_row = next(v for k, v in by_name.items() if k.startswith("flash"))
        dram_row = by_name["emogi-dram"]
        assert flash_row["memory_cost_usd"] < 0.3 * dram_row["memory_cost_usd"]
        assert flash_row["cost_x_runtime"] < dram_row["cost_x_runtime"]

    def test_empty_systems_rejected(self, paper_bfs_trace):
        with pytest.raises(ModelError):
            cost_performance(paper_bfs_trace, [])
