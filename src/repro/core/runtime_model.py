"""End-to-end runtime prediction: trace + system -> graph processing time.

A :class:`SystemModel` bundles the four things that determine performance
(access method, device pool, PCIe link, GPU-observed path latency) and
knows how to derive the fluid model's parameters from them.
:func:`predict_runtime` then prices a logical trace: access method turns
it into physical steps, the fluid model times each step, and the result
carries the paper's reporting quantities (D, RAF, d, T) alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import GPU_ACTIVE_WARPS_BFS, KERNEL_STEP_OVERHEAD
from ..devices.base import AccessKind, DevicePool
from ..errors import ModelError
from ..gpu.base import AccessMethod, PhysicalTrace
from ..interconnect.pcie import PCIeLink
from ..sim.fluid import FluidParams, TraceTiming, trace_time
from ..traversal.trace import AccessTrace
from .evalcache import cached_physical_trace

__all__ = ["SystemModel", "RuntimeResult", "predict_runtime", "predict_runtime_des"]


@dataclass(frozen=True)
class SystemModel:
    """One named system configuration (e.g. "EMOGI on host DRAM").

    ``path_latency`` is the GPU-to-device round-trip *excluding* the
    device's internal latency (which the pool's profile carries); their
    sum is what the pointer chase of Figure 9 observes.
    """

    name: str
    method: AccessMethod
    pool: DevicePool
    link: PCIeLink
    path_latency: float
    gpu_concurrency: int = GPU_ACTIVE_WARPS_BFS
    step_overhead: float = KERNEL_STEP_OVERHEAD

    def __post_init__(self) -> None:
        if self.path_latency <= 0:
            raise ModelError(f"{self.name}: path latency must be positive")
        if self.gpu_concurrency < 1:
            raise ModelError(f"{self.name}: gpu_concurrency must be >= 1")

    @property
    def total_latency(self) -> float:
        """GPU-observed round trip: path + device internals (Figure 9)."""
        return self.path_latency + self.pool.latency

    def fluid_params(self) -> FluidParams:
        """Fluid-model parameters of this system.

        The PCIe outstanding-read limit applies to memory devices only
        (Section 3.2); storage is queue-depth limited via the pool.
        """
        link_outstanding = (
            self.link.max_outstanding_reads
            if self.pool.kind is AccessKind.MEMORY
            else None
        )
        return FluidParams(
            link_bandwidth=self.link.effective_bandwidth,
            device_iops=self.pool.iops,
            device_internal_bandwidth=self.pool.internal_bandwidth,
            latency=self.total_latency,
            link_outstanding=link_outstanding,
            device_outstanding=self.pool.max_outstanding,
            gpu_concurrency=self.gpu_concurrency,
            step_overhead=self.step_overhead,
        )

    def describe(self) -> str:
        """Multi-line human-readable configuration summary."""
        from ..units import to_usec

        return (
            f"{self.name}: {self.method.name} on {self.pool.name} via "
            f"{self.link.describe()}, GPU-observed latency "
            f"{to_usec(self.total_latency):.2f} us"
        )


@dataclass(frozen=True)
class RuntimeResult:
    """Predicted graph processing time plus the paper's reporting metrics."""

    system: str
    runtime: float
    physical: PhysicalTrace
    timing: TraceTiming

    @property
    def fetched_bytes(self) -> int:
        """The paper's ``D``."""
        return self.physical.fetched_bytes

    @property
    def raf(self) -> float:
        """Read amplification D / E."""
        return self.physical.raf

    @property
    def avg_transfer_bytes(self) -> float:
        """Average link request size ``d``."""
        return self.physical.avg_transfer_bytes

    @property
    def avg_throughput(self) -> float:
        """Achieved average throughput ``T = D / t`` (Equation 1 inverted)."""
        return self.fetched_bytes / self.runtime if self.runtime > 0 else 0.0

    def dominant_bound(self) -> str:
        """The resource that accounts for most of the runtime."""
        by_bound = self.timing.time_by_bound()
        return max(by_bound, key=by_bound.get)  # type: ignore[arg-type]


def predict_runtime(trace: AccessTrace, system: SystemModel) -> RuntimeResult:
    """Price ``trace`` on ``system``; checks capacity first.

    The expensive logical-to-physical expansion is memoized process-wide,
    keyed by (trace content, method configuration) — see
    :mod:`repro.core.evalcache`; sweeps that vary only the device or the
    latency re-price the same physical trace without recomputing it.
    """
    system.pool.check_fits(trace.edge_list_bytes)
    physical = cached_physical_trace(system.method, trace)
    timing = trace_time(physical.step_inputs(), system.fluid_params())
    return RuntimeResult(
        system=system.name,
        runtime=timing.total_time,
        physical=physical,
        timing=timing,
    )


def predict_runtime_des(
    trace: AccessTrace,
    system: SystemModel,
    *,
    max_requests_per_step: int | None = None,
) -> float:
    """Price ``trace`` on ``system`` with the discrete-event simulator.

    First-principles counterpart of :func:`predict_runtime` for
    cross-validation: every request is simulated through warp slots,
    tags, device queues and the shared link.  Request sizes within a step
    are approximated as uniform (``link_bytes / requests``) because the
    physical trace stores aggregates; for the paper's workloads the size
    spread within a step is small (32-128 B transactions).

    ``max_requests_per_step`` subsamples huge steps — the simulated time
    is scaled back up linearly, exact in the rate-bound regimes that
    dominate large steps; a cap below 1 raises :class:`ModelError`.
    Returns the total runtime in seconds.
    """
    import numpy as np

    from ..sim.des import DESConfig, simulate_step

    if max_requests_per_step is not None and not max_requests_per_step >= 1:
        raise ModelError(
            f"max_requests_per_step must be >= 1, got {max_requests_per_step}"
        )
    system.pool.check_fits(trace.edge_list_bytes)
    physical = cached_physical_trace(system.method, trace)
    params = system.fluid_params()
    config = DESConfig.from_fluid(params, num_devices=system.pool.count)
    total = 0.0
    for step in physical.steps:
        if step.requests == 0:
            total += params.step_overhead
            continue
        requests = step.requests
        scale = 1.0
        if max_requests_per_step is not None and requests > max_requests_per_step:
            scale = requests / max_requests_per_step
            requests = max_requests_per_step
        size = max(1, step.link_bytes // step.requests)
        sizes = np.full(requests, size, dtype=np.int64)
        result = simulate_step(sizes, config)
        total += result.time * scale + params.step_overhead
    return total
