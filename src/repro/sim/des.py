"""Discrete-event simulation of GPU-initiated external-memory reads.

First-principles counterpart of the fluid model: every request is an
entity that acquires a warp slot, a PCIe tag (memory devices only), and a
device queue slot; is admitted by the device at its IOPS rate and squeezed
through its internal bandwidth; waits out the access latency; and finally
moves its data across the shared PCIe link.  Completion of the last
request ends the step.

The DES exists to *validate* the fluid model (they must agree within a
small tolerance — property-tested) and to run serialized microbenchmarks
like Appendix B's pointer chase where a fluid model has nothing to say.

Fast-path notes (benchmarked by the ``des`` family, docs/PERFORMANCE.md):
:func:`simulate_step` is one flat event loop over plain data.  Permits
(warps, link tags, per-device tags) are ints with FIFO deques of waiting
request indices; timed events are ``(time, seq, kind, i)`` tuples in one
heap; a freed permit passes to its oldest waiter through a FIFO of
zero-delay handoffs, merged with the heap by ``(time, seq)`` — the order
:class:`repro.sim.events.Simulator` would run them in.  The three FIFO
stages between the device-tag grant and the shared link (IOPS admission,
internal media channel, fixed access latency) are booked analytically at
the grant, so each request costs two heap events plus its handoffs, with
no method call on the way.  The float expressions are those of the
chained-event version: FIFO completion times are computable at
submission, and per-device admission times strictly increase, so booking
order equals event order.  :func:`simulate_step_faulty` keeps the
chained events on :mod:`repro.sim.resources`, which is what lets it
inject faults between stages; with no faults it is an independent check
of the flat loop (property-tested bit for bit).
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ..config import GPU_ACTIVE_WARPS_BFS, KERNEL_STEP_OVERHEAD
from ..errors import SimulationError
from ..telemetry.clock import SimClock
from ..telemetry.tracer import get_tracer
from .events import Simulator
from .fluid import FluidParams
from .resources import FifoServer, RateServer, Semaphore

__all__ = [
    "DESConfig",
    "DESResult",
    "simulate_step",
    "simulate_step_faulty",
    "simulate_trace",
]

# Event kinds of :func:`simulate_step`: permit handoffs (run from the
# ready queue) and timed events (run from the heap).
_GOT_WARP, _GOT_LINK_TAG, _GOT_DEVICE_TAG = 0, 1, 2
_AT_LINK, _FINISH = 0, 1


@dataclass(frozen=True)
class DESConfig:
    """Resources of the simulated system (mirror of :class:`FluidParams`).

    Per-device quantities are per *member* device; ``num_devices`` scales
    them.  ``latency`` is the GPU-observed round-trip minus the explicit
    queueing the DES itself models.
    """

    link_bandwidth: float
    latency: float
    device_iops: float
    device_internal_bandwidth: float
    num_devices: int = 1
    link_outstanding: int | None = None
    device_outstanding: int | None = None
    gpu_concurrency: int = GPU_ACTIVE_WARPS_BFS
    step_overhead: float = KERNEL_STEP_OVERHEAD

    def __post_init__(self) -> None:
        # Written as ``not x > 0`` so NaN fails too.
        if not (
            self.link_bandwidth > 0
            and self.latency > 0
            and self.device_iops > 0
            and self.device_internal_bandwidth > 0
        ):
            raise SimulationError("bandwidths, IOPS and latency must be positive")
        if not (math.isfinite(self.step_overhead) and self.step_overhead >= 0):
            raise SimulationError("step_overhead must be finite and >= 0")
        if self.num_devices < 1 or self.gpu_concurrency < 1:
            raise SimulationError("num_devices and gpu_concurrency must be >= 1")
        for name in ("link_outstanding", "device_outstanding"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 1:
                raise SimulationError(f"{name} must be None or >= 1")

    @classmethod
    def from_fluid(cls, params: FluidParams, num_devices: int = 1) -> "DESConfig":
        """Build a DES config equivalent to a fluid parameter set."""
        per_dev_outstanding = (
            None
            if params.device_outstanding is None
            else max(1, params.device_outstanding // num_devices)
        )
        return cls(
            link_bandwidth=params.link_bandwidth,
            latency=params.latency,
            device_iops=params.device_iops / num_devices,
            device_internal_bandwidth=params.device_internal_bandwidth / num_devices,
            num_devices=num_devices,
            link_outstanding=params.link_outstanding,
            device_outstanding=per_dev_outstanding,
            gpu_concurrency=params.gpu_concurrency,
            step_overhead=params.step_overhead,
        )


@dataclass
class DESResult:
    """Outcome of one simulated step (or trace).

    ``retries``/``timeouts``/``faults_injected`` stay zero for fault-free
    simulations; :func:`simulate_step_faulty` populates them.
    """

    time: float
    requests: int
    link_busy_time: float
    max_link_tags: int
    max_warps: int
    completion_times: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    retries: int = 0
    timeouts: int = 0
    faults_injected: int = 0

    @property
    def link_utilization(self) -> float:
        """Fraction of the step the link's data path was busy."""
        return self.link_busy_time / self.time if self.time > 0 else 0.0


def simulate_step(
    sizes: np.ndarray,
    config: DESConfig,
    devices: np.ndarray | None = None,
    *,
    include_overhead: bool = False,
    max_events: int | None = None,
) -> DESResult:
    """Simulate one step: all ``sizes`` requests ready at time zero.

    ``devices`` maps each request to a device index (round-robin by
    default).  Returns the completion time of the last request.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    n = sizes.size
    if n == 0:
        return DESResult(
            time=config.step_overhead if include_overhead else 0.0,
            requests=0,
            link_busy_time=0.0,
            max_link_tags=0,
            max_warps=0,
            completion_times=np.empty(0, dtype=np.float64),
        )
    if devices is None:
        devices = np.arange(n, dtype=np.int64) % config.num_devices
    else:
        devices = np.asarray(devices, dtype=np.int64)
        if devices.shape != sizes.shape:
            raise SimulationError("devices must match sizes in shape")
        if devices.min() < 0 or devices.max() >= config.num_devices:
            raise SimulationError("device index out of range")

    num_devices = config.num_devices
    devices_list = devices.tolist()
    # Service times, vectorised: float64 division is correctly rounded, so
    # each entry equals the scalar ``size / bandwidth`` bit for bit.
    media_time = (sizes / config.device_internal_bandwidth).tolist()
    link_time = (sizes / config.link_bandwidth).tolist()
    op_time = 1.0 / config.device_iops
    latency = config.latency
    # Permits are plain ints with FIFO deques of waiting request indices;
    # an unlimited pool becomes ``n``, which no step of ``n`` requests can
    # exhaust.  Warps are only ever acquired up front, so their waiters
    # are exactly requests ``warps .. n-1`` in order: a cursor suffices.
    warps = min(n, config.gpu_concurrency)
    next_warp = warps
    link_cap = n if config.link_outstanding is None else config.link_outstanding
    link_used = 0
    max_link = 0
    link_wait: deque[int] = deque()
    dev_cap = n if config.device_outstanding is None else config.device_outstanding
    dev_used = [0] * num_devices
    dev_wait: list[deque[int]] = [deque() for _ in range(num_devices)]
    ops_free = [0.0] * num_devices  # IOPS admission server, per device
    media_free = [0.0] * num_devices  # internal media channel, per device
    link_free = 0.0
    link_busy = 0.0
    completion = [0.0] * n

    # Future events, ``(time, seq, kind, i)``: ``seq`` breaks time ties in
    # scheduling order.  Permit handoffs happen at the current time, so
    # they queue FIFO in ``ready`` as ``(seq, kind, i)`` and the loop runs
    # whichever of the two heads is earlier by ``(time, seq)``.  The
    # warp-holding requests enter ``ready`` with seq 0 — ahead of every
    # event — and are not counted: they start before the clock runs.
    heap: list[tuple[float, int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    ready: deque[tuple[int, int, int]] = deque(
        (0, _GOT_WARP, i) for i in range(warps)
    )
    popleft = ready.popleft
    handoff = ready.append
    seq = 0
    now = 0.0
    processed = -warps
    limit = sys.maxsize if max_events is None else max_events

    tracer = get_tracer()
    traced = tracer.enabled
    # Sim-time view: queue-depth samples land on the virtual timeline.
    clock = SimpleNamespace(now=0.0)
    sim_tracer = tracer.with_clock(SimClock(clock)) if traced else tracer
    depth_names = [f"des.dev{d}.queue_depth" for d in range(num_devices)]

    with tracer.span("des.step", requests=n, devices=num_devices):
        while True:
            if processed > limit:
                raise SimulationError(f"exceeded {max_events} events; runaway sim?")
            if ready and (not heap or heap[0][0] > now or heap[0][1] > ready[0][0]):
                _, kind, i = popleft()
                processed += 1
                if kind == _GOT_WARP:
                    if link_used >= link_cap:
                        link_wait.append(i)
                        continue
                    link_used += 1
                    if link_used > max_link:
                        max_link = link_used
                    kind = _GOT_LINK_TAG
                d = devices_list[i]
                if kind == _GOT_LINK_TAG:
                    if dev_used[d] >= dev_cap:
                        dev_wait[d].append(i)
                        continue
                    dev_used[d] += 1
                if traced:
                    clock.now = now
                    sim_tracer.counter_sample(
                        depth_names[d], dev_used[d] + len(dev_wait[d])
                    )
                # Device tag held: admission at the op rate, the internal
                # media channel and the access latency are all FIFO, so
                # their finish times are booked now and one event lands
                # at link entry (per-device admissions strictly increase,
                # so booking order is event order).
                t = ops_free[d]
                if now > t:
                    t = now
                t += op_time
                ops_free[d] = t
                m = media_free[d]
                if t > m:
                    m = t
                m += media_time[i]
                media_free[d] = m
                seq += 1
                push(heap, (m + latency, seq, _AT_LINK, i))
                continue
            if not heap:
                break
            now, _, kind, i = pop(heap)
            processed += 1
            if kind == _AT_LINK:
                # The response data serialises onto the shared link.
                service = link_time[i]
                t = now if now > link_free else link_free
                link_free = t = t + service
                link_busy += service
                seq += 1
                push(heap, (t, seq, _FINISH, i))
                continue
            # Finish: each freed permit passes straight to its oldest waiter.
            completion[i] = now
            d = devices_list[i]
            waiting = dev_wait[d]
            if waiting:
                seq += 1
                handoff((seq, _GOT_DEVICE_TAG, waiting.popleft()))
            else:
                dev_used[d] -= 1
            if link_wait:
                seq += 1
                handoff((seq, _GOT_LINK_TAG, link_wait.popleft()))
            else:
                link_used -= 1
            if next_warp < n:
                seq += 1
                handoff((seq, _GOT_WARP, next_warp))
                next_warp += 1
            if traced:
                clock.now = now
                sim_tracer.counter_sample(
                    depth_names[d], dev_used[d] + len(dev_wait[d])
                )
    return DESResult(
        time=now + (config.step_overhead if include_overhead else 0.0),
        requests=n,
        link_busy_time=link_busy,
        max_link_tags=max_link,
        max_warps=warps,
        completion_times=np.array(completion, dtype=np.float64),
    )


def simulate_step_faulty(
    sizes: np.ndarray,
    config: DESConfig,
    plan,
    policy,
    devices: np.ndarray | None = None,
    *,
    include_overhead: bool = False,
    max_events: int | None = None,
) -> DESResult:
    """Simulate one step with faults replayed as real extra events.

    ``plan`` is a :class:`~repro.faults.plan.FaultPlan`, ``policy`` a
    :class:`~repro.faults.retry.RetryPolicy` (duck-typed here to keep
    :mod:`repro.sim` import-independent of :mod:`repro.faults`).  A failed
    attempt holds its warp and link tag, pays the (possibly spiked,
    possibly cut-off-at-timeout) latency, releases its device queue slot
    for the backoff wait, then reissues through device admission, media
    and latency again — extra tags held longer, extra latency paid, and
    no link data moved until an attempt succeeds.  Requests against a
    permanently dropped device fail every attempt; exhausting the retry
    budget raises :class:`~repro.errors.FaultExhaustedError` (pool-level
    eviction lives a layer up, in :mod:`repro.faults.backend`).

    The plan's counter-based draws make this bit-reproducible and
    consistent with :class:`~repro.faults.backend.FaultyBackend` for the
    same request ids.
    """
    from ..errors import FaultExhaustedError

    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    n = sizes.size
    if n == 0:
        return DESResult(
            time=config.step_overhead if include_overhead else 0.0,
            requests=0,
            link_busy_time=0.0,
            max_link_tags=0,
            max_warps=0,
            completion_times=np.empty(0, dtype=np.float64),
        )
    if devices is None:
        devices = np.arange(n, dtype=np.int64) % config.num_devices
    else:
        devices = np.asarray(devices, dtype=np.int64)
        if devices.shape != sizes.shape:
            raise SimulationError("devices must match sizes in shape")
        if devices.min() < 0 or devices.max() >= config.num_devices:
            raise SimulationError("device index out of range")

    sim = Simulator()
    warps = Semaphore(sim, config.gpu_concurrency, "warps")
    link_tags = Semaphore(sim, config.link_outstanding, "link-tags")
    device_tags = [
        Semaphore(sim, config.device_outstanding, f"dev{i}-tags")
        for i in range(config.num_devices)
    ]
    device_ops = [
        RateServer(sim, config.device_iops, f"dev{i}-ops")
        for i in range(config.num_devices)
    ]
    device_bw = [
        FifoServer(sim, f"dev{i}-bw") for i in range(config.num_devices)
    ]
    link = FifoServer(sim, "link-data")
    completion = np.zeros(n, dtype=np.float64)
    counters = {"retries": 0, "timeouts": 0, "faults": 0}
    tracer = get_tracer()
    traced = tracer.enabled
    sim_tracer = tracer.with_clock(SimClock(sim)) if traced else tracer

    def sample_depth(dev: int) -> None:
        sim_tracer.counter_sample(
            f"des.dev{dev}.queue_depth", device_tags[dev].depth
        )

    def start_request(i: int) -> None:
        size = int(sizes[i])
        dev = int(devices[i])
        state = {"attempt": 1}

        def with_warp() -> None:
            link_tags.acquire(with_link_tag)

        def with_link_tag() -> None:
            device_tags[dev].acquire(with_device_tag)

        def with_device_tag() -> None:
            if traced:
                sample_depth(dev)
            device_ops[dev].submit_op(after_admission)

        def after_admission() -> None:
            device_bw[dev].submit(size / config.device_internal_bandwidth, after_media)

        def after_media() -> None:
            attempt = state["attempt"]
            latency = config.latency * plan.latency_multiplier(dev)
            latency += plan.spike_latency(i, attempt)
            timed_out = policy.timeout is not None and latency > policy.timeout
            wait = policy.timeout if timed_out else latency
            sim.schedule(wait, lambda: after_latency(timed_out))

        def after_latency(timed_out: bool) -> None:
            attempt = state["attempt"]
            failed = (
                timed_out
                or plan.device_dropped(dev, i, sim.now)
                or plan.transient_failure(i, attempt)
            )
            if not failed:
                link.submit(size / config.link_bandwidth, lambda: finish(i, dev))
                return
            counters["faults"] += 1
            if timed_out:
                counters["timeouts"] += 1
                if traced:
                    sim_tracer.event(
                        "fault.timeout", request=i, attempt=attempt, device=dev
                    )
            if attempt >= policy.max_attempts:
                raise FaultExhaustedError(
                    f"request {i} failed {attempt} times (device {dev}); "
                    "retry budget exhausted",
                    request_id=i,
                    device=dev,
                    attempts=attempt,
                )
            counters["retries"] += 1
            if traced:
                sim_tracer.event(
                    "fault.retry", request=i, attempt=attempt, device=dev
                )
            state["attempt"] = attempt + 1
            # Free the device queue slot during the backoff, then reissue
            # through admission, media and latency — real extra events.
            # Jittered policies draw their uniform from the plan's seeded
            # stream, so the DES replays the backend's exact waits.
            device_tags[dev].release()
            jittered = getattr(policy, "jitter", 0.0) > 0
            jitter_u = plan.backoff_jitter(i, attempt) if jittered else None
            wait_time = (
                policy.backoff(attempt, u=jitter_u)
                if jittered
                else policy.backoff(attempt)
            )
            sim.schedule(
                wait_time,
                lambda: device_tags[dev].acquire(with_device_tag),
            )

        warps.acquire(with_warp)

    def finish(i: int, dev: int) -> None:
        completion[i] = sim.now
        device_tags[dev].release()
        link_tags.release()
        warps.release()
        if traced:
            sample_depth(dev)

    with tracer.span(
        "des.step", requests=n, devices=config.num_devices, faulty=True
    ):
        for i in range(n):
            start_request(i)
        end = sim.run(max_events=max_events)
    return DESResult(
        time=end + (config.step_overhead if include_overhead else 0.0),
        requests=n,
        link_busy_time=link.busy_time,
        max_link_tags=link_tags.max_in_use,
        max_warps=warps.max_in_use,
        completion_times=completion,
        retries=counters["retries"],
        timeouts=counters["timeouts"],
        faults_injected=counters["faults"],
    )


def simulate_trace(
    step_sizes: list[np.ndarray],
    config: DESConfig,
    *,
    max_events: int | None = None,
) -> DESResult:
    """Simulate consecutive steps with a barrier between them.

    Per-step request-size arrays in, total runtime out (each step pays the
    kernel overhead, as in the fluid model).
    """
    if not step_sizes:
        raise SimulationError("simulate_trace needs at least one step")
    total = 0.0
    busy = 0.0
    requests = 0
    max_tags = 0
    max_warps = 0
    for sizes in step_sizes:
        result = simulate_step(
            sizes, config, include_overhead=True, max_events=max_events
        )
        total += result.time
        busy += result.link_busy_time
        requests += result.requests
        max_tags = max(max_tags, result.max_link_tags)
        max_warps = max(max_warps, result.max_warps)
    return DESResult(
        time=total,
        requests=requests,
        link_busy_time=busy,
        max_link_tags=max_tags,
        max_warps=max_warps,
        completion_times=np.empty(0, dtype=np.float64),
    )
