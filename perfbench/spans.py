"""Benchmark-side spans around the public entry points of each layer.

Nothing under ``src/`` is instrumented for the benchmark.  A
:class:`Probe` replaces each entry point listed in :data:`ENTRIES` -- a
module function wherever a ``repro`` module imported it, or a class
method -- with a wrapper that records a span, and puts the originals
back on :meth:`Probe.uninstall`.  Untraced and traced iterations of one
run therefore execute the same program code.

A span records its name, start, end, parent and iteration id, the
counts its entry point reports, and, for the layers whose memory
matters, the rise of resident memory over the span (peak during the
span minus the resident size at its start).  The peak is read from the
kernel's high-water mark, which the probe resets at every span start.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# -- resident-memory probe ------------------------------------------------------


def _status_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field):
                return int(line.split()[1])
    raise OSError(f"{field} missing from /proc/self/status")


def _reset_peak() -> bool:
    """Reset the high-water mark to the current RSS; False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


class _Memory:
    """Peak resident memory per nested span (0 where /proc is missing)."""

    def __init__(self) -> None:
        try:
            _status_kib("VmRSS:")
        except OSError:
            self.enabled = False
        else:
            self.enabled = _reset_peak()
        self._frames: list[list[int]] = []  # [start_kib, peak_kib]

    def enter(self) -> None:
        if not self.enabled:
            return
        if self._frames:
            parent = self._frames[-1]
            parent[1] = max(parent[1], _status_kib("VmHWM:"))
        _reset_peak()
        rss = _status_kib("VmRSS:")
        self._frames.append([rss, rss])

    def exit(self) -> float:
        """Rise of resident memory over the span just closed, in MiB."""
        if not self.enabled:
            return 0.0
        start, peak = self._frames.pop()
        peak = max(peak, _status_kib("VmHWM:"))
        if self._frames:
            parent = self._frames[-1]
            parent[1] = max(parent[1], peak)
        return (peak - start) / 1024


# -- spans ---------------------------------------------------------------------


class Span:
    """One recorded interval; times are ``perf_counter_ns`` readings."""

    __slots__ = ("name", "start", "end", "parent", "iteration", "counts", "rss_rise_mb")

    def __init__(self, name: str, start: int, parent: int, iteration: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.iteration = iteration
        self.counts: dict[str, float] = {}
        self.rss_rise_mb = 0.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "iteration": self.iteration,
            "counts": self.counts,
            "rss_rise_mb": self.rss_rise_mb,
        }


class Recorder:
    """Keeps spans in memory; records only inside an open root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._iteration = -1
        self.memory = _Memory()

    @contextmanager
    def root(self, name: str, iteration: int) -> Iterator[Span]:
        """Open the root span of one set-up or iteration; roots do not nest."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._iteration = iteration
        span = Span(name, 0, -1, iteration)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def enter(self, name: str, rss: bool) -> int:
        if not self._stack:
            return -1
        index = len(self.spans)
        span = Span(name, 0, self._stack[-1], self._iteration)
        self.spans.append(span)
        self._stack.append(index)
        if rss:
            self.memory.enter()
        span.start = time.perf_counter_ns()
        return index

    def exit(self, index: int, rss: bool, counts: dict[str, float] | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if rss:
            span.rss_rise_mb = self.memory.exit()
        if counts:
            span.counts = counts


# -- layer entry points ----------------------------------------------------------

CountFn = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass(frozen=True)
class Entry:
    """One public entry point of a layer and how its span is attributed.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``subclasses`` also wraps every subclass that overrides the method.
    ``self_metric`` receives the span's self time; ``counts`` turns the
    call's arguments and result into counters on the span (``key`` counts
    go to ``<layer>.key``, dotted keys as given); ``rss_metric``, when
    set, receives the largest resident-memory rise over the entry's spans.
    """

    name: str
    target: str
    self_metric: str
    counts: CountFn | None = None
    rss_metric: str | None = None
    subclasses: bool = False


def _graph_counts(args: tuple, kwargs: dict, graph: Any) -> dict[str, float]:
    return {"calls": 1, "edges": graph.num_edges}


def _traversal_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    trace = result.trace
    return {"calls": 1, "steps": trace.num_steps, "useful_bytes": trace.useful_bytes}


def _physical_counts(args: tuple, kwargs: dict, physical: Any) -> dict[str, float]:
    return {"requests": physical.total_requests, "fetched_bytes": physical.fetched_bytes}


def _des_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"des_requests": len(args[0])}


def _raf_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"raf_points": 1}


def _kernel_counts(args: tuple, kwargs: dict, run: Any) -> dict[str, float]:
    engine = args[1]
    counts = {
        "requests": run.stats.requests,
        "fetched_bytes": run.stats.fetched_bytes,
        "useful_bytes": run.stats.useful_bytes,
    }
    cache = getattr(engine.backend, "cache", None)
    if cache is not None:
        counts["cache_hits"] = cache.stats.hits
        counts["cache_references"] = cache.stats.references
    return counts


def _read_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"read_calls": 1}


def _scenario_counts(args: tuple, kwargs: dict, report: Any) -> dict[str, float]:
    return {
        "arrivals": report.arrived,
        "completed": report.completed,
        "shed": report.shed,
        "controller_actions": sum(report.controller_actions.values()),
        "faults.health_events": len(report.health_events),
    }


#: Entry points per layer, in the order the layers sit in the stack.
ENTRIES: tuple[Entry, ...] = (
    Entry("graph.load_dataset", "repro.graph.datasets:load_dataset",
          "graph.build_s", _graph_counts, rss_metric="graph.rss_rise_mb"),
    Entry("graph.weights", "repro.graph.csr:CSRGraph.with_uniform_random_weights",
          "graph.build_s", rss_metric="graph.rss_rise_mb"),
    Entry("traversal.bfs", "repro.traversal.bfs:bfs",
          "traversal.trace_s", _traversal_counts),
    Entry("traversal.sssp", "repro.traversal.sssp:sssp_bellman_ford",
          "traversal.trace_s", _traversal_counts),
    Entry("gpu.physical_trace", "repro.gpu.base:AccessMethod.physical_trace",
          "gpu.physical_s", _physical_counts, subclasses=True),
    Entry("core.run_evaluation", "repro.core.suite:run_evaluation", "core.price_s"),
    Entry("core.run_experiment", "repro.core.experiment:run_experiment", "core.price_s"),
    Entry("core.predict_runtime", "repro.core.runtime_model:predict_runtime",
          "core.price_s"),
    Entry("core.predict_runtime_des", "repro.core.runtime_model:predict_runtime_des",
          "core.price_s"),
    Entry("core.trace_fingerprint", "repro.core.evalcache:trace_fingerprint",
          "core.fingerprint_s"),
    Entry("core.config_fingerprint", "repro.core.evalcache:config_fingerprint",
          "core.fingerprint_s"),
    Entry("sim.trace_time", "repro.sim.fluid:trace_time", "sim.fluid_s"),
    Entry("sim.simulate_step", "repro.sim.des:simulate_step", "sim.des_s", _des_counts),
    Entry("memsim.raf_curve", "repro.memsim.raf:raf_curve", "memsim.raf_s"),
    Entry("memsim.read_amplification", "repro.memsim.raf:read_amplification",
          "memsim.raf_s", _raf_counts),
    Entry("memsim.direct_access_amplification",
          "repro.memsim.raf:direct_access_amplification", "memsim.raf_s", _raf_counts),
    Entry("engine.build_engine", "repro.workloads:build_engine", "engine.build_s"),
    Entry("engine.init", "repro.engine.engine:ExternalGraphEngine.__init__",
          "engine.build_s"),
    Entry("engine.kernel", "repro.workloads.registry:Workload.run",
          "engine.kernel_self_s", _kernel_counts, rss_metric="engine.rss_rise_mb"),
    Entry("engine.read", "repro.engine.backend:ExternalMemoryBackend.read",
          "engine.read_s", _read_counts),
    Entry("ops.run_serving_scenario", "repro.ops.scenario:run_serving_scenario",
          "ops.scenario_s", _scenario_counts),
    *(
        Entry(f"faults.health.{method}",
              f"repro.faults.health:PoolHealthTracker.{method}", "faults.health_s")
        for method in ("record_success", "record_failure", "evict", "suspend", "readmit")
    ),
)

#: Self time of the root span: wall time no wrapped entry point covers.
ROOT_METRIC = "trace.unattributed_s"


def _wrap(entry: Entry, original: Callable, recorder: Recorder) -> Callable:
    name, rss, counts = entry.name, entry.rss_metric is not None, entry.counts

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.enter(name, rss)
        if index < 0:
            return original(*args, **kwargs)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            recorder.exit(
                index, rss, counts(args, kwargs, result) if counts and result is not None else None
            )

    return wrapper


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Probe:
    """Installs and removes the span wrappers of :data:`ENTRIES`."""

    def __init__(self, recorder: Recorder) -> None:
        self._sites: list[tuple[Any, str, Callable, Callable]] = []
        for entry in ENTRIES:
            module_name, _, qualname = entry.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                owners = [cls]
                if entry.subclasses:
                    owners += [c for c in _subclasses(cls) if method in vars(c)]
                for owner in owners:
                    original = vars(owner)[method]
                    self._sites.append(
                        (owner, method, original, _wrap(entry, original, recorder))
                    )
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(entry, original, recorder)
            # Every module that imported the function holds its own binding.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._sites.append((loaded, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)


# -- attribution -------------------------------------------------------------------

_BY_NAME = {entry.name: entry for entry in ENTRIES}


def attribute(spans: list[Span], root: Span) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer totals and per-entry inclusive seconds under ``root``.

    Self time is a span's duration minus the part its child spans cover.
    Each wrapped entry point's self time goes to its layer's metric and
    the root's self time to :data:`ROOT_METRIC`, so the self-time metrics
    sum to the root's wall time.  Counts are summed; memory rises keep
    their largest value.
    """
    members = [i for i, s in enumerate(spans) if s.iteration == root.iteration]
    child_ns: dict[int, int] = {}
    for i in members:
        parent = spans[i].parent
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + spans[i].end - spans[i].start
    totals: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for i in members:
        span = spans[i]
        self_s = (span.end - span.start - child_ns.get(i, 0)) / 1e9
        if span is root:
            totals[ROOT_METRIC] = totals.get(ROOT_METRIC, 0.0) + self_s
            continue
        entry = _BY_NAME[span.name]
        totals[entry.self_metric] = totals.get(entry.self_metric, 0.0) + self_s
        inclusive[entry.name] = inclusive.get(entry.name, 0.0) + span.seconds
        if entry.rss_metric is not None:
            totals[entry.rss_metric] = max(totals.get(entry.rss_metric, 0.0), span.rss_rise_mb)
        layer = span.name.split(".")[0]
        for key, value in span.counts.items():
            name = key if "." in key else f"{layer}.{key}"
            totals[name] = totals.get(name, 0) + value
    return totals, inclusive
