"""Seeded benchmark scenarios, grouped into families.

Every scenario is deterministic: inputs come from ``load_dataset`` /
``np.random.default_rng`` with fixed seeds, so the ``params`` block and
the ``verify`` block of a :class:`Prepared` scenario are byte-identical
across reruns (a tier-1 test pins this).  Only the measured times vary.

Families
--------
``des``
    Event throughput of the discrete-event simulator: one big mixed-size
    step, one uniform single-device step, and a multi-step trace.
``traversal``
    End-to-end BFS / SSSP / CC on a 2^17-vertex uniform-random graph
    (2^14 in ``--quick`` mode); throughput reported in edges/s, outputs
    pinned by content digest.
``memsim``
    RAF evaluation of a BFS access trace through the step-local, ideal,
    and exact-LRU cache models, plus the direct-access alignment curve.
``sweep``
    Model-evaluation throughput: the full ``run_evaluation`` matrix and
    the Figure 5 + Figure 11 sweeps on a shared trace.  Each timed run
    starts from a cleared evaluation cache so memoization only counts
    within-run wins.
``workloads``
    The workload registry's scenario classes: BFS through the engine in
    both memory modes (the semi-vs-fully fetched-bytes ratio is pinned
    in ``verify``), incremental BFS maintenance over a seeded edge
    stream, and a two-tenant co-run on a shared DES pool.
``sweep_parallel``
    Executor scaling on the planner's config-grid surface: the same
    build through ``SerialExecutor`` and ``ProcessPoolExecutor(4)``
    (their verify digests must match — byte-identical results), plus
    query throughput against the precomputed surface.  On a single-CPU
    host the worker pool cannot beat serial; the committed baseline
    reports whatever the hardware honestly delivers (docs/SCALING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..analysis.config import LintConfig
from ..analysis.driver import lint_paths
from ..core.evalcache import clear_evaluation_cache
from ..core.experiment import default_source, run_algorithm
from ..core.suite import run_evaluation
from ..core.sweep import alignment_grid, cxl_latency_grid, sweep_trace
from ..errors import BenchError
from ..graph.datasets import CSRGraph
from ..exec.executor import ProcessPoolExecutor
from ..exec.tasks import cached_dataset
from ..interconnect.pcie import PCIeLink
from ..planner import build_surface, default_grid, plan_query
from ..memsim.cache import IdealCache, LRUCache
from ..memsim.raf import direct_access_amplification, read_amplification
from ..sim.des import DESConfig, simulate_step, simulate_trace
from ..traversal.bfs import bfs
from ..traversal.cc import connected_components
from ..traversal.sssp import sssp_bellman_ford
from ..traversal.trace import AccessTrace
from ..units import MB, MB_PER_S, MIOPS, USEC
from .schema import KNOWN_FAMILIES, array_digest, canonical_json

__all__ = ["Prepared", "prepare_family", "scenario_catalog"]

#: Round floating-point verify values to this many decimals: coarse enough
#: to absorb sub-ULP reassociation differences between equivalent event
#: orderings, fine enough (1e-12) that any real behaviour change shows.
_VERIFY_DECIMALS = 12


def _round(value: float) -> float:
    """Round a verify float to the canonical precision."""
    return round(float(value), _VERIFY_DECIMALS)


@dataclass
class Prepared:
    """One ready-to-time benchmark: inputs built, parameters recorded.

    ``run`` is the timed callable; it returns the ``verify`` mapping of
    invariants that optimizations must not change.  ``work_amount`` /
    ``work_unit`` let the runner derive a throughput figure from the best
    time (e.g. edges processed per second).
    """

    name: str
    family: str
    params: dict[str, Any]
    run: Callable[[], Mapping[str, Any]] = field(repr=False)
    work_unit: str | None = None
    work_amount: float | None = None


# --------------------------------------------------------------------------
# des family
# --------------------------------------------------------------------------


def _des_pool_config(num_devices: int) -> DESConfig:
    """A paper-flavoured device pool: XLFDD-like drives behind one link."""
    return DESConfig(
        link_bandwidth=24_000 * MB_PER_S,
        latency=1.2 * USEC,
        device_iops=11 * MIOPS,
        device_internal_bandwidth=5_700 * MB_PER_S,
        num_devices=num_devices,
        link_outstanding=256,
        device_outstanding=64,
        gpu_concurrency=2048,
    )


def _des_verify(result) -> dict[str, Any]:
    return {
        "time_us": _round(result.time / USEC),
        "link_busy_us": _round(result.link_busy_time / USEC),
        "requests": int(result.requests),
    }


def _prep_des_step_mixed(quick: bool) -> Prepared:
    n = 4_000 if quick else 20_000
    rng = np.random.default_rng(1)
    sizes = rng.choice(
        np.array([16, 32, 64, 128, 256, 512, 1024, 2048], dtype=np.int64), size=n
    ).astype(np.int64)
    config = _des_pool_config(num_devices=4)
    return Prepared(
        name="des_step_mixed",
        family="des",
        params={"requests": n, "devices": 4, "sizes": "choice(16..2048, seed=1)"},
        run=lambda: _des_verify(simulate_step(sizes, config)),
        work_unit="requests/s",
        work_amount=float(n),
    )


def _prep_des_step_uniform(quick: bool) -> Prepared:
    n = 6_000 if quick else 30_000
    sizes = np.full(n, 64, dtype=np.int64)
    config = DESConfig(
        link_bandwidth=24_000 * MB_PER_S,
        latency=1.2 * USEC,
        device_iops=44 * MIOPS,
        device_internal_bandwidth=22_800 * MB_PER_S,
        num_devices=1,
        link_outstanding=128,
        gpu_concurrency=2048,
    )
    return Prepared(
        name="des_step_uniform",
        family="des",
        params={"requests": n, "devices": 1, "size_bytes": 64},
        run=lambda: _des_verify(simulate_step(sizes, config)),
        work_unit="requests/s",
        work_amount=float(n),
    )


def _prep_des_trace(quick: bool) -> Prepared:
    counts = [10, 50, 250, 1250, 6250, 8000, 6000, 3000, 1500, 600, 200, 50]
    divisor = 5 if quick else 1
    rng = np.random.default_rng(2)
    step_sizes = [
        rng.choice(np.array([32, 64, 128], dtype=np.int64), size=max(1, c // divisor))
        .astype(np.int64)
        for c in counts
    ]
    total = sum(s.size for s in step_sizes)
    config = _des_pool_config(num_devices=4)
    return Prepared(
        name="des_trace",
        family="des",
        params={"steps": len(counts), "requests": total, "devices": 4},
        run=lambda: _des_verify(simulate_trace(step_sizes, config)),
        work_unit="requests/s",
        work_amount=float(total),
    )


# --------------------------------------------------------------------------
# traversal family
# --------------------------------------------------------------------------


def _traversal_graph(quick: bool) -> CSRGraph:
    return cached_dataset("urand", 14 if quick else 17, 1)


def _prep_bfs(quick: bool) -> Prepared:
    graph = _traversal_graph(quick)
    source = default_source(graph)

    def run() -> dict[str, Any]:
        result = bfs(graph, source)
        return {
            "digest": array_digest(
                [
                    result.depths,
                    result.parents,
                    np.asarray(result.frontier_sizes, dtype=np.int64),
                ]
            ),
            "steps": len(result.frontier_sizes),
            "reached": result.num_reached,
        }

    return Prepared(
        name="bfs",
        family="traversal",
        params={"dataset": "urand", "scale": graph_scale(graph), "source": source},
        run=run,
        work_unit="edges/s",
        work_amount=float(graph.num_edges),
    )


def _prep_sssp(quick: bool) -> Prepared:
    graph = _traversal_graph(quick).with_uniform_random_weights(seed=0)
    source = default_source(graph)

    def run() -> dict[str, Any]:
        result = sssp_bellman_ford(graph, source)
        return {
            "digest": array_digest(
                [
                    result.distances,
                    np.asarray(result.frontier_sizes, dtype=np.int64),
                ]
            ),
            "steps": len(result.frontier_sizes),
            "reached": result.num_reached,
        }

    return Prepared(
        name="sssp",
        family="traversal",
        params={"dataset": "urand", "scale": graph_scale(graph), "source": source},
        run=run,
        work_unit="edges/s",
        work_amount=float(graph.num_edges),
    )


def _prep_cc(quick: bool) -> Prepared:
    graph = _traversal_graph(quick)

    def run() -> dict[str, Any]:
        result = connected_components(graph)
        return {
            "digest": array_digest(
                [
                    result.labels,
                    np.asarray(result.frontier_sizes, dtype=np.int64),
                ]
            ),
            "steps": len(result.frontier_sizes),
            "components": result.num_components,
        }

    return Prepared(
        name="cc",
        family="traversal",
        params={"dataset": "urand", "scale": graph_scale(graph)},
        run=run,
        work_unit="edges/s",
        work_amount=float(graph.num_edges),
    )


def graph_scale(graph) -> int:
    """log2 of the vertex count (the datasets are exact powers of two)."""
    return int(np.log2(graph.num_vertices).round())


# --------------------------------------------------------------------------
# memsim family
# --------------------------------------------------------------------------


def _memsim_trace(quick: bool) -> AccessTrace:
    graph = cached_dataset("urand", 13 if quick else 16, 1)
    return run_algorithm(graph, "bfs")


def _raf_verify(result) -> dict[str, Any]:
    return {
        "fetched_bytes": int(result.fetched_bytes),
        "requests": int(result.requests),
        "raf": _round(result.raf),
    }


def _prep_raf_steplocal(quick: bool) -> Prepared:
    trace = _memsim_trace(quick)
    return Prepared(
        name="raf_steplocal_64",
        family="memsim",
        params={"alignment": 64, "cache": "step", "trace": trace.graph_name},
        run=lambda: _raf_verify(read_amplification(trace, 64)),
        work_unit="useful_MB/s",
        work_amount=trace.useful_bytes / MB,
    )


def _prep_raf_ideal(quick: bool) -> Prepared:
    trace = _memsim_trace(quick)
    return Prepared(
        name="raf_ideal_32",
        family="memsim",
        params={"alignment": 32, "cache": "ideal", "trace": trace.graph_name},
        run=lambda: _raf_verify(read_amplification(trace, 32, IdealCache())),
        work_unit="useful_MB/s",
        work_amount=trace.useful_bytes / MB,
    )


def _prep_raf_lru(quick: bool) -> Prepared:
    trace = _memsim_trace(quick)
    capacity_blocks = 65_536
    return Prepared(
        name="raf_lru_128",
        family="memsim",
        params={
            "alignment": 128,
            "cache": "lru",
            "capacity_blocks": capacity_blocks,
            "trace": trace.graph_name,
        },
        run=lambda: _raf_verify(
            read_amplification(trace, 128, LRUCache(capacity_blocks))
        ),
        work_unit="useful_MB/s",
        work_amount=trace.useful_bytes / MB,
    )


def _prep_direct_curve(quick: bool) -> Prepared:
    trace = _memsim_trace(quick)
    alignments = (16, 32, 64, 128, 256, 512, 1024, 2048)

    def run() -> dict[str, Any]:
        fetched = 0
        requests = 0
        for alignment in alignments:
            result = direct_access_amplification(trace, alignment, max_transfer=2048)
            fetched += result.fetched_bytes
            requests += result.requests
        return {"fetched_bytes": int(fetched), "requests": int(requests)}

    return Prepared(
        name="direct_curve",
        family="memsim",
        params={
            "alignments": list(alignments),
            "max_transfer": 2048,
            "trace": trace.graph_name,
        },
        run=run,
        work_unit="useful_MB/s",
        work_amount=len(alignments) * trace.useful_bytes / MB,
    )


# --------------------------------------------------------------------------
# sweep family
# --------------------------------------------------------------------------


def _prep_evaluation_matrix(quick: bool) -> Prepared:
    scale = 10 if quick else 12

    def run() -> dict[str, Any]:
        clear_evaluation_cache()
        report = run_evaluation(scale=scale, seed=0)
        return {
            "xlfdd_geomean": _round(report.xlfdd_geomean),
            "bam_geomean": _round(report.bam_geomean),
            "cxl_flat_worst": _round(report.cxl_flat_worst),
            "rows": len(report.comparison_rows) + len(report.latency_rows),
        }

    return Prepared(
        name="evaluation_matrix",
        family="sweep",
        params={"scale": scale, "seed": 0},
        run=run,
        work_unit="points/s",
        work_amount=36.0,
    )


def _prep_trajectory_sweeps(quick: bool) -> Prepared:
    graph = cached_dataset("urand", 12 if quick else 14, 0)
    trace = run_algorithm(graph, "bfs")

    def run() -> dict[str, Any]:
        clear_evaluation_cache()
        align = sweep_trace(trace, alignment_grid())
        latency = sweep_trace(
            trace, cxl_latency_grid(), PCIeLink.from_name("gen3")
        )
        return {
            "xlfdd_first": _round(align[0].normalized_runtime),
            "xlfdd_last": _round(align[-2].normalized_runtime),
            "bam": _round(align[-1].normalized_runtime),
            "cxl_last": _round(latency[-1].normalized_runtime),
        }

    return Prepared(
        name="trajectory_sweeps",
        family="sweep",
        params={"dataset": "urand", "scale": graph_scale(graph), "seed": 0},
        run=run,
        work_unit="points/s",
        work_amount=14.0,
    )


# --------------------------------------------------------------------------
# sweep_parallel family
# --------------------------------------------------------------------------


def _surface_digest(surface: Mapping[str, Any]) -> str:
    """Content fingerprint of a planner surface (canonical JSON bytes)."""
    import hashlib

    return hashlib.sha256(canonical_json(surface).encode()).hexdigest()[:16]


def _surface_verify(surface: Mapping[str, Any]) -> dict[str, Any]:
    # The serial and workers4 scenarios share this digest: equal values
    # in the two baselines pin the byte-identical-results guarantee.
    return {
        "configs": len(surface["configs"]),
        "digest": _surface_digest(surface),
    }


def _prep_surface_serial(quick: bool) -> Prepared:
    grid = default_grid(quick=quick)

    def run() -> dict[str, Any]:
        clear_evaluation_cache()
        return _surface_verify(build_surface(grid=grid))

    return Prepared(
        name="surface_serial",
        family="sweep_parallel",
        params={
            "grid": "quick" if quick else "full",
            "configs": len(grid),
            "executor": "serial",
        },
        run=run,
        work_unit="configs/s",
        work_amount=float(len(grid)),
    )


def _prep_surface_workers4(quick: bool) -> Prepared:
    grid = default_grid(quick=quick)

    def run() -> dict[str, Any]:
        clear_evaluation_cache()
        # Pool startup is inside the timed region on purpose: it is part
        # of the real cost of choosing the process executor.
        with ProcessPoolExecutor(4) as executor:
            return _surface_verify(build_surface(grid=grid, executor=executor))

    return Prepared(
        name="surface_workers4",
        family="sweep_parallel",
        params={
            "grid": "quick" if quick else "full",
            "configs": len(grid),
            "executor": "process",
            "workers": 4,
        },
        run=run,
        work_unit="configs/s",
        work_amount=float(len(grid)),
    )


def _prep_plan_queries(quick: bool) -> Prepared:
    surface = build_surface(grid=default_grid(quick=quick))
    queries = 200 if quick else 500
    ref_bytes = int(surface["workload"]["edge_list_bytes"])
    sizes = [ref_bytes * (i + 1) for i in range(queries)]

    def run() -> dict[str, Any]:
        total = 0
        sample: list[Any] = []
        for size in sizes:
            rows = plan_query(surface, edge_bytes=size, top=5)
            total += len(rows)
            if size in (sizes[0], sizes[-1]):
                sample.append(rows)
        import hashlib
        import json

        digest = hashlib.sha256(
            json.dumps(sample, sort_keys=True).encode()
        ).hexdigest()[:16]
        return {"queries": queries, "results_total": total, "digest": digest}

    return Prepared(
        name="plan_queries",
        family="sweep_parallel",
        params={
            "grid": "quick" if quick else "full",
            "configs": len(surface["configs"]),
            "queries": queries,
        },
        run=run,
        work_unit="queries/s",
        work_amount=float(queries),
    )


# --------------------------------------------------------------------------
# workloads family
# --------------------------------------------------------------------------


def _prep_semi_vs_fully(quick: bool) -> Prepared:
    """BFS through the engine in both memory modes on one graph.

    The verify block pins the fetched-bytes ratio between fully- and
    semi-external placement — the headline saving of keeping vertex
    state in device memory.
    """
    from .. import systems, workloads

    graph = cached_dataset("urand", 10 if quick else 12, 3)
    workload = workloads.get("bfs")
    system = systems.get("emogi")
    source = default_source(graph)

    def run() -> dict[str, Any]:
        semi = workload.run(
            workloads.build_engine(graph, system, memory_mode="semi-external"),
            source,
        )
        fully = workload.run(
            workloads.build_engine(graph, system, memory_mode="fully-external"),
            source,
        )
        return {
            "digest": array_digest([semi.values, fully.values]),
            "semi_fetched_bytes": int(semi.stats.fetched_bytes),
            "fully_fetched_bytes": int(fully.stats.fetched_bytes),
            "fetch_ratio": _round(
                fully.stats.fetched_bytes / semi.stats.fetched_bytes
            ),
        }

    return Prepared(
        name="semi_vs_fully_bfs",
        family="workloads",
        params={"dataset": "urand", "scale": graph_scale(graph), "source": source},
        run=run,
        work_unit="edges/s",
        work_amount=2.0 * float(graph.num_edges),
    )


def _prep_streaming_bfs(quick: bool) -> Prepared:
    """Incremental BFS maintenance over a seeded edge-insertion stream."""
    from ..workloads import edge_stream, streaming_bfs, streaming_write_traffic

    graph = cached_dataset("urand", 10 if quick else 12, 3)
    stream = edge_stream(
        graph.num_vertices,
        num_batches=4,
        batch_size=64 if quick else 256,
        seed=7,
    )
    inserted = sum(batch.size for batch in stream)

    def run() -> dict[str, Any]:
        result = streaming_bfs(graph, stream)
        traffic = streaming_write_traffic(result)
        return {
            "digest": array_digest([result.values]),
            "delta_vertices": int(result.delta_vertices),
            "written_bytes": int(traffic.written_bytes),
        }

    return Prepared(
        name="streaming_bfs",
        family="workloads",
        params={
            "dataset": "urand",
            "scale": graph_scale(graph),
            "batches": len(stream),
            "edges_inserted": inserted,
        },
        run=run,
        work_unit="edges/s",
        work_amount=float(inserted),
    )


def _prep_multi_tenant(quick: bool) -> Prepared:
    """Two tenants co-running on one shared DES pool."""
    from ..workloads import TenantSpec, run_multi_tenant

    graph = cached_dataset("urand", 9 if quick else 11, 3)
    tenants = [
        TenantSpec(name="analytics", workload="pagerank", weight=1.0),
        TenantSpec(name="search", workload="bfs", weight=2.0),
    ]

    def run() -> dict[str, Any]:
        report = run_multi_tenant(graph, tenants)
        return {
            "fairness": _round(report.fairness),
            "total_time_us": _round(report.total_time / USEC),
            "requests": int(sum(t.requests for t in report.tenants)),
        }

    return Prepared(
        name="multi_tenant_2",
        family="workloads",
        params={
            "dataset": "urand",
            "scale": graph_scale(graph),
            "tenants": [f"{t.name}:{t.workload}:{t.weight:g}" for t in tenants],
        },
        run=run,
        work_unit="tenants/s",
        work_amount=float(len(tenants)),
    )


# --------------------------------------------------------------------------
# lint family
# --------------------------------------------------------------------------

#: Functions emitted per synthetic fixture module (see the template).
_LINT_FUNCS_PER_MODULE = 4


def _lint_fixture_module(index: int) -> str:
    """One synthetic module of the lint-benchmark fixture tree.

    Modules chain imports (``modN`` calls ``modN-1``) so the engine has
    real interprocedural work, and every fourth module plants an
    unseeded generator so the finding count is known and non-zero.
    """
    lines = ["import time", "from numpy.random import default_rng"]
    if index > 0:
        lines.append(f"from pkg.mod{index - 1} import stamp")
        stamp_body = "    return stamp() + time.perf_counter()"
    else:
        stamp_body = "    return time.perf_counter()"
    seed_expr = "" if index % 4 == 0 else f"{index}"
    lines += [
        "",
        "def stamp() -> float:",
        stamp_body,
        "",
        "def elapsed(t0):",
        "    return stamp() - t0",
        "",
        "def make_stream():",
        f"    return default_rng({seed_expr})",
        "",
        "def use(items, rng):",
        "    return rng.permutation(items)",
        "",
    ]
    return "\n".join(lines)


def _lint_fixture_tree(modules: int) -> "Path":
    """Write the synthetic project under a tempdir; returns its src root."""
    import tempfile
    from pathlib import Path

    root = Path(tempfile.mkdtemp(prefix="repro-bench-lint-")) / "src"
    pkg = root / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for index in range(modules):
        (pkg / f"mod{index}.py").write_text(
            _lint_fixture_module(index), encoding="utf-8"
        )
    return root


def _lint_verify(result) -> dict[str, Any]:
    stats = result.dataflow_stats
    return {
        "findings": len(result.unsuppressed),
        "functions_analyzed": stats.functions_analyzed,
        "modules": stats.modules,
    }


def _prep_lint_cold(quick: bool) -> Prepared:
    modules = 24 if quick else 64
    root = _lint_fixture_tree(modules)
    config = LintConfig(dataflow_cache_dir=str(root.parent / ".simlint-cache"))
    return Prepared(
        name="lint_dataflow_cold",
        family="lint",
        params={"modules": modules, "cache": "off"},
        run=lambda: _lint_verify(
            lint_paths([root], config=config, dataflow=True, use_cache=False)
        ),
        work_unit="functions/s",
        work_amount=float(modules * _LINT_FUNCS_PER_MODULE),
    )


def _prep_lint_warm(quick: bool) -> Prepared:
    modules = 24 if quick else 64
    root = _lint_fixture_tree(modules)
    config = LintConfig(dataflow_cache_dir=str(root.parent / ".simlint-cache"))
    # Prime the fingerprint cache (untimed); timed runs are pure replays
    # and must analyse zero functions.
    lint_paths([root], config=config, dataflow=True)
    return Prepared(
        name="lint_dataflow_warm",
        family="lint",
        params={"modules": modules, "cache": "warm"},
        run=lambda: _lint_verify(
            lint_paths([root], config=config, dataflow=True)
        ),
        work_unit="functions/s",
        work_amount=float(modules * _LINT_FUNCS_PER_MODULE),
    )


_FAMILIES: dict[str, list[Callable[[bool], Prepared]]] = {
    "des": [_prep_des_step_mixed, _prep_des_step_uniform, _prep_des_trace],
    "traversal": [_prep_bfs, _prep_sssp, _prep_cc],
    "memsim": [
        _prep_raf_steplocal,
        _prep_raf_ideal,
        _prep_raf_lru,
        _prep_direct_curve,
    ],
    "sweep": [_prep_evaluation_matrix, _prep_trajectory_sweeps],
    "sweep_parallel": [
        _prep_surface_serial,
        _prep_surface_workers4,
        _prep_plan_queries,
    ],
    "lint": [_prep_lint_cold, _prep_lint_warm],
    "workloads": [
        _prep_semi_vs_fully,
        _prep_streaming_bfs,
        _prep_multi_tenant,
    ],
}

assert set(_FAMILIES) == set(KNOWN_FAMILIES)


def prepare_family(family: str, *, quick: bool = False) -> list[Prepared]:
    """Build every scenario of ``family`` (inputs materialised, untimed)."""
    if family not in _FAMILIES:
        raise BenchError(
            f"unknown bench family {family!r} (known: {sorted(_FAMILIES)})"
        )
    return [build(quick) for build in _FAMILIES[family]]


def scenario_catalog() -> list[dict[str, str]]:
    """Name/family rows of every registered scenario (for ``--list``).

    Cheap: builds quick-mode scenarios only to read their metadata.
    """
    rows = []
    for family in KNOWN_FAMILIES:
        for prepared in prepare_family(family, quick=True):
            rows.append(
                {
                    "family": family,
                    "benchmark": prepared.name,
                    "unit": prepared.work_unit or "-",
                }
            )
    return rows
