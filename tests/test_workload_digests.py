"""Byte-level pins of every registered workload on both execution paths.

For each workload x backend x memory mode this pins a digest of the
engine run (values, steps, requests, fetched and useful bytes), and for
each workload a digest of the in-memory ``Workload.trace`` step geometry
(per-step vertices, starts and lengths).  Any refactor of the algorithm
bodies, the engine or the backends must leave all of them unchanged.

The test also checks that the two paths agree: in semi-external mode the
engine runs as many steps as the trace has, and it reads the same useful
bytes -- twice as many for sssp, whose engine records interleave an 8 B
weight with each 8 B target ID.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import workloads
from repro.engine.backend import CachedBackend, DirectBackend, ZeroCopyBackend
from repro.engine.engine import FULLY_EXTERNAL, SEMI_EXTERNAL, ExternalGraphEngine
from repro.graph.generators import uniform_random_graph

BACKENDS = {
    "direct": lambda data: DirectBackend(data, alignment_bytes=16),
    "cached": lambda data: CachedBackend(data, cacheline_bytes=512),
    "zerocopy": ZeroCopyBackend,
}

#: (graph, workload, backend, memory mode) -> digest of the engine run.
ENGINE_DIGESTS = {
    ("dense", "bfs", "direct", "semi-external"): "44f139c7cf9507d4",
    ("dense", "bfs", "direct", "fully-external"): "2b822d9601e8f21f",
    ("dense", "bfs", "cached", "semi-external"): "27fd76cd8c315325",
    ("dense", "bfs", "cached", "fully-external"): "23dce0b7d4e25bba",
    ("dense", "bfs", "zerocopy", "semi-external"): "876c3c7b09754f46",
    ("dense", "bfs", "zerocopy", "fully-external"): "4f69d4f07639d99d",
    ("dense", "cc", "direct", "semi-external"): "dc6bbc92a3bc733b",
    ("dense", "cc", "direct", "fully-external"): "9d648692410bb88d",
    ("dense", "cc", "cached", "semi-external"): "5c0ba0ed548a4be1",
    ("dense", "cc", "cached", "fully-external"): "37dd8b62ebe07cd1",
    ("dense", "cc", "zerocopy", "semi-external"): "e3eca6bf2514c4b2",
    ("dense", "cc", "zerocopy", "fully-external"): "1923561e616a433a",
    ("dense", "kcore", "direct", "semi-external"): "9598d673a056f1d0",
    ("dense", "kcore", "direct", "fully-external"): "9598d673a056f1d0",
    ("dense", "kcore", "cached", "semi-external"): "9598d673a056f1d0",
    ("dense", "kcore", "cached", "fully-external"): "9598d673a056f1d0",
    ("dense", "kcore", "zerocopy", "semi-external"): "9598d673a056f1d0",
    ("dense", "kcore", "zerocopy", "fully-external"): "9598d673a056f1d0",
    ("dense", "label_propagation", "direct", "semi-external"): "3e471760b30b7ae8",
    ("dense", "label_propagation", "direct", "fully-external"): "43a2b13e17ef2054",
    ("dense", "label_propagation", "cached", "semi-external"): "f9a714f1f8bcccd3",
    ("dense", "label_propagation", "cached", "fully-external"): "65272b04c9ed1a5f",
    ("dense", "label_propagation", "zerocopy", "semi-external"): "d37416a688c9aa1d",
    ("dense", "label_propagation", "zerocopy", "fully-external"): "df80ce7a5dff176e",
    ("dense", "pagerank", "direct", "semi-external"): "1cc81d1b88ada23f",
    ("dense", "pagerank", "direct", "fully-external"): "a3fcc520906024fa",
    ("dense", "pagerank", "cached", "semi-external"): "af312971a87c3ba8",
    ("dense", "pagerank", "cached", "fully-external"): "b8349e2a2952094e",
    ("dense", "pagerank", "zerocopy", "semi-external"): "4240ca925f69967b",
    ("dense", "pagerank", "zerocopy", "fully-external"): "4a7cbda9ff3b6ea1",
    ("dense", "random_walk", "direct", "semi-external"): "07afe0d6578d36b1",
    ("dense", "random_walk", "direct", "fully-external"): "487c62783cc91726",
    ("dense", "random_walk", "cached", "semi-external"): "05fc2c79f1440637",
    ("dense", "random_walk", "cached", "fully-external"): "22e3c726ad6e8715",
    ("dense", "random_walk", "zerocopy", "semi-external"): "a3709588dcfaa86b",
    ("dense", "random_walk", "zerocopy", "fully-external"): "835d7eaac17e08c8",
    ("dense", "sssp", "direct", "semi-external"): "02defb8ce8de4f5c",
    ("dense", "sssp", "direct", "fully-external"): "3e009ee1230824fc",
    ("dense", "sssp", "cached", "semi-external"): "9537cbf8ba61b2ea",
    ("dense", "sssp", "cached", "fully-external"): "cf94a75510dc992a",
    ("dense", "sssp", "zerocopy", "semi-external"): "8ad12190ad144fdc",
    ("dense", "sssp", "zerocopy", "fully-external"): "7e4b5106bb85ea35",
    ("dense", "triangle_count", "direct", "semi-external"): "09ee2133f5baf934",
    ("dense", "triangle_count", "direct", "fully-external"): "87cdbdd78bf06604",
    ("dense", "triangle_count", "cached", "semi-external"): "57bdb06d3a183147",
    ("dense", "triangle_count", "cached", "fully-external"): "a2946c2f5b6beb7b",
    ("dense", "triangle_count", "zerocopy", "semi-external"): "184b45a6dcbf766b",
    ("dense", "triangle_count", "zerocopy", "fully-external"): "2c99105775b31b76",
    ("sparse", "bfs", "direct", "semi-external"): "864ce7f8f28283f0",
    ("sparse", "bfs", "direct", "fully-external"): "7b56627199dffb3e",
    ("sparse", "bfs", "cached", "semi-external"): "a30a31a208c4f735",
    ("sparse", "bfs", "cached", "fully-external"): "abcda4467fac225d",
    ("sparse", "bfs", "zerocopy", "semi-external"): "0f64a5acdfeacc7c",
    ("sparse", "bfs", "zerocopy", "fully-external"): "415db2d1832c2452",
    ("sparse", "cc", "direct", "semi-external"): "4ae5f82371fe7eb2",
    ("sparse", "cc", "direct", "fully-external"): "8ce985c34880919a",
    ("sparse", "cc", "cached", "semi-external"): "883e63020285b8f0",
    ("sparse", "cc", "cached", "fully-external"): "7a7d3592536f46ae",
    ("sparse", "cc", "zerocopy", "semi-external"): "90db125c2eca2640",
    ("sparse", "cc", "zerocopy", "fully-external"): "5a84de4cffbbeec6",
    ("sparse", "kcore", "direct", "semi-external"): "3cd33e2e75fe348a",
    ("sparse", "kcore", "direct", "fully-external"): "78eb869de1e50032",
    ("sparse", "kcore", "cached", "semi-external"): "245d5771f1e157fe",
    ("sparse", "kcore", "cached", "fully-external"): "45544d669f6ed7c2",
    ("sparse", "kcore", "zerocopy", "semi-external"): "661126466ecce546",
    ("sparse", "kcore", "zerocopy", "fully-external"): "ad8111630793f415",
    ("sparse", "label_propagation", "direct", "semi-external"): "19ef21b1f4742c85",
    ("sparse", "label_propagation", "direct", "fully-external"): "76c0cb65f6dea0c3",
    ("sparse", "label_propagation", "cached", "semi-external"): "463ee6cebd856b1b",
    ("sparse", "label_propagation", "cached", "fully-external"): "55f75c0b3d231cb4",
    ("sparse", "label_propagation", "zerocopy", "semi-external"): "898a92d3aaec0b52",
    ("sparse", "label_propagation", "zerocopy", "fully-external"): "9bae01f7e4fd0b14",
    ("sparse", "pagerank", "direct", "semi-external"): "5db60db0acf58025",
    ("sparse", "pagerank", "direct", "fully-external"): "b56985c155645560",
    ("sparse", "pagerank", "cached", "semi-external"): "c1a36b7a0bdff2de",
    ("sparse", "pagerank", "cached", "fully-external"): "d2d05f3144b05e13",
    ("sparse", "pagerank", "zerocopy", "semi-external"): "b3337c6a0beef475",
    ("sparse", "pagerank", "zerocopy", "fully-external"): "14a1e9c5f4a994d0",
    ("sparse", "random_walk", "direct", "semi-external"): "b6bc44af147500e8",
    ("sparse", "random_walk", "direct", "fully-external"): "120161fa3139d81c",
    ("sparse", "random_walk", "cached", "semi-external"): "913e1bd091cbac5c",
    ("sparse", "random_walk", "cached", "fully-external"): "643e944dd7d7af15",
    ("sparse", "random_walk", "zerocopy", "semi-external"): "31a5ff7f933b09be",
    ("sparse", "random_walk", "zerocopy", "fully-external"): "738b9553ca2eb015",
    ("sparse", "sssp", "direct", "semi-external"): "1a3fca518f1b48d6",
    ("sparse", "sssp", "direct", "fully-external"): "912ba4aaab6b81a8",
    ("sparse", "sssp", "cached", "semi-external"): "15467a7a4e1af61f",
    ("sparse", "sssp", "cached", "fully-external"): "6989333e1eb3d9c1",
    ("sparse", "sssp", "zerocopy", "semi-external"): "7595781e165a3726",
    ("sparse", "sssp", "zerocopy", "fully-external"): "e9f256361933b03f",
    ("sparse", "triangle_count", "direct", "semi-external"): "baddf9fbee512483",
    ("sparse", "triangle_count", "direct", "fully-external"): "95e66652593fd86f",
    ("sparse", "triangle_count", "cached", "semi-external"): "b0cd12a20595e90d",
    ("sparse", "triangle_count", "cached", "fully-external"): "5de8fc0df6df30d5",
    ("sparse", "triangle_count", "zerocopy", "semi-external"): "a512e45bf6dba0c4",
    ("sparse", "triangle_count", "zerocopy", "fully-external"): "96b4fd04b04c58ba",
}

#: (graph, workload) -> digest of the in-memory trace's step geometry.
TRACE_DIGESTS = {
    ("dense", "bfs"): "dd9d57584f4423ba",
    ("dense", "cc"): "0d980052261746dd",
    ("dense", "kcore"): "e70de1d7ae7d093c",
    ("dense", "label_propagation"): "aaf53a8c38ab6292",
    ("dense", "pagerank"): "549f267c0907ed03",
    ("dense", "random_walk"): "80b55fff32abae0a",
    ("dense", "sssp"): "65dd8c0c0336607c",
    ("dense", "triangle_count"): "ea5f78d0902fc187",
    ("sparse", "bfs"): "62d45d485dea7653",
    ("sparse", "cc"): "1c66b246b451af4a",
    ("sparse", "kcore"): "9c75ac9d6cf7f734",
    ("sparse", "label_propagation"): "c98888af4febcc6e",
    ("sparse", "pagerank"): "c8949a02f92920d7",
    ("sparse", "random_walk"): "4b2c4db2165bf301",
    ("sparse", "sssp"): "756f839f380fbb90",
    ("sparse", "triangle_count"): "f61ba62e00300cea",
}


#: A sparse graph (k-core peels in several rounds) and a denser one
#: (nothing to peel: the empty-step path).
GRAPHS = {"sparse": 3.0, "dense": 8.0}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return request.param, uniform_random_graph(8, GRAPHS[request.param], seed=11)


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def engine_run(graph, name: str, backend: str, mode: str):
    workload = workloads.get(name)
    engine = ExternalGraphEngine(
        workload.prepare(graph), BACKENDS[backend], memory_mode=mode
    )
    return workload.run(engine)


def engine_digest(run) -> str:
    stats = run.stats
    return _digest(
        run.values, run.steps, stats.requests, stats.fetched_bytes, stats.useful_bytes
    )


def trace_digest(trace) -> str:
    parts: list[object] = [trace.num_steps]
    for step in trace.steps:
        parts += [step.vertices, step.starts, step.lengths]
    return _digest(*parts)


CASES = [
    (name, backend, mode)
    for name in workloads.available()
    for backend in BACKENDS
    for mode in (SEMI_EXTERNAL, FULLY_EXTERNAL)
]


@pytest.mark.parametrize("name,backend,mode", CASES)
def test_engine_run_is_pinned(graph, name, backend, mode):
    label, graph = graph
    run = engine_run(graph, name, backend, mode)
    assert engine_digest(run) == ENGINE_DIGESTS[(label, name, backend, mode)]
    trace = workloads.get(name).trace(graph)
    if mode == SEMI_EXTERNAL:
        assert run.steps == trace.num_steps
        factor = 2 if name == "sssp" else 1
        assert run.stats.useful_bytes == factor * trace.useful_bytes


@pytest.mark.parametrize("name", workloads.available())
def test_trace_geometry_is_pinned(graph, name):
    label, graph = graph
    trace = workloads.get(name).trace(graph)
    assert trace_digest(trace) == TRACE_DIGESTS[(label, name)]
