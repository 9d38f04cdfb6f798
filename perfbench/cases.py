"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is built from the seed alone (dataset, traffic and storm
seeds) and has three phases:

* ``setup()`` -- what a user pays before the first result: building
  graphs, traces or engines.  Timed and repeated for ``setup_s``.
* ``reference(state)`` -- untimed: independent results the outputs are
  checked against, and the amount of work one iteration does.
* ``iterate(state)`` -- one closed-loop call, timed for ``wall_s``.

``check(state, outputs)`` returns the outputs' digest, the problems the
cross-checks found, and the simulated fidelity figures of the iteration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Paper headline geomeans of Figure 6 (normalized to host DRAM).
PAPER_XLFDD_GEOMEAN = 1.13
PAPER_BAM_GEOMEAN = 2.76
#: Figure 3 alignments (bytes).
FIG3_ALIGNMENTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Largest |DES/fluid - 1| the model cross-check accepts (the tier-1
#: validation tests use the same 10% envelope on whole traces).
DES_FLUID_ENVELOPE = 0.10


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, np.ndarray):
        return hashlib.sha256(
            str(value.dtype).encode() + np.ascontiguousarray(value).tobytes()
        ).hexdigest()
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(value: Any) -> str:
    """SHA-256 of a canonical JSON rendering of nested outputs."""
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Checked:
    """What :meth:`Case.check` found for one iteration."""

    digest: str
    #: Units of work the iteration did (see :attr:`Case.work_unit`).
    work: int
    problems: list[str] = field(default_factory=list)
    fidelity: dict[str, float] = field(default_factory=dict)


class Case:
    """Base of a workload: ``seed`` in, work per iteration out."""

    name = ""
    #: What one unit of work is on this workload, and the name its
    #: rate per host second goes by.
    work_unit = ""
    rate_name = ""
    #: Calibration probes whose host speed this workload's time follows.
    calibration: tuple[str, ...] = ("interpreter", "numpy")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Any:
        raise NotImplementedError

    def reference(self, state: Any) -> None:
        """Fill ``state`` with what :meth:`check` compares against."""

    def iterate(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, outputs: Any) -> Checked:
        raise NotImplementedError


def _edge_records(trace: Any, graph: Any) -> int:
    """Edge records a trace scans: useful edge bytes / record size."""
    record_bytes = trace.edge_list_bytes // graph.num_edges
    return trace.useful_bytes // record_bytes


class Evaluate(Case):
    """``run_evaluation``: Figure 6 + Figure 11 matrix, serial executor."""

    name = "evaluate"
    work_unit = "edge records scanned"
    rate_name = "edges_per_s"
    scale = 13
    datasets = ("urand", "kron", "friendster")
    algorithms = ("bfs", "sssp")

    def setup(self) -> Any:
        from repro.exec.executor import SerialExecutor

        return {"executor": SerialExecutor()}

    def reference(self, state: Any) -> None:
        from repro.core.experiment import run_algorithm
        from repro.graph.datasets import load_dataset

        work = 0
        for dataset in self.datasets:
            graph = load_dataset(dataset, scale=self.scale, seed=self.seed)
            for algorithm in self.algorithms:
                work += _edge_records(run_algorithm(graph, algorithm), graph)
        state["work"] = work

    def iterate(self, state: Any) -> Any:
        from repro.core.suite import run_evaluation

        return run_evaluation(
            scale=self.scale,
            seed=self.seed,
            datasets=self.datasets,
            algorithms=self.algorithms,
            executor=state["executor"],
        )

    def check(self, state: Any, report: Any) -> Checked:
        out = Checked(
            digest(
                {
                    "comparison": report.comparison_rows,
                    "latency": report.latency_rows,
                    "xlfdd": report.xlfdd_geomean,
                    "bam": report.bam_geomean,
                    "cxl_flat_worst": report.cxl_flat_worst,
                }
            ),
            state["work"],
        )
        out.problems += [
            f"headline check {name} failed"
            for name, ok in report.headline_checks().items()
            if not ok
        ]
        expected_rows = len(self.datasets) * len(self.algorithms) * 2
        if len(report.comparison_rows) != expected_rows:
            out.problems.append(f"{len(report.comparison_rows)} comparison rows")
        out.fidelity["core.paper_err"] = max(
            abs(report.xlfdd_geomean / PAPER_XLFDD_GEOMEAN - 1),
            abs(report.bam_geomean / PAPER_BAM_GEOMEAN - 1),
        )
        return out


class Engine(Case):
    """Functional engine, fully-external: {bfs, sssp} x {xlfdd, bam}."""

    name = "engine"
    work_unit = "edge records scanned"
    rate_name = "edges_per_s"
    scale = 14
    dataset = "urand"
    algorithms = ("bfs", "sssp")
    systems = ("xlfdd", "bam")

    def setup(self) -> Any:
        from repro import systems, workloads
        from repro.core.experiment import default_source
        from repro.graph.datasets import load_dataset

        graph = load_dataset(self.dataset, scale=self.scale, seed=self.seed)
        source = default_source(graph)
        runs = []
        for algorithm in self.algorithms:
            workload = workloads.get(algorithm)
            prepared = workload.prepare(graph)
            for system in self.systems:
                engine = workloads.build_engine(
                    prepared, systems.get(system), memory_mode="fully-external"
                )
                runs.append((algorithm, system, workload, engine))
        return {"graph": graph, "source": source, "runs": runs}

    def reference(self, state: Any) -> None:
        from repro import workloads
        from repro.traversal import bfs, sssp_bellman_ford

        graph, source = state["graph"], state["source"]
        weighted = workloads.get("sssp").prepare(graph)
        depths = bfs(graph, source)
        distances = sssp_bellman_ford(weighted, source)
        state["expected"] = {"bfs": depths.depths, "sssp": distances.distances}
        per_pass = _edge_records(depths.trace, graph) + _edge_records(
            distances.trace, weighted
        )
        state["work"] = per_pass * len(self.systems)

    def iterate(self, state: Any) -> Any:
        outputs = []
        for algorithm, system, workload, engine in state["runs"]:
            engine.backend.reset_stats()
            outputs.append((algorithm, system, workload.run(engine, state["source"])))
        return outputs

    def check(self, state: Any, outputs: Any) -> Checked:
        rows = []
        problems = []
        for algorithm, system, run in outputs:
            stats = run.stats
            rows.append(
                {
                    "run": f"{algorithm}/{system}",
                    "values": run.values,
                    "steps": run.steps,
                    "requests": stats.requests,
                    "fetched_bytes": stats.fetched_bytes,
                    "useful_bytes": stats.useful_bytes,
                }
            )
            if not np.array_equal(run.values, state["expected"][algorithm]):
                problems.append(f"{algorithm}/{system} values differ from repro.traversal")
            if stats.fetched_bytes < stats.useful_bytes:
                problems.append(f"{algorithm}/{system} fetched fewer bytes than it used")
        return Checked(digest(rows), state["work"], problems)


class ModelCheck(Case):
    """The pricing paths: fluid model, DES and memsim RAF on BFS traces."""

    name = "model-check"
    work_unit = "DES requests simulated"
    rate_name = "des_requests_per_s"
    calibration = ("interpreter",)
    scale = 13
    datasets = ("urand", "kron")
    systems = ("xlfdd", "emogi", "cxl", "bam")

    def setup(self) -> Any:
        from repro import systems
        from repro.core.experiment import run_algorithm
        from repro.graph.datasets import load_dataset

        traces = {
            dataset: run_algorithm(
                load_dataset(dataset, scale=self.scale, seed=self.seed), "bfs"
            )
            for dataset in self.datasets
        }
        return {"traces": traces, "systems": {s: systems.get(s) for s in self.systems}}

    def iterate(self, state: Any) -> Any:
        from repro.core.runtime_model import predict_runtime, predict_runtime_des
        from repro.memsim.raf import raf_curve

        out = []
        for dataset, trace in state["traces"].items():
            for name, system in state["systems"].items():
                fluid = predict_runtime(trace, system)
                des = predict_runtime_des(trace, system)
                out.append((dataset, name, fluid, des))
            out.append((dataset, "raf", raf_curve(trace, FIG3_ALIGNMENTS), None))
        return out

    def check(self, state: Any, outputs: Any) -> Checked:
        rows = []
        problems = []
        errors = []
        des_requests = 0
        for dataset, name, result, des in outputs:
            if name == "raf":
                curve = [(p.alignment, p.fetched_bytes, p.requests) for p in result]
                rows.append({"dataset": dataset, "raf": curve})
                fetched = [p.fetched_bytes for p in result]
                if any(b < a for a, b in zip(fetched, fetched[1:])):
                    problems.append(f"{dataset} RAF falls as alignment grows")
                if any(p.fetched_bytes < p.useful_bytes for p in result):
                    problems.append(f"{dataset} RAF below 1")
                continue
            des_requests += sum(s.requests for s in result.physical.steps)
            error = abs(des / result.runtime - 1)
            errors.append(error)
            if not error <= DES_FLUID_ENVELOPE:
                problems.append(f"{dataset}/{name} DES off fluid by {error:.1%}")
            rows.append(
                {"dataset": dataset, "system": name, "fluid": result.runtime, "des": des}
            )
        out = Checked(digest(rows), des_requests, problems)
        out.fidelity["sim.des_fluid_err"] = max(errors)
        return out


class Serve(Case):
    """``run_serving_scenario`` under the storm, controller on then off."""

    name = "serve"
    work_unit = "simulated queries"
    rate_name = "queries_per_s"
    calibration = ("interpreter",)
    duration = 3.0
    base_rate = 800.0
    tenants = {"analytics": 0.7, "search": 0.3}

    def setup(self) -> Any:
        from repro.ops import ServingConfig, TrafficModel, named_storm

        return {
            "config": ServingConfig(duration=self.duration),
            "traffic": TrafficModel(
                seed=self.seed, base_rate=self.base_rate, tenants=dict(self.tenants)
            ),
            "storm": named_storm("storm", seed=self.seed),
        }

    def iterate(self, state: Any) -> Any:
        from repro.ops import run_serving_scenario

        return [
            run_serving_scenario(
                "xlfdd",
                config=state["config"],
                traffic=state["traffic"],
                storm=state["storm"],
                controller=controller,
            )
            for controller in (True, False)
        ]

    def check(self, state: Any, outputs: Any) -> Checked:
        on, off = outputs
        problems = []
        for label, report in (("on", on), ("off", off)):
            if report.completed + report.shed > report.arrived:
                problems.append(f"controller-{label} served more than arrived")
            if not 0.0 <= report.attainment <= 1.0:
                problems.append(f"controller-{label} attainment out of range")
        if on.attainment < off.attainment:
            problems.append("controller-on attainment below controller-off")
        out = Checked(digest([on.to_json(), off.to_json()]), on.arrived + off.arrived, problems)
        out.fidelity["ops.slo_attainment"] = on.attainment
        out.fidelity["ops.sim_p99_us"] = on.latency_p99_us
        return out


CASES: dict[str, type[Case]] = {
    case.name: case for case in (Evaluate, Engine, ModelCheck, Serve)
}
