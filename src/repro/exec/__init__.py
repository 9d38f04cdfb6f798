"""Declarative experiment specs and the executors that run them.

``repro.exec`` separates *what* an experiment is from *how* it runs:

* :class:`ExperimentSpec` (and its sections :class:`GraphSpec`,
  :class:`SystemSpec`, :class:`FaultSpec`, :class:`TrafficSpec`) is the
  one declarative input type shared by sweeps, the evaluation suite,
  bench scenarios, and the capacity planner — plain data that
  round-trips through canonical JSON and pickle.
* :func:`load_spec` reads specs from YAML with ``extend:`` chaining and
  dotted-key overrides.
* :class:`SerialExecutor` / :class:`ProcessPoolExecutor` run pure
  sweep tasks with bit-identical results regardless of executor.
  Repeated work is memoized below the executor, per process, by
  :class:`repro.core.evalcache.Memo` instances.

Submodules defer their :mod:`repro.core` imports to call time, so this
package imports before (and is imported by) ``repro.core.sweep``.
"""

from __future__ import annotations

from .executor import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    default_chunk_size,
    make_executor,
)
from .spec import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    SweepAxis,
    SweepConfig,
    SystemSpec,
    TrafficSpec,
    WorkloadSpec,
)
from .yamlspec import LoadedSpec, deep_merge, load_spec, parse_spec_document

__all__ = [
    "ExperimentSpec",
    "GraphSpec",
    "SystemSpec",
    "FaultSpec",
    "TrafficSpec",
    "WorkloadSpec",
    "SweepAxis",
    "SweepConfig",
    "LoadedSpec",
    "load_spec",
    "parse_spec_document",
    "deep_merge",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "default_chunk_size",
    "make_executor",
]
