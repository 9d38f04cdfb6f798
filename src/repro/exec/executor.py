"""Sweep executors: serial and process-pool with chunked batching.

An executor runs a pure task function over a list of payloads and
returns the results in payload order.  Two implementations share the
contract:

* :class:`SerialExecutor` — in-process, zero transport cost; the
  default everywhere and the reference for bit-identical results.
* :class:`ProcessPoolExecutor` — fans chunks of payloads out to worker
  processes.  Chunked batching matters twice over: it amortises pickle
  transport (the task function and any bound arguments ship once per
  chunk, not once per point) and it lets each worker's memos (the
  :class:`~repro.core.evalcache.Memo` instances) fire across the
  points of a chunk.

Determinism is the contract, not an accident: tasks must be pure
functions of their payload, so ``map`` output is independent of the
executor, the worker count, and the chunking.  A tier-1 property test
pins serial and 4-worker results byte-identical.
"""

from __future__ import annotations

import os
import pickle
from concurrent import futures
from typing import Any, Callable, Sequence

from ..errors import ExecError
from ..telemetry.tracer import get_tracer

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "default_chunk_size",
    "make_executor",
]


class Executor:
    """Base class: telemetry and result-count checking around :meth:`_run`."""

    #: Short name recorded in telemetry spans and bench params.
    name = "base"

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Run ``fn`` over ``payloads``; results in payload order."""
        payloads = list(payloads)
        with get_tracer().span("exec.map", executor=self.name, tasks=len(payloads)):
            results = self._run(fn, payloads) if payloads else []
            if len(results) != len(payloads):
                raise ExecError(
                    f"{self.name} executor returned {len(results)} "
                    f"results for {len(payloads)} tasks"
                )
        return results

    def _run(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (workers); idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task in the calling process, in order."""

    name = "serial"

    def _run(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        return [fn(payload) for payload in payloads]


def default_chunk_size(num_tasks: int, workers: int) -> int:
    """Chunk so each worker sees ~4 chunks (load balance vs transport).

    Fewer, larger chunks amortise pickling and let worker-local caches
    fire across chunk points; more, smaller chunks smooth out uneven
    task costs.  Four chunks per worker is the standard compromise.
    """
    if num_tasks <= 0:
        return 1
    return max(1, -(-num_tasks // (workers * 4)))


def _run_chunk(fn: Callable[[Any], Any], chunk: list[Any]) -> list[Any]:
    """Worker-side driver: apply ``fn`` to one chunk of payloads."""
    return [fn(payload) for payload in chunk]


class ProcessPoolExecutor(Executor):
    """Chunked fan-out over a pool of worker processes.

    The task function (plus any ``functools.partial`` bound arguments)
    must pickle — module-level functions do, closures do not; the
    executor raises a typed :class:`~repro.errors.ExecError` naming the
    offender instead of a bare ``PicklingError`` from pool internals.

    Workers are started lazily on first ``map`` and reused until
    :meth:`close` (or context-manager exit).  ``workers`` defaults to
    the machine's CPU count capped at 8 — sweeps are compute-bound, so
    oversubscription buys nothing.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        *,
        chunk_size: int | None = None,
    ) -> None:
        if workers is None:
            workers = min(8, os.cpu_count() or 1)
        if workers < 1:
            raise ExecError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ExecError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _run(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise ExecError(
                f"task function {fn!r} is not picklable for process-pool "
                f"dispatch ({exc}); use a module-level function (or a "
                "functools.partial over one), or run a SerialExecutor"
            ) from exc
        size = self.chunk_size or default_chunk_size(len(payloads), self.workers)
        chunks = [payloads[i : i + size] for i in range(0, len(payloads), size)]
        pool = self._ensure_pool()
        tracer = get_tracer()
        try:
            pending = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
            results: list[Any] = []
            for i, future in enumerate(pending):
                with tracer.span(
                    "exec.chunk", index=i, tasks=len(chunks[i])
                ):
                    results.extend(future.result())
        except ExecError:
            raise
        except Exception as exc:
            raise ExecError(
                f"process-pool sweep task failed: {exc!r}"
            ) from exc
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(
    kind: str,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> Executor:
    """Build an executor from a CLI-style name (``serial``/``process``)."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessPoolExecutor(workers, chunk_size=chunk_size)
    raise ExecError(
        f"unknown executor {kind!r}; available: process, serial"
    )
