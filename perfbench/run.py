"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload evaluate --seed 0 --seconds 20 --trace 0

The workload runs in this one process with the serial executor.  After
the set-up, iterations run back to back (closed loop) until the next one
would overrun ``--seconds``; every iteration starts cold
(``clear_evaluation_cache()``) and every output is verified.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``
from untraced iterations.  ``--trace 1`` alternates untraced and traced
iterations and reports the ``per_layer`` metrics: the breakdown of the
median traced set-up plus the median traced iteration (see spans.py),
and the tracing overhead.  The last line is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

Host speed on a shared machine drifts by 20% over tens of seconds and
by up to 2x between quiet and busy periods, so the bounded timing
metrics are *calibrated*.  Fixed probes run just before and just after
every iteration: an event-queue simulation (interpreter-bound) and a
NumPy sort.  Each iteration's host seconds are scaled by the reference
over the host time of the probes that match the workload's kind of work
(``Case.calibration``).  The raw host seconds are printed on the lines
before the result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PINS = HERE / "digests.json"
TRACE_DIR = HERE / "out"

#: Set-up runs and fresh-interpreter imports per benchmark run;
#: ``setup_s`` reports the sum of their medians, calibrated.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: Fewest timed iterations per kind (untraced / traced) in one run.
MIN_ITERATIONS = 3
#: Seconds each calibration probe takes on the reference host (2 vCPU
#: x86-64 VM, CPython 3.11): medians of 200 back-to-back calls, rounded.
CAL_REF_S = {"interpreter": 0.04, "numpy": 0.013}
#: Probes that calibrate the set-up: interpreter imports and NumPy builds.
SETUP_CALIBRATION = ("interpreter", "numpy")
#: Small enough that the calibration adds ~4 MiB to the peak RSS.
_CAL_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 250_000)


def _event_queue_probe() -> None:
    """An M/M/4 queue run as a heap of events: the interpreter-bound kind
    of work of the DES and the serving scenario, in benchmark code."""
    rng = random.Random(7)
    events: list[tuple[float, int, str]] = [(0.0, 0, "arrive")]
    waiting: deque[int] = deque()
    started: dict[int, float] = {}
    for _ in range(60_000):
        now, rid, kind = heapq.heappop(events)
        if kind == "arrive":
            heapq.heappush(events, (now + rng.expovariate(1.0), rid + 1, "arrive"))
            waiting.append(rid)
        else:
            del started[rid]
        while waiting and len(started) < 4:
            nxt = waiting.popleft()
            started[nxt] = now
            heapq.heappush(events, (now + rng.expovariate(0.3), nxt, "done"))


def calibrate() -> dict[str, float]:
    """Host seconds of each fixed calibration probe."""
    start = time.perf_counter()
    _event_queue_probe()
    middle = time.perf_counter()
    for _ in range(6):
        np.sort(_CAL_KEYS)
    return {"interpreter": middle - start, "numpy": time.perf_counter() - middle}


def speed_factor(
    probes: tuple[str, ...], before: dict[str, float], after: dict[str, float]
) -> float:
    """Reference over host seconds of ``probes``, averaged over two readings."""
    host = sum(before[p] + after[p] for p in probes) / 2
    return sum(CAL_REF_S[p] for p in probes) / host


def _median_index(values: list[float]) -> int:
    """Index of the lower median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, check=True, timeout=120
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Iteration:
    """One timed call and what verifying it found."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0
        #: Host-speed factor from the probes around the iteration.
        self.speed = 1.0
        self.probes: dict[str, float] = {}
        self.root: Any = None
        self.checked: Any = None
        self.cache: dict[str, int] = {}
        self.problems: list[str] = []

    @property
    def signature(self) -> tuple:
        """What must repeat exactly across the iterations of one run."""
        return self.checked.digest, self.cache["misses"]


def run(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (compiles and loads the whole package once)
    from repro.core.evalcache import clear_evaluation_cache, evaluation_cache_stats

    from cases import CASES
    from spans import Probe, Recorder, attribute

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    case = CASES[args.workload](args.seed)
    recorder = Recorder() if args.trace else None
    probe = Probe(recorder) if recorder is not None else None
    root_ids = iter(range(1 << 30))

    def timed(fn: Any, traced: bool, name: str) -> tuple[Any, float, Any]:
        """``fn()`` from a cold cache; returns (result, seconds, root span)."""
        clear_evaluation_cache()
        gc.collect()
        if not traced:
            start = time.perf_counter_ns()
            result = fn()
            return result, (time.perf_counter_ns() - start) / 1e9, None
        assert probe is not None and recorder is not None
        probe.install()
        try:
            with recorder.root(name, next(root_ids)) as root:
                result = fn()
        finally:
            probe.uninstall()
        return result, root.seconds, root

    # -- set-up -----------------------------------------------------------------
    cal_setup = calibrate()
    import_s = _import_seconds()
    setups: list[tuple[float, Any]] = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        state, seconds, root = timed(case.setup, bool(args.trace), "setup")
        setups.append((seconds, root))
    setup_speed = speed_factor(SETUP_CALIBRATION, cal_setup, calibrate())
    case.reference(state)

    # -- closed loop --------------------------------------------------------------
    iterations: list[Iteration] = []
    kinds = (False, True) if args.trace else (False,)
    cal_before = calibrate()
    started = time.perf_counter()
    while True:
        it = Iteration(kinds[len(iterations) % len(kinds)])
        iterations.append(it)
        try:
            outputs, it.wall, it.root = timed(
                lambda: case.iterate(state), it.traced, "iteration"
            )
        except Exception:
            traceback.print_exc()
            it.problems.append("iteration raised")
        else:
            it.cache = evaluation_cache_stats()
            try:
                it.checked = case.check(state, outputs)
                it.problems += it.checked.problems
            except Exception:
                traceback.print_exc()
                it.problems.append("verification raised")
            del outputs
        cal_after = calibrate()
        it.probes = cal_after
        it.speed = speed_factor(case.calibration, cal_before, cal_after)
        cal_before = cal_after
        elapsed = time.perf_counter() - started
        # Stop before the next iteration would overrun the run, or when a
        # slow machine takes far longer than asked for.
        enough = len(iterations) >= MIN_ITERATIONS * len(kinds)
        if enough and elapsed + it.wall > args.seconds:
            break
        if elapsed > 4 * args.seconds and len(iterations) >= len(kinds):
            break

    # -- verification across the run --------------------------------------------
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(args.workload, {}).get(
        str(args.seed)
    )
    good = [it for it in iterations if it.checked is not None]
    if not good:
        raise RuntimeError("no iteration completed")
    signatures = [it.signature for it in good]
    majority = max(set(signatures), key=signatures.count)
    for it in good:
        if it.signature != majority:
            it.problems.append(f"iteration gave {it.signature}, the run {majority}")
        if pinned is not None and it.checked.digest != pinned:
            it.problems.append(f"digest {it.checked.digest} != pinned {pinned}")
    failed = sum(1 for it in iterations if it.problems)

    untraced = [it for it in good if not it.traced]
    notes = _summary(args, case, untraced, failed, len(iterations), majority, pinned)
    notes.append(
        f"setup host seconds: import {import_s:.4f} + set-up "
        f"{statistics.median(s for s, _ in setups):.4f} (speed factor {setup_speed:.3f})"
    )
    notes += [f"problem: {p}" for it in iterations for p in it.problems]

    if not args.trace:
        values = {
            "cal_wall_s": statistics.median(it.wall * it.speed for it in untraced),
            "setup_s": setup_speed
            * (import_s + statistics.median(s for s, _ in setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cal_work_per_s": statistics.median(
                it.checked.work / (it.wall * it.speed) for it in untraced
            ),
        }
        wanted = spec["end_to_end"]
    else:
        assert recorder is not None
        traced = [it for it in good if it.traced]
        chosen = traced[_median_index([it.wall for it in traced])]
        setup_root = setups[_median_index([s for s, _ in setups])][1]
        values: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        for root in (setup_root, chosen.root):
            totals, seconds_by_entry = attribute(recorder.spans, root)
            for name, value in totals.items():
                if name.endswith("rss_rise_mb"):
                    values[name] = max(values.get(name, 0), value)
                else:
                    values[name] = values.get(name, 0) + value
            for name, value in seconds_by_entry.items():
                inclusive[name] = inclusive.get(name, 0) + value
        values.update(_derived(values, inclusive, chosen, setup_root, untraced, traced))
        # A layer the workload never calls has no spans: it reports 0.
        values = {m["name"]: values.get(m["name"], 0) for m in spec["per_layer"]}
        _write_spans(args, recorder)
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def _summary(
    args: argparse.Namespace,
    case: Any,
    untraced: list[Iteration],
    failed: int,
    attempted: int,
    majority: tuple,
    pinned: str | None,
) -> list[str]:
    """Human-readable lines: the raw host figures and the fidelity figures."""
    walls = [it.wall for it in untraced]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    rate = statistics.median(it.checked.work / it.wall for it in untraced)
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"digest {majority[0]} (pinned: {pinned or 'none for this seed'}), "
        f"evaluation-cache misses per iteration {majority[1]}",
        f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} untraced "
        f"iterations; q1 {q1:.4f}, q3 {q3:.4f}; host speed factor "
        f"{statistics.median(it.speed for it in untraced):.3f} from "
        f"{'+'.join(case.calibration)})",
        "calibration probe seconds: "
        + ", ".join(
            f"{p} {statistics.median(it.probes[p] for it in untraced):.5f}"
            for p in CAL_REF_S
        ),
        f"{case.rate_name} {rate:.6g} 1/s ({case.work_unit} per host second)",
        f"error_rate {failed / attempted:.4g} ({failed} of {attempted} iterations failed)",
    ]
    lines += [
        f"{name} {value:.6g}" for name, value in sorted(untraced[0].checked.fidelity.items())
    ]
    return lines


def _derived(
    values: dict[str, float],
    inclusive: dict[str, float],
    chosen: Iteration,
    setup_root: Any,
    untraced: list[Iteration],
    traced: list[Iteration],
) -> dict[str, float]:
    """Ratios and per-iteration figures built from the attributed totals."""

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    hits, misses = chosen.cache["hits"], chosen.cache["misses"]
    derived = {
        "trace.wall_s": setup_root.seconds + chosen.root.seconds,
        "trace.overhead_s": statistics.median(it.wall for it in traced)
        - statistics.median(it.wall for it in untraced),
        "engine.kernel_s": inclusive.get("engine.kernel", 0.0),
        "engine.raf": ratio(
            values.get("engine.fetched_bytes", 0), values.get("engine.useful_bytes", 0)
        ),
        "engine.cache_hit_ratio": ratio(
            values.get("engine.cache_hits", 0), values.get("engine.cache_references", 0)
        ),
        "sim.des_ns_per_request": ratio(
            values.get("sim.des_s", 0.0), values.get("sim.des_requests", 0), 1e9
        ),
        "ops.host_us_per_query": ratio(
            inclusive.get("ops.run_serving_scenario", 0.0),
            values.get("ops.arrivals", 0),
            1e6,
        ),
        "core.evalcache.hits": hits,
        "core.evalcache.misses": misses,
        "core.evalcache.hit_ratio": ratio(hits, hits + misses),
    }
    derived.update(chosen.checked.fidelity)
    return derived


def _write_spans(args: argparse.Namespace, recorder: Any) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as out:
        for span in recorder.spans:
            out.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    from cases import CASES

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (SRC / "repro" / "__init__.py", SPEC) if not p.is_file()]
    if missing:
        print(
            "error: run from a checkout of the repository; missing "
            + ", ".join(str(p.relative_to(ROOT)) for p in missing),
            file=sys.stderr,
        )
        return 2
    result, notes = run(args)
    for note in notes:
        print(note)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
