"""Answer "which configs meet this SLO?" from a loaded surface.

A query never re-runs the analytical model: it scales each stored
reference runtime linearly by the query's edge-list size (runtime is
traffic-proportional in the model's bandwidth- and IOPS-bound regimes,
and latency-bound runtime scales with the access count, which is itself
proportional to edge bytes for a fixed workload shape), filters configs
whose pool capacity cannot host the data or whose estimated runtime
misses the SLO, prices the external memory for the queried size, and
Pareto-ranks the survivors on (estimated runtime, memory cost).

``pareto_rank`` is non-dominated-sort depth: rank 1 is the frontier
(no config is both faster and cheaper), rank 2 is the frontier after
removing rank 1, and so on.  Within a rank, rows sort by estimated
runtime, then cost, then name — fully deterministic, so query answers
are golden-testable.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from ..errors import PlannerError
from ..telemetry.tracer import get_tracer
from .surface import validate_surface

__all__ = ["plan_query"]


def _positive_finite(value: Any, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise PlannerError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(out) or out <= 0:
        raise PlannerError(f"{name} must be positive and finite, got {value!r}")
    return out


def _dominates(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    """True when ``a`` is no worse on both axes and better on one."""
    return (
        a["est_runtime_s"] <= b["est_runtime_s"]
        and a["cost_usd"] <= b["cost_usd"]
        and (
            a["est_runtime_s"] < b["est_runtime_s"]
            or a["cost_usd"] < b["cost_usd"]
        )
    )


def _pareto_ranks(rows: list[dict[str, Any]]) -> None:
    """Assign ``pareto_rank`` in place by repeated frontier peeling."""
    remaining = list(range(len(rows)))
    rank = 1
    while remaining:
        frontier = [
            i
            for i in remaining
            if not any(
                _dominates(rows[j], rows[i]) for j in remaining if j != i
            )
        ]
        if not frontier:  # pragma: no cover - ties always leave a frontier
            frontier = list(remaining)
        for i in frontier:
            rows[i]["pareto_rank"] = rank
        remaining = [i for i in remaining if i not in set(frontier)]
        rank += 1


def plan_query(
    surface: Mapping[str, Any],
    *,
    edge_bytes: float,
    slo_runtime_s: float | None = None,
    link: str | None = None,
    top: int | None = 10,
    workload: str | None = None,
) -> list[dict[str, Any]]:
    """Configs meeting capacity + SLO for a graph of ``edge_bytes``.

    Returns Pareto-ranked rows (best first); ``top`` caps the list
    (``None`` returns all survivors).  ``link`` restricts to one PCIe
    generation; the SLO is an absolute runtime bound in seconds.

    ``workload`` optionally names a :mod:`repro.workloads` registry
    entry: the stored reference runtimes (a BFS-shaped workload) are
    additionally scaled by the named workload's access-signature
    traffic multiplier.  ``None`` (the default) keeps the reference
    scaling exactly, byte-for-byte.
    """
    surface = validate_surface(surface)
    edge_bytes = _positive_finite(edge_bytes, "edge_bytes")
    if slo_runtime_s is not None:
        slo_runtime_s = _positive_finite(slo_runtime_s, "slo_runtime_s")
    if top is not None and (isinstance(top, bool) or not isinstance(top, int)):
        raise PlannerError(f"top must be an integer, got {top!r}")
    if top is not None and top < 1:
        raise PlannerError(f"top must be >= 1, got {top}")
    ref_bytes = float(surface["workload"]["edge_list_bytes"])
    scale = edge_bytes / ref_bytes
    if workload is not None:
        from .. import workloads as workloads_registry

        signature = workloads_registry.get(workload).signature
        scale *= signature.traffic_multiplier
    from ..core.cost import MEDIA_COSTS

    rows: list[dict[str, Any]] = []
    with get_tracer().span(
        "planner.query",
        configs=len(surface["configs"]),
        edge_bytes=int(edge_bytes),
    ):
        for entry in surface["configs"]:
            if link is not None and entry["link"] != link:
                continue
            capacity = entry["capacity_bytes"]
            if capacity is not None and capacity < edge_bytes:
                continue
            est_runtime = float(entry["runtime_s"]) * scale
            if slo_runtime_s is not None and est_runtime > slo_runtime_s:
                continue
            media = MEDIA_COSTS.get(entry["media"])
            if media is None:
                raise PlannerError(
                    f"surface config {entry['system']!r} names unknown "
                    f"media {entry['media']!r}"
                )
            rows.append(
                {
                    "system": entry["system"],
                    "link": entry["link"],
                    "est_runtime_s": est_runtime,
                    "cost_usd": media.cost(
                        int(edge_bytes), devices=int(entry["devices"])
                    ),
                    "bound": entry.get("bound", ""),
                    "devices": int(entry["devices"]),
                    "media": entry["media"],
                }
            )
        _pareto_ranks(rows)
        rows.sort(
            key=lambda r: (
                r["pareto_rank"],
                r["est_runtime_s"],
                r["cost_usd"],
                r["system"],
                r["link"],
            )
        )
    if top is not None:
        rows = rows[:top]
    return rows
