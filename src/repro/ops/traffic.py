"""Open-arrival traffic: seeded Poisson base rate, diurnal swing, bursts.

The serving scenario is *open-loop*: queries arrive whether or not the
system keeps up, which is what makes overload visible — a closed loop
(issue the next query when the last returns) would politely slow down
and hide every SLO violation.  The arrival process is a
non-homogeneous Poisson process whose rate is

``rate(t) = base_rate * (1 + diurnal_amplitude * sin(2*pi*t / day_length))
          * burst_multiplier(t)``

sampled by thinning against the peak rate, from an explicitly seeded
``numpy`` generator — the same seed always produces the same arrival
times and query kinds, independent of anything the rest of the
simulation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = ["BurstEpisode", "Query", "TrafficModel"]

#: Algorithm mix weights used when none are given: mostly point lookups
#: (BFS reachability), some heavier analytics.
DEFAULT_MIX: dict[str, float] = {"bfs": 0.6, "cc": 0.25, "sssp": 0.15}


def _valid_weights(weights: dict[str, float]) -> bool:
    """Finite, non-negative weights with a positive sum."""
    values = weights.values()
    return all(math.isfinite(w) and w >= 0 for w in values) and sum(values) > 0


@dataclass(frozen=True)
class BurstEpisode:
    """A flash crowd: arrivals run ``multiplier``-times hotter for a while."""

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or self.start < 0:
            raise ConfigError(f"burst start must be >= 0, got {self.start}")
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigError(f"burst duration must be > 0, got {self.duration}")
        if not math.isfinite(self.multiplier) or self.multiplier < 1:
            raise ConfigError(
                f"burst multiplier must be >= 1, got {self.multiplier}"
            )

    def active(self, t: float) -> bool:
        """Whether the episode covers simulated time ``t``."""
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class Query:
    """One traversal query submitted by the traffic generator."""

    id: int
    arrival: float
    kind: str
    tenant: str = "default"


@dataclass(frozen=True)
class TrafficModel:
    """Seeded open-arrival process over the serving scenario's DES clock.

    Parameters
    ----------
    seed:
        Root of the arrival-time and query-kind draws.
    base_rate:
        Mean arrival rate in queries per simulated second, before
        modulation.
    diurnal_amplitude:
        Fractional swing of the day/night cycle (0 = flat).
    day_length:
        Period of the diurnal cycle in simulated seconds.  Real days are
        compressed onto the DES clock the same way device microseconds
        are — the *shape* of the load matters, not the wall duration.
    bursts:
        Flash-crowd episodes multiplying the instantaneous rate.
    mix:
        Query-kind weights (normalized internally).
    tenants:
        Optional tenant → weight mapping.  When non-empty, every query
        is additionally tagged with a tenant drawn from these weights
        (normalized internally), so the serving scenario can account
        attainment and fairness per tenant.  The tenant draws happen
        *after* the kind draws on the same generator, so an empty
        mapping (the default) leaves the arrival stream byte-identical
        to pre-tenant versions.
    """

    seed: int = 0
    base_rate: float = 800.0
    diurnal_amplitude: float = 0.25
    day_length: float = 4.0
    bursts: tuple[BurstEpisode, ...] = ()
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    tenants: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"traffic seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.base_rate) or self.base_rate <= 0:
            raise ConfigError("base_rate must be positive and finite")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if not math.isfinite(self.day_length) or self.day_length <= 0:
            raise ConfigError("day_length must be positive and finite")
        if not self.mix:
            raise ConfigError("query mix must not be empty")
        if not _valid_weights(self.mix):
            raise ConfigError("query mix weights must be finite, >= 0 and sum > 0")
        if self.tenants:
            if any(not name for name in self.tenants):
                raise ConfigError("tenant names must be non-empty")
            if not _valid_weights(self.tenants):
                raise ConfigError("tenant weights must be finite, >= 0 and sum > 0")

    # -- rate model ----------------------------------------------------------

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        rate = self.base_rate * (
            1.0
            + self.diurnal_amplitude * math.sin(2.0 * math.pi * t / self.day_length)
        )
        for burst in self.bursts:
            if burst.active(t):
                rate *= burst.multiplier
        return rate

    @property
    def peak_rate(self) -> float:
        """Upper bound on :meth:`rate_at` (the thinning envelope)."""
        burst_peak = max((b.multiplier for b in self.bursts), default=1.0)
        return self.base_rate * (1.0 + self.diurnal_amplitude) * burst_peak

    # -- arrival generation --------------------------------------------------

    def arrivals(self, duration: float) -> list[Query]:
        """All queries arriving in ``[0, duration)``, in arrival order.

        Generated up front (not lazily inside DES callbacks) so the
        arrival stream depends only on ``(seed, duration, model)`` —
        never on event interleaving elsewhere in the simulation.
        """
        if not math.isfinite(duration) or duration <= 0:
            raise ConfigError(f"duration must be positive, got {duration}")
        rng = np.random.default_rng(self.seed)
        peak = self.peak_rate
        # Homogeneous candidates at the peak rate; thin to rate(t)/peak.
        expected = peak * duration
        times: list[float] = []
        t = 0.0
        # Draw gaps in chunks to keep the generator call count low while
        # staying order-deterministic.
        chunk = max(64, int(expected * 1.2))
        while t < duration:
            gaps = rng.exponential(1.0 / peak, size=chunk)
            accepts = rng.random(size=chunk)
            for gap, u in zip(gaps, accepts):
                t += float(gap)
                if t >= duration:
                    break
                if u < self.rate_at(t) / peak:
                    times.append(t)
        kinds = sorted(self.mix)
        weights = np.array([self.mix[k] for k in kinds], dtype=np.float64)
        weights /= weights.sum()
        choices = rng.choice(len(kinds), size=len(times), p=weights)
        if self.tenants:
            # Tenant draws come after the kind draws so that the default
            # (no tenants) consumes exactly the pre-tenant RNG stream.
            names = sorted(self.tenants)
            tw = np.array([self.tenants[n] for n in names], dtype=np.float64)
            tw /= tw.sum()
            tenant_choices = rng.choice(len(names), size=len(times), p=tw)
            tenants = [names[int(c)] for c in tenant_choices]
        else:
            tenants = ["default"] * len(times)
        return [
            Query(
                id=i,
                arrival=times[i],
                kind=kinds[int(choices[i])],
                tenant=tenants[i],
            )
            for i in range(len(times))
        ]
