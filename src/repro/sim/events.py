"""Minimal discrete-event kernel: a time-ordered event queue.

Deliberately tiny: a heap of ``(time, sequence, callback, args)`` with
FIFO tie-breaking, wrapped in a :class:`Simulator` that advances virtual
time.  Everything stateful (queues, servers, tag pools) lives in
:mod:`repro.sim.resources` on top of this kernel.

Hot-path notes: callbacks carry their arguments *in the event tuple*
(``schedule(delay, cb, *args)``) so callers can share one function per
simulation instead of allocating a closure per request.  The sequence
number is a plain integer bump (not :class:`itertools.count`) and
:meth:`Simulator.run` drains the heap with locally-bound ``heappop``.
The kernel drives open-loop serving (:mod:`repro.ops`) and the faulty
DES; the fault-free :func:`repro.sim.des.simulate_step` runs its own
flat loop with the same ``(time, seq)`` order, so it pays no callback
or method call per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["EventQueue", "Simulator"]


class EventQueue:
    """Heap-ordered event queue with deterministic FIFO tie-breaking.

    Entries are ``(time, seq, callback, args)``; ``seq`` is unique and
    increasing, so comparison never reaches the callback and same-time
    events run in insertion order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))

    def pop(self) -> tuple[float, Callable[..., None], tuple]:
        """Remove and return the earliest ``(time, callback, args)``."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time, _, callback, args = heapq.heappop(self._heap)
        return time, callback, args

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulator:
    """Virtual clock driving an :class:`EventQueue` to exhaustion."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events = EventQueue()
        self._processed = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from the current time."""
        if not delay >= 0:  # NaN-safe
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.events.push(self.now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time`` (>= now)."""
        if not time >= self.now:  # NaN-safe
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        self.events.push(time, callback, args)

    def run(self, max_events: int | None = None) -> float:
        """Process events until the queue drains; returns the final time.

        ``max_events`` guards against runaway simulations (exceeding it
        raises :class:`SimulationError` rather than looping forever).
        """
        heap = self.events._heap
        pop = heapq.heappop
        processed = self._processed
        try:
            while heap:
                time, _, callback, args = pop(heap)
                if time < self.now:
                    raise SimulationError("event time moved backwards")
                self.now = time
                callback(*args)
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway sim?"
                    )
        finally:
            self._processed = processed
        return self.now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed
