"""Discrete-event kernel: ordering, scheduling, guards."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        log = []
        q.push(2.0, lambda: log.append("b"))
        q.push(1.0, lambda: log.append("a"))
        for _ in range(2):
            _, cb, args = q.pop()
            cb(*args)
        assert log == ["a", "b"]

    def test_fifo_tie_breaking(self):
        q = EventQueue()
        log = []
        for name in "abc":
            q.push(1.0, lambda n=name: log.append(n))
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert log == ["a", "b", "c"]

    def test_args_travel_with_the_event(self):
        q = EventQueue()
        log = []
        q.push(1.0, log.append, ("x",))
        _, cb, args = q.pop()
        cb(*args)
        assert log == ["x"]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, lambda: None)
        assert len(q) == 1
        assert q


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        end = sim.run()
        assert times == [1.0, 3.0]
        assert end == 3.0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(2.0, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 3.0]

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_nan_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_at(float("nan"), lambda: None)
        assert not sim.events

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=100)

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_empty_run_returns_zero(self):
        assert Simulator().run() == 0.0

    def test_schedule_passes_args(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda a, b: log.append((sim.now, a, b)), 7, "x")
        sim.schedule_at(2.0, log.append, "tail")
        sim.run()
        assert log == [(1.0, 7, "x"), "tail"]
