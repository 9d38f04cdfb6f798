"""Simulation resources: semaphores and servers."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.resources import FifoServer, RateServer, Semaphore


class TestSemaphore:
    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        sem = Semaphore(sim, 2)
        granted = []
        sem.acquire(lambda: granted.append(1))
        sem.acquire(lambda: granted.append(2))
        assert granted == [1, 2]
        assert sem.in_use == 2

    def test_waiters_block_until_release(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        granted = []
        sem.acquire(lambda: granted.append("first"))
        sem.acquire(lambda: granted.append("second"))
        assert granted == ["first"]
        assert sem.queued == 1
        sem.release()
        sim.run()
        assert granted == ["first", "second"]

    def test_fifo_waiter_order(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        granted = []
        sem.acquire(lambda: granted.append(0))
        for i in (1, 2, 3):
            sem.acquire(lambda i=i: granted.append(i))
        for _ in range(3):
            sem.release()
            sim.run()
        assert granted == [0, 1, 2, 3]

    def test_unbounded_capacity(self):
        sim = Simulator()
        sem = Semaphore(sim, None)
        for _ in range(1000):
            sem.acquire(lambda: None)
        assert sem.queued == 0

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="release"):
            Semaphore(sim, 1).release()

    def test_max_in_use_high_watermark(self):
        sim = Simulator()
        sem = Semaphore(sim, 5)
        for _ in range(3):
            sem.acquire(lambda: None)
        sem.release()
        assert sem.max_in_use == 3

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Semaphore(Simulator(), 0)


class TestFifoServer:
    def test_serializes_jobs(self):
        sim = Simulator()
        server = FifoServer(sim)
        done = []
        server.submit(2.0, lambda: done.append(sim.now))
        server.submit(3.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [2.0, 5.0]

    def test_idle_gap_not_counted(self):
        sim = Simulator()
        server = FifoServer(sim)
        server.submit(1.0, lambda: None)
        sim.run()
        # Submit later: starts at now, not at free_at.
        sim.now = 10.0
        server.submit(1.0, lambda: None)
        assert server.free_at == 11.0
        assert server.busy_time == 2.0

    def test_negative_service_time_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            FifoServer(Simulator()).submit(-1.0, lambda: None)

    def test_nan_service_time_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            FifoServer(Simulator()).submit(float("nan"), lambda: None)

    def test_job_counter(self):
        sim = Simulator()
        server = FifoServer(sim)
        for _ in range(4):
            server.submit(0.5, lambda: None)
        assert server.jobs == 4


class TestRateServer:
    def test_rate_spacing(self):
        sim = Simulator()
        server = RateServer(sim, rate=10.0)
        done = []
        for _ in range(3):
            server.submit_op(lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([0.1, 0.2, 0.3])

    def test_rate_validation(self):
        with pytest.raises(SimulationError, match="rate"):
            RateServer(Simulator(), rate=0.0)
        with pytest.raises(SimulationError, match="rate"):
            RateServer(Simulator(), rate=float("nan"))
