"""Unit tests for the CPU core model."""

from __future__ import annotations

import pytest

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.ring import Ring
from repro.cpu.cores import Core


class FixedWorkTask:
    """Consumes a fixed number of cycles for a limited number of polls."""

    def __init__(self, cycles, times):
        self.cycles = cycles
        self.remaining = times
        self.polls = 0

    def poll(self, core):
        self.polls += 1
        if self.remaining <= 0:
            return 0.0
        self.remaining -= 1
        return self.cycles


def test_busy_time_accumulates(sim):
    core = Core(sim, "c0", freq_hz=1e9)  # 1 cycle == 1 ns
    task = FixedWorkTask(cycles=100, times=3)
    core.attach(task)
    core.start()
    sim.run_until(10_000)
    assert core.busy_ns == pytest.approx(300.0)


def test_poll_mode_core_keeps_polling_when_idle(sim):
    core = Core(sim, "c0", freq_hz=1e9, idle_loop_cycles=50)
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(1_000)
    # ~1000ns / 50ns per idle loop
    assert task.polls >= 15


def test_interrupt_core_sleeps_after_idle_streak(sim):
    core = Core(sim, "c0", freq_hz=1e9, interrupt_driven=True, idle_polls_before_sleep=4)
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(100_000)
    assert core.sleeping
    polls_when_asleep = task.polls
    sim.run_until(200_000)
    assert task.polls == polls_when_asleep  # no polling while asleep


def test_wake_resumes_after_interrupt_latency(sim):
    core = Core(
        sim, "c0", freq_hz=1e9, interrupt_driven=True,
        idle_polls_before_sleep=2, interrupt_latency_ns=500.0,
    )
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(10_000)
    assert core.sleeping
    polls_before = task.polls
    core.wake()
    assert not core.sleeping
    sim.run_until(10_000 + 499)
    assert task.polls == polls_before  # latency not yet elapsed
    sim.run_until(10_000 + 50_000)
    assert task.polls > polls_before


def test_wake_is_noop_when_awake(sim):
    core = Core(sim, "c0", interrupt_driven=True)
    core.attach(FixedWorkTask(cycles=10, times=1000))
    core.start()
    sim.run_until(100)
    pending_before = sim.pending()
    core.wake()  # not sleeping: should not schedule anything
    assert sim.pending() == pending_before


def test_round_robin_shares_one_core(sim):
    core = Core(sim, "c0", freq_hz=1e9)
    a = FixedWorkTask(cycles=100, times=10**9)
    b = FixedWorkTask(cycles=100, times=10**9)
    core.attach(a)
    core.attach(b)
    core.start()
    sim.run_until(100_000)
    # Both tasks run, each gets ~half the iterations' service time.
    assert a.polls == b.polls
    assert a.polls == pytest.approx(100_000 / 200, rel=0.05)


def test_utilization(sim):
    core = Core(sim, "c0", freq_hz=1e9)
    core.attach(FixedWorkTask(cycles=100, times=5))
    core.start()
    sim.run_until(1_000)
    assert core.utilization(1_000) == pytest.approx(0.5)
    assert core.utilization(0) == 0.0


def test_start_is_idempotent(sim):
    core = Core(sim, "c0")
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    core.start()
    sim.run_until(100)
    # A double start must not run two interleaved poll loops.
    assert sim.events_executed <= 100 / (80 / 2.6) + 2


def test_cycles_to_ns_uses_core_frequency(sim):
    core = Core(sim, "c0", freq_hz=2.6e9)
    assert core.cycles_to_ns(2600) == pytest.approx(1000.0)


class DrainTask:
    """Pops its ring; pure-reactive (the core may park) when ``parks``."""

    def __init__(self, ring, parks):
        self.ring = ring
        if parks:
            self.park_rings = [ring]
        self.served = []

    def poll(self, core):
        if not self.ring._frames:
            return 0.0
        self.served.append(core.sim.now)
        self.ring.pop_batch(32)
        return 500.0


def test_unpark_resumes_at_the_busy_grid_point_across_binades():
    """A parked core serves each frame at the poll where a busy-polling
    core serves it: after a park that crosses binades (0 to 2**20), and
    with the grid point past the last skipped poll lying above a power
    of two (2**21 - 0.5)."""
    arrivals = (2.0**20 - 1.0, 2.0**20 + 3_333.3, 2.0**21 - 0.5, 2.0**21 + 5_000.7,
                2.0**21 + 45_000.1)

    def served(parks):
        sim = Simulator()
        ring = Ring(64)
        core = Core(sim, "monitor")
        task = DrainTask(ring, parks)
        core.attach(task)
        core.start()
        for t in arrivals:
            sim.at(t, lambda: ring.push(Packet()))
        sim.run_until(2.0**21 + 60_000.0)
        assert (core._park_rings is not None) == parks
        return task.served

    parked = served(parks=True)
    assert len(parked) == len(arrivals)
    assert parked == served(parks=False)


def test_a_clock_change_unparks_the_core_onto_its_old_grid():
    """A frequency change (a ``core-throttle`` fault's start or end) on a
    parked core rejoins the old idle grid at its first point at or after
    now; that poll reads the new idle delay, as a busy-polling core's
    pending poll would.  The catch-up on the next arrival used to add a
    zero delay forever."""
    sim = Simulator()
    ring = Ring(64)
    core = Core(sim, "monitor")
    task = DrainTask(ring, parks=True)
    core.attach(task)
    core.start()
    sim.run_until(1_000.0)
    assert core._parked and not sim._queue
    old_delay = core._idle_cache[1]
    grid_point = core._parked_at + old_delay
    while grid_point < sim.now:
        grid_point += old_delay

    core.set_frequency(core.freq_hz / 2)
    assert not core._parked
    assert [(t, cb) for t, _seq, cb in sim._queue] == [(grid_point, core._iterate)]
    sim.run_until(grid_point)
    assert core._parked and core._idle_cache[1] == core.cycles_to_ns(core.idle_loop_cycles)
    sim.at(grid_point + 100.0, lambda: ring.push(Packet()))
    sim.run_until(grid_point + 1_000.0)
    assert len(task.served) == 1
