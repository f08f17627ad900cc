"""CPU core model.

A :class:`Core` executes the poll loops of the tasks pinned to it, one
iteration at a time, advancing simulated time by the cycles the tasks
report.  This captures the two effects the paper's single-core methodology
hinges on:

* *sharing*: all ports/directions of a switch run on one core, so
  bidirectional traffic halves the per-direction budget (Sec. 5.1:
  "Software switches are always deployed on a single core");
* *I/O discipline*: DPDK-style switches busy-wait (poll mode) while
  VALE/netmap sleeps and is woken by interrupts, paying a wake-up latency
  that dominates its low-load RTT (Sec. 5.3).
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import TYPE_CHECKING, Protocol

from repro.core.lattice import Lattice
from repro.core.units import cycles_to_ns

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: Default clock of the paper's Xeon E5-2690 v3 (Turbo Boost disabled,
#: governor pinned to "performance" -- Sec. 5.1).
DEFAULT_FREQ_HZ = 2.6e9


class Task(Protocol):
    """Anything schedulable on a core: returns cycles consumed per poll."""

    def poll(self, core: "Core") -> float:
        """Run one poll-loop iteration; return CPU cycles consumed (0 = idle)."""
        ...


class Core:
    """A cycle-accounted CPU core running pinned tasks round-robin.

    Parameters
    ----------
    sim:
        Shared simulator.
    name:
        Diagnostic label ("numa0/core2").
    freq_hz:
        Core clock; cycles reported by tasks convert to time at this rate.
    interrupt_driven:
        If True the core sleeps after ``idle_polls_before_sleep`` empty
        iterations and must be woken via :meth:`wake` (netmap/VALE model).
        If False it busy-waits, re-polling every ``idle_loop_cycles``.
    interrupt_latency_ns:
        Wake-up cost: interrupt delivery + scheduler + syscall return.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        freq_hz: float = DEFAULT_FREQ_HZ,
        interrupt_driven: bool = False,
        interrupt_latency_ns: float = 6_000.0,
        idle_loop_cycles: float = 80.0,
        idle_polls_before_sleep: int = 8,
    ) -> None:
        self.sim = sim
        self.name = name
        self.freq_hz = freq_hz
        self.interrupt_driven = interrupt_driven
        self.interrupt_latency_ns = interrupt_latency_ns
        self.idle_loop_cycles = idle_loop_cycles
        self.idle_polls_before_sleep = idle_polls_before_sleep

        self.tasks: list[Task] = []
        self.busy_ns = 0.0
        self._started = False
        self._sleeping = False
        self._idle_streak = 0
        # (idle_loop_cycles, cycles_to_ns(idle_loop_cycles)) memo -- the
        # idle re-arm delay is recomputed only when the cycle count
        # changes, not once per idle iteration.
        self._idle_cache: tuple[float, float] = (-1.0, 0.0)
        # The idle grid's lattice (repro.core.lattice): _unpark and the
        # chain turbo count idle polls on it instead of adding the delay
        # poll by poll.
        self._idle_lattice = Lattice()
        # Idle-grid parking (pure-reactive tasks only, see start()).
        self._park_rings = None
        self._parked = False
        self._parked_at = 0.0
        #: Optional trace probe (:class:`repro.obs.session.CoreProbe`);
        #: None unless an observation session is attached.
        self.obs = None

    def attach(self, task: Task) -> None:
        """Pin a task to this core (appended to the round-robin order)."""
        self.tasks.append(task)

    def start(self) -> None:
        """Begin executing the poll loop at the current simulated time."""
        if self._started:
            return
        self._started = True
        # A core may *park* while idle -- stop re-arming the idle grid and
        # resume at the exact grid point after a frame arrives -- only when
        # every pinned task is pure-reactive: it declares the rings it
        # watches via a ``park_rings`` attribute, does nothing but drain
        # them, and keeps no time-based obligations (drain timers, stalls).
        # The resulting schedule of *executed* polls is identical to
        # busy-polling the grid; only the no-op iterations disappear.
        rings: list | None = []
        for task in self.tasks:
            task_rings = getattr(task, "park_rings", None)
            if task_rings is None:
                rings = None
                break
            rings.extend(task_rings)
        if rings and not self.interrupt_driven and all(
            ring.on_push is None for ring in rings
        ):
            self._park_rings = rings
        self.sim.after(0, self._iterate)

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles_to_ns(cycles, self.freq_hz)

    def wake(self) -> None:
        """Interrupt: resume a sleeping core after the wake-up latency."""
        if not self._started or not self._sleeping:
            return
        self._sleeping = False
        self._idle_streak = 0
        if self.obs is not None:
            self.obs.on_wake(self.name, self.sim.now)
        self.sim.after(self.interrupt_latency_ns, self._iterate)

    @property
    def sleeping(self) -> bool:
        return self._sleeping

    def _iterate(self) -> None:
        if self._sleeping:
            return
        cycles = 0.0
        for task in self.tasks:
            cycles += task.poll(self)
        if cycles > 0:
            self._idle_streak = 0
            delay = self.cycles_to_ns(cycles)
            self.busy_ns += delay
            if self.obs is not None:
                self.obs.on_poll(self.name, self.sim.now, delay, cycles)
        else:
            self._idle_streak += 1
            if (
                self.interrupt_driven
                and self._idle_streak >= self.idle_polls_before_sleep
            ):
                self._sleeping = True
                if self.obs is not None:
                    self.obs.on_sleep(self.name, self.sim.now)
                return
            idle_cycles, delay = self._idle_cache
            if idle_cycles != self.idle_loop_cycles:
                idle_cycles = self.idle_loop_cycles
                delay = self.cycles_to_ns(idle_cycles)
                self._idle_cache = (idle_cycles, delay)
            rings = self._park_rings
            if rings is not None:
                for ring in rings:
                    if ring._frames:
                        break  # residual frames: keep polling the grid
                else:
                    self._parked = True
                    self._parked_at = self.sim.now
                    for ring in rings:
                        ring.on_push = self._unpark
                    return
        # Inlined sim.after(): the re-arm is the single hottest schedule
        # in the simulation and the delay is never negative.
        sim = self.sim
        heappush(sim._queue, (sim._now + delay, sim._seq, self._iterate))
        sim._seq += 1

    def _unpark(self) -> None:
        """A frame landed in a watched ring: rejoin the idle poll grid.

        Runs inside ``Ring.push`` at the arrival timestamp.  The next poll
        fires at the first grid point the busy-polling core would have
        reached after this instant; the grid is the repeated float
        addition the per-iteration re-arm performs, counted on the idle
        lattice, so poll times are bit-identical to never having parked.
        """
        self._parked = False
        for ring in self._park_rings:
            ring.on_push = None
        sim = self.sim
        now = sim.now
        delay = self._idle_cache[1]
        # The parking poll already ran at _parked_at; resume strictly after.
        t = self._parked_at + delay
        lattice = self._idle_lattice
        if delay == lattice.d and lattice.lo <= t and now < lattice.hi:
            # The skipped polls lie in t's binade: ceil((now - t) / step)
            # of them, and the grid point after the last one.
            skipped = -((t - now) // lattice.step)
            if skipped > 0:
                t = t + (skipped - 1) * lattice.step + delay
        else:
            t = lattice.polls(t, delay, now, inf)[2]
        sim.at(t, self._iterate)

    # -- fault hooks (repro.faults) ----------------------------------------
    #
    # Preemption and frequency changes piggyback on state the poll loop
    # already tests every iteration (``_sleeping``, ``_idle_cache``), so a
    # core that is never faulted executes exactly the same instructions.

    def preempt(self) -> None:
        """The OS steals the core: pending poll iterations become no-ops.

        Any already-scheduled ``_iterate`` event fires once, sees the
        sleeping flag and returns without re-arming -- the poll chain is
        broken until :meth:`resume_from_preemption`.
        """
        if not self._started or self._sleeping:
            return
        self._sleeping = True

    def resume_from_preemption(self) -> None:
        """The scheduler gives the core back; polling restarts *now*.

        Unlike :meth:`wake` there is no interrupt latency: the thread was
        runnable all along, it simply was not on the CPU.
        """
        if not self._started or not self._sleeping:
            return
        self._sleeping = False
        self._idle_streak = 0
        self.sim.after(0.0, self._iterate)

    def set_frequency(self, freq_hz: float) -> None:
        """Change the core clock (thermal throttling episodes).

        Invalidates the idle-delay memo, which caches a *time* computed at
        the old frequency under a cycle-count key.  A parked core first
        rejoins its old grid at the first point at or after now, so that
        poll reads the new delay, as a busy-polling core's pending poll
        would.
        """
        if freq_hz <= 0:
            raise ValueError(f"core frequency must be positive, got {freq_hz}")
        if self._parked:
            self._unpark()
        self.freq_hz = freq_hz
        self._idle_cache = (-1.0, 0.0)

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` spent doing useful work."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)
