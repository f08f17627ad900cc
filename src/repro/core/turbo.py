"""Chain-turbo: generalized exact fast-forward for multi-hop testbeds.

The p2p monolith in :mod:`repro.core.warp` fast-forwards by *mirroring*
the whole steady-state event cycle analytically.  That approach does not
extend to multi-hop chains (p2v/v2v vring hops, loopback VNF chains,
bidirectional p2p): the cycle spans guest apps, virtio notify delays and
memory-bus state whose exact mirror would duplicate half the simulator.

The turbo takes the complementary route: **every datapath event stays on
real dispatch** -- generator ticks, wire arrivals, PCIe pushes, switch
breaths that move packets, vring notifies, fault flips -- so multi-hop
runs are bit-identical *by construction*.  What it accelerates is the
one event class that dominates long sub-capacity horizons: the idle poll.
A poll-mode core whose every task is provably idle (all watched rings
empty, or holding only a short batch or buffered TX frames whose
strict-batch or drain timer is not yet due) executes a poll iteration
whose complete effect is::

    sim._now = t            # the event's own time
    events_executed += 1
    core._idle_streak += 1
    re-arm at (t + idle_delay, seq++)   # exact repeated float addition

Nothing else in the simulation can change until the next *non-poll* heap
event, because every ring fill and state flip arrives via the heap, or
until the first poll at or past the core's timer deadline.  The turbo
therefore bulk-advances idle-poll chains -- replaying exactly those
register updates, including the repeated float addition and the global
``(time, seq)`` ordering across several concurrent chains (loopback runs
one chain per VNF vCPU) -- and stops strictly before the next non-poll
event and the first due timer.  Cores it cannot profile (Snabb's
pipeline core, VALE's interrupt-driven one) dispatch for real and bound
every span like any other non-chain event, so their VNF chains still
advance.  Fault events, timeline-sampler ticks and probe batches are plain
heap events, so the *between-fault* segments of resilience runs warp
automatically and faulted intervals (frozen vrings, preempted cores)
fall back to real dispatch through the same per-span eligibility checks.

Idle chains wait in a *table* off the heap.  A popped ``Core._iterate``
of a profiled core whose deadline lies above its time becomes a row
instead of being dispatched, so the heap holds only real events and its
head always bounds the rows.  Before a real event runs, the rows whose
heads precede it advance to it in one :func:`_advance` call; nothing
scans the heap for a horizon, and nothing pops and re-pushes the idle
chains.  A row goes back on the heap at its exact ``(time, seq)``, and
its next poll dispatches for real, when that poll reaches the row's
deadline, when a real event has moved the deadline to or below the
row's head (deadlines are read after the last real event, before the
rows' next polls), before an unrecognized event runs, and when the loop
ends.

Verification mirrors the monolith's shadow-replay contract: the first
spans of a run are *predicted* and then dispatched for real, and every
register the bulk path would have written (clock, seq, event count, idle
streaks, core busy time, per-task idle state, re-arm heap entries) is
compared.  A verification span predicts the table's advance on a copy,
puts the rows back on the heap and dispatches them up to the predicted
stop.  A mismatch permanently disables bulk advance for the run --
real dispatch has already produced the correct state, so a failed
verification costs speed, never correctness.  After any unrecognized
event (fault injections in particular) the next span is re-verified.
"""

from __future__ import annotations

import types
from heapq import heappop, heappush
from math import inf, nextafter
from typing import TYPE_CHECKING, Callable

from repro.core.engine import SimulationError
from repro.core.lattice import grid
from repro.core.warp import (
    WarpReport,
    _ARRIVE_CODES,
    _DELIVER_CODES,
    _Decline,
    _PUSH_CODES,
)
from repro.cpu.cores import Core
from repro.switches.base import PhyAttachment, SoftwareSwitch, VifAttachment, _Worker
from repro.traffic.generator import PacedSource
from repro.vm.apps import GuestL2Fwd, GuestValeBridge, GuestValeXConnect

if TYPE_CHECKING:
    from repro.scenarios.base import Testbed

#: Spans verified by full real dispatch before bulk advance is trusted.
VERIFY_SPANS = 2

#: Minimum idle polls the earliest row must have room for before the
#: next real event or its deadline for a verification span to start, so
#: that the verified spans cover several polls per chain; shorter gaps
#: dispatch for real until the run is verified.  Trusted rows advance
#: over any gap.
MIN_SPAN_POLLS = 8

#: Lattice positions are exact below ``2**53`` ulps of the earliest head:
#: the top of its binade.
_LATTICE_TOP = 1 << 53

_ITERATE = Core._iterate
_MethodType = types.MethodType


def _lambda_codes(func: Callable) -> tuple:
    return tuple(
        const
        for const in func.__code__.co_consts
        if isinstance(const, types.CodeType) and const.co_name == "<lambda>"
    )


def _benign_codes() -> set:
    """Code objects of event callbacks that cannot change poll semantics.

    Any dispatched event whose callback is *not* recognized here (fault
    start/stop closures, anything new) forces the next bulk span through
    a fresh verification pass.
    """
    from repro.nic.port import NicPort

    codes = {PacedSource._tick.__code__}
    for owner in (
        NicPort.send_batch,
        NicPort._receive,
        PhyAttachment.deliver,
        VifAttachment.deliver,
        SoftwareSwitch._serve_pipeline_rx,
        GuestL2Fwd.poll,
        GuestValeXConnect.poll,
        GuestValeBridge.poll,
    ):
        codes.update(_lambda_codes(owner))
    codes.update(_ARRIVE_CODES)
    codes.update(_PUSH_CODES)
    codes.update(_DELIVER_CODES)
    return codes


_BENIGN = _benign_codes()


def _add_lazy_benign() -> None:
    """Register benign callbacks from modules that import the runner.

    The resilience timeline sampler only *reads* cumulative counters on a
    bin grid, so its ticks must not trigger re-verification (they fire in
    every bin of every resilience run).  Imported at the call to avoid a
    cycle (measure.resilience -> measure.runner -> core.turbo).
    """
    from repro.measure.resilience import _TimelineSampler

    _BENIGN.add(_TimelineSampler._tick.__code__)


# -- per-core idle predicates -------------------------------------------------
#
# A check returns the absolute sim time before which the task's polls are
# pure no-ops: ``-inf`` means the very next poll does work, ``inf`` means
# idle until an external event intervenes, and a finite value is a known
# self-imposed deadline (a timer the task tests as ``now - origin >=
# interval``: t4p4s's strict-batch wait, FastClick's vif TX drain,
# l2fwd's TX drain).  The table re-reads its rows' deadlines once before
# the rows next advance, not after every real event: every real event
# dispatched since lies before every poll that advance covers, so the
# deadline read then is the one those polls see, whichever way the
# events moved it.


def _first_due(origin: float, interval: float) -> float:
    """The least float ``t`` with ``t - origin >= interval``.

    Every timer in the model fires on that subtraction test, and
    ``origin + interval`` can round one ulp to either side of the
    boundary; ``t - origin`` is monotone in ``t``, so a few
    ``nextafter`` steps land on the exact first due time.
    """
    t = origin + interval
    if t - origin >= interval:
        below = nextafter(t, -inf)
        while below - origin >= interval:
            t = below
            below = nextafter(t, -inf)
        return t
    t = nextafter(t, inf)
    while t - origin < interval:
        t = nextafter(t, inf)
    return t


def _switch_check(switch: SoftwareSwitch, paths) -> Callable[[], float] | None:
    params = switch.params
    if params.pipeline or switch._stalls is not None:
        return None  # stalls/pipeline links carry time-based obligations
    if params.interrupt_driven:
        return None
    batch_size = params.batch_size
    batch_wait = params.batch_wait_ns
    tx_drain = params.tx_drain_ns

    def check(paths=tuple(paths)) -> float:
        # Mirrors _serve_path's idle branches: a short batch waits until
        # its strict-batch timer is due (_take_batch), buffered TX frames
        # until the drain timer is due (_flush_drain).  Every other
        # non-empty state pops or writes on the next poll.
        deadline = inf
        for path in paths:
            frames = path.input.input_ring._frames
            started = path.wait_started_ns
            if frames:
                if batch_wait is None or frames >= batch_size or started is None:
                    return -inf
                due = _first_due(started, batch_wait)
                if due < deadline:
                    deadline = due
            elif started is not None:
                return -inf  # the next poll clears the wait
            if path.tx_buffer and tx_drain is not None:
                due = _first_due(path.tx_buffer_since_ns, tx_drain)
                if due < deadline:
                    deadline = due
        return deadline

    return check


def _l2fwd_check(task: GuestL2Fwd) -> Callable[[], float]:
    ring = task.rx_vif.to_guest

    def check(task=task, ring=ring) -> float:
        if ring._frames:
            return -inf
        if not task._tx_buffer:
            return inf
        if task._tx_frames >= task.burst:
            return -inf
        # Buffered below the burst threshold: polls no-op until the
        # drain timer fires (poll at t flushes iff t - last >= drain).
        return _first_due(task._last_flush_ns, task.drain_ns)

    return check


def _rings_check(rings) -> Callable[[], float]:
    def check(rings=tuple(rings)) -> float:
        for ring in rings:
            if ring._frames:
                return -inf
        return inf

    return check


def _task_check(task) -> Callable[[], float] | None:
    """Build the no-op-deadline predicate for one task, or None."""
    kind = type(task)
    if isinstance(task, SoftwareSwitch):
        return _switch_check(task, task.paths)
    if kind is _Worker:
        return _switch_check(task.switch, task.paths)
    if kind is GuestL2Fwd:
        return _l2fwd_check(task)
    if kind is GuestValeXConnect:
        return _rings_check((task.vif_a.to_guest, task.vif_b.to_guest))
    if kind is GuestValeBridge:
        return _rings_check((task.gen_to_bridge, task.vif.to_guest))
    rings = getattr(task, "park_rings", None)
    if rings is not None:
        # Pure-reactive drainers (guest monitors, FloWatcher): idle iff
        # every watched ring is empty.  (A monitor-only core parks itself
        # and never reaches the bulk path; this covers mixed cores.)
        return _rings_check(rings)
    return None


class _Profile:
    """Bulk-advance profile of one core: its task deadline predicates."""

    __slots__ = ("core", "checks")

    def __init__(self, core: Core, checks) -> None:
        self.core = core
        self.checks = checks

    def deadline(self) -> float:
        """Polls strictly before this time are no-ops; -inf means busy."""
        core = self.core
        if core._sleeping or not core._started:
            return -inf
        deadline = inf
        for check in self.checks:
            value = check()
            if value < deadline:
                deadline = value
                if deadline == -inf:
                    break
        return deadline


def _core_profile(core: Core) -> _Profile | None:
    if core.interrupt_driven or core._park_rings is not None or not core.tasks:
        return None
    checks = []
    for task in core.tasks:
        check = _task_check(task)
        if check is None:
            return None
        checks.append(check)
    return _Profile(core, checks)


def _chain_delay(core: Core) -> float:
    """The idle re-arm delay, via the same memo ``Core._iterate`` keeps."""
    idle_cycles, delay = core._idle_cache
    if idle_cycles != core.idle_loop_cycles:
        idle_cycles = core.idle_loop_cycles
        delay = core.cycles_to_ns(idle_cycles)
        core._idle_cache = (idle_cycles, delay)
    return delay


# -- eligibility --------------------------------------------------------------


def _eligibility(tb: "Testbed") -> None:
    # The engine observer hooks every dispatch, and the drive loop below
    # dispatches around it.  Probes need no check: a row holds only polls
    # its deadline proves are no-ops, which reach no switch probe, core
    # probe or flow tracker; every poll that does reach one runs for real.
    if tb.sim._observer is not None:
        raise _Decline("per-packet-tracing")
    population = tb.extras.get("flow_population")
    if population is not None:
        # Same contract as the replay tier: flow-diverse load keeps the
        # stateful caches (EMC, MAC table, flow table) churning, so the
        # cores rarely idle long enough for bulk spans to pay off — and
        # callers rely on the stable PR 6 decline reasons.
        raise _Decline("flow-churn" if population.churn_fps else "multi-flow-traffic")


# -- the drive loop -----------------------------------------------------------


class _LoopState:
    __slots__ = (
        "verified", "reverify", "dead", "dead_reason",
        "bulk_events", "bulk_ns", "verify_ns",
    )

    def __init__(self) -> None:
        self.verified = 0
        self.reverify = False
        self.dead = False
        self.dead_reason = ""
        self.bulk_events = 0
        self.bulk_ns = 0.0
        self.verify_ns = 0.0


def _advance(chains, bound_t, bound_s, t_end, seq):
    """Advance idle chains to the next event (pure computation on ``chains``).

    ``chains`` rows are ``[t, seq, cb, core, delay, fired, deadline, ...]``;
    rows mutate in place.  Returns ``(total_fired, last_time, next_seq)``.
    Ordering matches the heap exactly: the earliest ``(time, seq)`` chain
    head fires, takes the next global seq for its re-arm, and steps by
    its own delay; everything stops strictly before the bound (the next
    non-chain event), before the first poll that reaches its chain's
    no-op deadline (that poll does real work, so it bounds every chain),
    and past ``t_end``.

    One chain counts its polls on its core's idle lattice
    (:mod:`repro.core.lattice`); several chains go through the
    closed-form :func:`_lattice_advance`, and through the k-way
    :func:`_merge_advance` when the lattice cannot decide.
    """
    if len(chains) == 1:
        # Single chain (p2p/p2v/v2v spans).  After the first fire the
        # chain's re-arm seqs exceed every pending heap seq, so a time tie
        # with the bound always resolves to the bound and the seq test
        # collapses away: the later polls fire while below the stop and
        # at or below t_end.
        chain = chains[0]
        t = chain[0]
        if (
            t > t_end
            or t > bound_t
            or (t == bound_t and chain[1] > bound_s)
            or t >= chain[6]
        ):
            return 0, None, seq
        delay = chain[4]
        stop = bound_t if bound_t < chain[6] else chain[6]
        total = 1
        last_t = t
        t += delay
        lattice = chain[3]._idle_lattice
        if (
            delay == lattice.d and lattice.lo <= t
            and stop < lattice.hi and stop <= t_end
        ):
            # Every later poll below the stop lies in t's binade.
            count = -((t - stop) // lattice.step)
            if count > 0:
                count = int(count)
                total += count
                last_t = t + (count - 1) * lattice.step
                t = last_t + delay
        else:
            count, last, t = lattice.polls(t, delay, stop, t_end)
            if count:
                total += count
                last_t = last
        chain[0] = t
        chain[1] = seq + total - 1
        chain[5] += total
        return total, last_t, seq + total
    result = _lattice_advance(chains, bound_t, bound_s, t_end, seq)
    if result is not None:
        return result
    return _merge_advance(chains, bound_t, bound_s, t_end, seq)


def _lattice_advance(chains, bound_t, bound_s, t_end, seq):
    """Closed-form multi-chain advance, or None when it cannot decide.

    Same contract as :func:`_merge_advance` (``seq`` exceeds every row's
    seq and ``bound_s``, as the engine's next seq does); on None the rows
    are untouched.  Inside the binade of the earliest head ``t_lo`` every
    float is an integer multiple of ``u = ulp(t_lo)``, and ``t + d``
    below the binade top rounds to ``t + M*u``; ``(u, M)`` and the cases
    that decline come from :func:`repro.core.lattice.grid`.  So chains
    sharing one delay poll at integer *positions* ``n, n+M, n+2M, ...`` with
    ``n = t/u``, exact below ``2**53``; ``t_end``, ``bound_t`` and the
    deadlines are floats at or above ``t_lo``, hence exact positions too.

    Each chain's first poll that may not fire (past ``t_end``, at or past
    its deadline, or not before the bound) is ranked by position and
    then by ``(-n, seq)``: at a shared grid point a chain that joined the
    grid later still carries its original heap seq, below every seq the
    span hands out, and chains with equal heads keep their seq order; the
    same order repeats at every later shared point.  The earliest such
    poll ``S`` stops the span: every poll before it fires, and each fired
    chain's last poll lies in ``[S - M, S]``, so the last ``f`` seqs go
    to the ``f`` fired chains in ``(last position, -n, seq)`` order.

    The common case is the table advancing to the next real event: every
    deadline and ``t_end`` lie at or past the bound, no head sits on it,
    and the bound lies in the earliest head's binade.  The bound's
    position ``b`` is then the stop, and a chain whose head lies below it
    fires ``ceil((b - n) / M)`` polls.
    """
    delay = chains[0][4]
    t_lo = inf
    common = t_end >= bound_t
    for chain in chains:
        t = chain[0]
        if chain[4] != delay or chain[6] <= t:
            return None
        if t < t_lo:
            t_lo = t
        if chain[6] < bound_t or t == bound_t:
            common = False
    if bound_t < t_lo or t_end < t_lo:
        return None
    found = grid(t_lo, delay)
    if found is None:
        return None
    u, step = found
    top = _LATTICE_TOP
    bound = bound_t / u
    fired = []
    total = 0
    if common and bound < top:
        bound = int(bound)
        for chain in chains:
            if chain[0] < bound_t:
                n = int(chain[0] / u)
                count = (bound - n + step - 1) // step
                total += count
                fired.append((n + (count - 1) * step, -n, chain[1], count, chain))
    else:
        # A poll fires only below every threshold: one past t_end, the
        # deadline, and the bound (one past it for a head at the bound
        # with a seq below the bound's).  Positions at or past the binade
        # top collapse to it: a stop there declines, and nothing below it
        # depends on how far past the top they lie.
        past_end = t_end / u
        past_end = int(past_end) + 1 if past_end < top else top
        bound = int(bound) if bound < top else top
        stop = top
        stop_n = stop_s = -1
        heads = []
        for chain in chains:
            n = chain[0] / u
            if n >= top:
                return None  # a head outside the earliest head's binade
            n = int(n)
            s = chain[1]
            limit = chain[6] / u
            limit = int(limit) if limit < top else top
            if past_end < limit:
                limit = past_end
            cap = bound + 1 if n == bound and s < bound_s else bound
            if cap < limit:
                limit = cap
            # The chain's first poll at or past its threshold may not fire.
            first = n + (limit - n + step - 1) // step * step if limit > n else n
            if first < stop or (
                first == stop and (n > stop_n or (n == stop_n and s < stop_s))
            ):
                stop, stop_n, stop_s = first, n, s
            heads.append(n)
        if stop >= top:
            return None  # the span reaches the binade top
        for chain, n in zip(chains, heads):
            if n > stop:
                continue
            count, rest = divmod(stop - n, step)
            # Every poll below the stop fires; one at the stop fires when
            # its chain's (-n, seq) sorts before the stopper's.
            if rest or n > stop_n or (n == stop_n and chain[1] < stop_s):
                count += 1
            if count:
                total += count
                fired.append((n + (count - 1) * step, -n, chain[1], count, chain))
    if not total:
        return 0, None, seq
    fired.sort()
    next_seq = seq + total - len(fired)
    for last, _n, _s, count, chain in fired:
        chain[0] = last * u + delay
        chain[1] = next_seq
        chain[5] += count
        next_seq += 1
    return total, fired[-1][0] * u, next_seq


def _merge_advance(chains, bound_t, bound_s, t_end, seq):
    """The k-way ``(time, seq)`` merge: the reference multi-chain advance."""
    total = 0
    last_t = None
    while True:
        best = None
        bt = bs = None
        for chain in chains:
            ct = chain[0]
            if best is None or ct < bt or (ct == bt and chain[1] < bs):
                best = chain
                bt = ct
                bs = chain[1]
        if bt > t_end or bt > bound_t or (bt == bound_t and bs > bound_s):
            break
        if bt >= best[6]:
            break
        total += 1
        best[5] += 1
        last_t = bt
        best[1] = seq
        seq += 1
        best[0] = bt + best[4]
    return total, last_t, seq


def _leave(row, queue) -> None:
    """Put a row's next poll back on the heap at its exact ``(t, seq)``."""
    row[3]._idle_streak += row[5]
    heappush(queue, (row[0], row[1], row[2]))


def _refresh(rows, queue) -> bool:
    """Re-read every row's deadline; a row at or past it leaves the table.

    Returns whether any row left.
    """
    left = False
    for row in rows:
        deadline = row[7]()
        row[6] = deadline
        if deadline <= row[0]:
            left = True
    if left:
        kept = []
        for row in rows:
            if row[6] > row[0]:
                kept.append(row)
            else:
                _leave(row, queue)
        rows[:] = kept
    return left


def turbo_drive(tb: "Testbed", t_end: float) -> WarpReport:
    """Run ``tb`` to ``t_end`` with bulk idle-poll advance; exact always.

    Replaces the caller's dispatch loop (the caller's ``run_until(t_end)``
    afterwards only clamps the clock).  Returns a :class:`WarpReport` with
    ``mode="turbo"``.  An eligibility decline returns before the
    simulator is touched; a ``verify-mismatch`` decline has already run
    to ``t_end`` by real dispatch, which produced the exact state.
    """
    try:
        _eligibility(tb)
    except _Decline as decline:
        return WarpReport(engaged=False, reason=decline.reason, mode="turbo")
    sim = tb.sim
    if sim._running:
        raise SimulationError("dispatch is not reentrant")
    # Profile every core upfront (the core set and the profile inputs are
    # fixed for the duration of a drive).  With no chain-eligible core
    # there is nothing to advance.
    profiles: dict[Core, _Profile | None] = {}
    n_eligible = 0
    for node in tb.machine.nodes:
        for candidate in node.cores:
            candidate_profile = _core_profile(candidate)
            profiles[candidate] = candidate_profile
            if candidate_profile is not None:
                n_eligible += 1
    if not n_eligible:
        # Snabb's core (pipeline links, stall clock) and VALE's
        # (interrupt-driven I/O) are never profiled: their testbeds
        # engage only through VNF cores that are plain poll loops.
        sw = tb.switch
        if sw.params.pipeline or sw._stalls is not None:
            return WarpReport(engaged=False, reason="pipeline-switch", mode="turbo")
        if sw.params.interrupt_driven:
            return WarpReport(engaged=False, reason="interrupt-driven", mode="turbo")
    _add_lazy_benign()
    st = _LoopState()
    trusted = dead = False
    # The table: idle chains held off the heap.  Rows are
    # ``[t, seq, cb, core, delay, fired, deadline, profile.deadline]``;
    # ``fired`` counts the polls advanced since the row entered and
    # reaches the core's idle streak when the row leaves.
    rows: list = []
    first_t = inf  # the earliest row head
    stale = False  # a real event ran since the rows' deadlines were read
    queue = sim._queue
    sim._running = True
    try:
        while True:
            if queue and queue[0][0] <= t_end:
                t, s, cb = heappop(queue)
                if cb.__class__ is _MethodType and cb.__func__ is _ITERATE:
                    foreign = False
                    if not dead:
                        core = cb.__self__
                        profile = profiles.get(core, False)
                        if profile is False:
                            profile = profiles[core] = _core_profile(core)
                        if profile is not None:
                            deadline = profile.deadline()
                            if deadline > t:
                                # An idle chain poll: the row enters.
                                rows.append([
                                    t, s, cb, core, _chain_delay(core), 0,
                                    deadline, profile.deadline,
                                ])
                                if t < first_t:
                                    first_t = t
                                continue
                else:
                    foreign = (
                        not dead and getattr(cb, "__code__", None) not in _BENIGN
                    )
            elif rows:
                # Nothing pending up to t_end: the rows still advance to it.
                t, s = (queue[0][0], queue[0][1]) if queue else (inf, 0)
                cb = None
            else:
                break
            if first_t <= t:
                # A row may poll before (t, s): bring the table up to it.
                if stale:
                    stale = False
                    if _refresh(rows, queue):
                        first_t = min(rows)[0] if rows else inf
                        if cb is not None:
                            heappush(queue, (t, s, cb))
                        continue
                if trusted:
                    total, last_t, seq = _advance(rows, t, s, t_end, sim._seq)
                    if total:
                        sim._seq = seq
                        sim.events_executed += total
                        sim._now = last_t
                        st.bulk_events += total
                        st.bulk_ns += last_t - first_t
                    head = min(rows)
                    first_t = head[0]
                    if first_t <= t_end and (
                        first_t < t or (first_t == t and head[1] < s)
                    ):
                        # The advance stopped on this row's deadline: its
                        # next poll does work.
                        rows.remove(head)
                        _leave(head, queue)
                        first_t = min(rows)[0] if rows else inf
                        if cb is not None:
                            heappush(queue, (t, s, cb))
                        continue
                else:
                    head = min(rows)
                    if head[0] <= t_end and (
                        head[0] < t or (head[0] == t and head[1] < s)
                    ):
                        if (t if t < head[6] else head[6]) - head[0] >= (
                            head[4] * MIN_SPAN_POLLS
                        ):
                            _verify(sim, queue, rows, t, s, t_end, st)
                            trusted = st.verified >= VERIFY_SPANS and not st.reverify
                            dead = st.dead
                        else:
                            # A short gap: the earliest poll runs for real.
                            rows.remove(head)
                            sim._now = head[0]
                            head[2]()
                            sim.events_executed += 1
                            stale = True
                        first_t = min(rows)[0] if rows else inf
                        if cb is not None:
                            heappush(queue, (t, s, cb))
                        continue
            if cb is None:
                break
            if foreign:
                # Anything unrecognised (a fault firing) may change what
                # the predicates assume: every row goes back on the heap,
                # and the next span is verified again.
                st.reverify = True
                trusted = False
                for row in rows:
                    _leave(row, queue)
                rows.clear()
                first_t = inf
            sim._now = t
            cb()
            sim.events_executed += 1
            stale = True
    finally:
        for row in rows:
            _leave(row, queue)
        rows.clear()
        sim._running = False

    if st.dead:
        return WarpReport(
            engaged=False, reason=st.dead_reason, mode="turbo",
            verify_ns=st.verify_ns,
        )
    return WarpReport(
        engaged=True,
        mode="turbo",
        warped_ns=st.bulk_ns,
        events_replayed=st.bulk_events,
        verify_ns=st.verify_ns,
    )


def _verify(sim, queue, rows, bound_t, bound_s, t_end, st):
    """Verification span: advance the table to the bound by real dispatch.

    The rows' advance is predicted on a copy; then every row goes back on
    the heap, the polls dispatch for real up to the predicted stop, and
    every register the bulk path would have written is compared (clock,
    seq, event count, idle streaks, core busy time, re-arm heap entries).
    """
    chains = rows[:]
    rows.clear()
    t0 = min(chains)[0]
    predicted = [list(chain) for chain in chains]
    p_total, p_last_t, p_seq = _advance(predicted, bound_t, bound_s, t_end, sim._seq)
    before = [
        (chain[3].busy_ns, chain[3]._idle_streak) for chain in chains
    ]
    # Each re-arm builds a fresh bound method, so identify chain entries
    # by the core they are bound to, never by callback object identity.
    core_index = {}
    for index, chain in enumerate(chains):
        core_index[id(chain[3])] = index
        _leave(chain, queue)

    fired = 0
    while queue and queue[0][0] <= t_end and fired <= p_total:
        ft, fs, fcb = queue[0]
        if not (
            fcb.__class__ is _MethodType
            and fcb.__func__ is _ITERATE
            and id(fcb.__self__) in core_index
        ):
            break
        if ft > bound_t or (ft == bound_t and fs > bound_s):
            break
        if ft >= chains[core_index[id(fcb.__self__)]][6]:
            break  # this poll reaches its no-op deadline: real work ahead
        heappop(queue)
        sim._now = ft
        fcb()
        sim.events_executed += 1
        fired += 1

    ok = (
        fired == p_total
        and sim._seq == p_seq
        and sim._now == p_last_t
    )
    if ok:
        rearms = {}
        for entry in queue:
            ecb = entry[2]
            if not (ecb.__class__ is _MethodType and ecb.__func__ is _ITERATE):
                continue
            index = core_index.get(id(ecb.__self__))
            if index is not None:
                rearms[index] = (entry[0], entry[1], rearms.get(index, (None, None, 0))[2] + 1)
        for index, chain in enumerate(chains):
            busy0, streak0 = before[index]
            pred = predicted[index]
            core = chain[3]
            rearm = rearms.get(index)
            if (
                core.busy_ns != busy0
                or core._idle_streak != streak0 + pred[5]
                or rearm is None
                or rearm[2] != 1
                or rearm[0] != pred[0]
                or rearm[1] != pred[1]
            ):
                ok = False
                break
    if ok:
        st.verified += 1
        st.reverify = False
        st.verify_ns += p_last_t - t0
    else:
        st.dead = True
        st.dead_reason = "verify-mismatch"
