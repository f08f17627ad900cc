"""Steady-state fast-forward: replay-based time warp for saturating runs.

Long measurement windows spend almost all wall-clock re-executing the
same poll/burst machinery: the generator's pacing chain, wire
serialisation, the PCIe push, and the switch's poll loop form a small,
closed set of event shapes whose future evolution is fully determined by
a handful of floats and counters.  :func:`try_warp` detects that regime,
*verifies* it by shadow-replaying the run's opening slice against real
dispatch, and then replays the rest of the run (warm-up and measurement
window alike) with specialised handlers that perform **the same
floating-point operations in the same order** as event-by-event
execution -- bypassing only the generic heap dispatch, closure
allocation, and layered call overhead.  Every counter,
timestamp accumulation, RNG draw, and pending-event seq is reconstructed
exactly; the result is bit-identical to the un-warped run.

Safety model
------------
* **Eligibility** is conservative: only the p2p unidirectional scenario
  on run-to-completion switches (BESS, FastClick, OvS-DPDK, VPP, t4p4s)
  engages.  Pipeline (Snabb) and interrupt-driven (VALE) switches, VM
  scenarios, probe/latency traffic, attached observers and fault plans
  all *decline* with a reason string and fall back to normal dispatch,
  untouched.  Which tiers run at all is
  :func:`repro.measure.runner.drive`'s decision: it runs none under the
  invariant watchdog.
* **Poll-synchronous jitter is replayed, not skipped**: the replay calls
  the real :class:`~repro.switches.jitter.CostJitter` (or a bit-exact
  clone during verification) at exactly the poll instants real dispatch
  would, so the RNG stream advances identically.
* **Two-pass verification**: before committing anything, the first slice
  of the run (cold-start paths such as OvS-DPDK's first-packet upcall
  included) is executed *both* ways -- real dispatch on the real
  testbed, replay on cloned state -- and every counter, float, ring
  entry, RNG state and pending event is compared bitwise.  On any
  mismatch the warp declines; the real run was only ever advanced by
  real dispatch, so nothing can be corrupted.

Sporadic driver drops follow each port's drop schedule (see
:mod:`repro.nic.port`): the replay mirrors the two integers of each
sending port's schedule, so a burst is clean iff
``offered + count <= next_drop``, and the few bursts holding a drop take
an exact per-frame loop that draws the next gap with the port's own
:func:`~repro.nic.port._drop_gap`.
"""

from __future__ import annotations

import copy
import math
import os
import types
from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.lattice import Lattice
from repro.core.packet import DEFAULT_DST_MAC, DEFAULT_SRC_MAC, Packet, PacketBlock
from repro.core.ring import Ring
from repro.core.units import wire_time_ns
from repro.cpu.cores import Core
from repro.nic.port import NicPort, _drop_gap
from repro.switches.base import PhyAttachment, SoftwareSwitch
from repro.traffic.generator import PacedSource

if TYPE_CHECKING:
    from repro.scenarios.base import Testbed

#: Fast-forward algorithm revision; part of the campaign cache
#: fingerprint so cached rows from different engine modes never mix.
#: 2: the replay hashes hiccups with the port's trial-salted name hash
#: (revision 1 replayed trial k > 0 with the unsalted one).
#: 3: verification starts at the run's first event and the replay covers
#: the warm-up, so short windows behind a long warm-up engage.
#: 4: driver drops follow each port's drop schedule, not a per-frame hash.
WARP_VERSION = 4

#: Smallest shadow-verification slice.  Must cover several jitter
#: resample periods so the RNG-clone replay is actually exercised.
MIN_VERIFY_NS = 250_000.0


def _env_switch(name: str, default: bool) -> bool:
    """An on/off environment switch: ``1/true/on/yes`` or ``0/false/off/no``
    (any case); unset or anything else gives ``default``."""
    value = os.environ.get(name, "").strip().lower()
    if value in ("0", "false", "off", "no"):
        return False
    if value in ("1", "true", "on", "yes"):
        return True
    return default


def warp_enabled(default: bool = True) -> bool:
    """Whether the environment enables the exact tiers (``REPRO_WARP``)."""
    return _env_switch("REPRO_WARP", default)


def engine_features() -> dict[str, Any]:
    """Engine feature flags that must invalidate cached campaign rows.

    The exact tiers (replay warp, chain turbo) are bit-identical to
    event-by-event execution, so they share one fingerprint.  Fluid mode
    approximates, so its participation -- and its tolerance -- become
    extra fingerprint keys, but only when enabled: rows cached before
    fluid mode existed stay valid for exact runs.
    """
    features: dict[str, Any] = {"warp": warp_enabled(), "warp_version": WARP_VERSION}
    from repro.core.fluid import FLUID_TOLERANCE, FLUID_VERSION, fluid_enabled

    if fluid_enabled():
        features["fluid"] = True
        features["fluid_version"] = FLUID_VERSION
        features["fluid_tolerance"] = FLUID_TOLERANCE
    return features


@dataclass
class WarpReport:
    """What a fast-forward tier did (or why it declined) for one run.

    Every tier returns one: ``mode`` names it, ``"replay"`` for the p2p
    steady-state mirror, ``"turbo"`` for the multi-hop chain turbo,
    ``"fluid"`` for the rate-based approximation tier.

    ``warped_ns`` is the simulated time the tier fast-forwarded and
    ``verify_ns`` the slice it dispatched for real to check itself.  The
    replay covers everything after its verify slice, warm-up included,
    so for it ``warped_ns`` is ``warmup + measure - verify_ns`` and can
    exceed the measurement window.  For fluid, ``warped_ns`` is the
    extrapolated rest of the window and ``verify_ns`` the calibration
    slice (also set when the slice's rate proves unstable).
    """

    engaged: bool
    reason: str = ""
    warped_ns: float = 0.0
    events_replayed: int = 0
    verify_ns: float = 0.0
    mode: str = "replay"

    def describe(self) -> str:
        if not self.engaged:
            return f"declined[{self.mode}]: {self.reason}"
        if self.mode == "fluid":
            return (
                f"engaged[fluid]: extrapolated {self.warped_ns / 1e6:.3f} ms from a "
                f"{self.verify_ns / 1e6:.3f} ms calibration slice"
            )
        return (
            f"engaged[{self.mode}]: replayed {self.events_replayed} events over "
            f"{self.warped_ns / 1e6:.3f} ms (verified {self.verify_ns / 1e3:.0f} us)"
        )


class _Decline(Exception):
    """Raised anywhere during engagement; aborts cleanly to real dispatch."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# -- pending-event recognition ---------------------------------------------
#
# The engine's heap stores raw callbacks.  The three in-flight closure
# shapes (wire arrival, PCIe push, switch deliver) are recognised by
# their code objects; warp-reconstructed closures (created by the makers
# below, with the same free-variable names) behave identically and are
# registered under the same kinds so a committed heap re-parses cleanly.

TICK, ARR0, PUSH, POLL, DLV, ARR1 = range(6)


def _cb_arrive(peer: NicPort, arrivals: list) -> Callable[[], None]:
    return lambda: peer._receive(arrivals)


def _cb_push(ring: Ring, packets: list) -> Callable[[], None]:
    return lambda: ring.push_batch(packets)


def _cb_deliver(port: NicPort, packets: list) -> Callable[[], None]:
    return lambda: port.send_batch(packets)


def _inner_lambda(func: Callable) -> types.CodeType:
    codes = [
        const
        for const in func.__code__.co_consts
        if isinstance(const, types.CodeType) and const.co_name == "<lambda>"
    ]
    if len(codes) != 1:  # pragma: no cover - structural invariant
        raise RuntimeError(f"expected exactly one lambda in {func!r}")
    return codes[0]


_ARRIVE_CODES = (_inner_lambda(NicPort.send_batch), _inner_lambda(_cb_arrive))
_PUSH_CODES = (_inner_lambda(NicPort._receive), _inner_lambda(_cb_push))
_DELIVER_CODES = (_inner_lambda(PhyAttachment.deliver), _inner_lambda(_cb_deliver))


def _closure_cells(cb: Callable) -> dict[str, Any]:
    return {
        name: cell.cell_contents
        for name, cell in zip(cb.__code__.co_freevars, cb.__closure__)
    }


# -- eligibility ------------------------------------------------------------


class _Ctx:
    """Resolved testbed objects + loop-invariant constants for one warp."""

    __slots__ = (
        "tb", "sim", "sw", "path", "core", "ring", "src", "meter",
        "gen0", "gen1", "sut0", "sut1",
        "frame_size", "flow_id", "burst", "gap",
        "wire0", "wire1", "maxb0", "maxb1", "prob0", "prob1",
        "key0", "key1", "pcie", "freq", "idle_loop_cycles",
        "batch_size", "batch_wait", "cap",
        "rx_cost", "tx_cost",
    )


def _eligibility(tb: "Testbed") -> _Ctx:
    """Resolve the p2p steady-state structure or raise :class:`_Decline`."""
    from repro.core.packet import blocks_enabled
    from repro.switches.bess import Bess
    from repro.switches.fastclick import FastClick
    from repro.switches.ovs_dpdk import OvsDpdk
    from repro.switches.t4p4s import T4P4S
    from repro.switches.vpp import Vpp
    from repro.traffic.moongen import MoonGenRx, MoonGenTx

    if tb.scenario != "p2p":
        raise _Decline(f"scenario:{tb.scenario}")
    population = tb.extras.get("flow_population")
    if population is not None:
        # Flow-diverse offered load drives stateful cache dynamics (EMC
        # thrash, eviction storms) the steady-state replay does not model.
        # Checked before the observability gates so --profile surfaces the
        # traffic-shape reason rather than its own tracing decline.
        raise _Decline("flow-churn" if population.churn_fps else "multi-flow-traffic")
    if tb.extras.get("flowstats") is not None:
        # Per-flow accounting reads every drop/send/forward event; the
        # replayed fast-path skips those call sites, so warping would
        # silently under-count the telemetry.
        raise _Decline("flow-telemetry")
    if tb.sim._observer is not None:
        raise _Decline("per-packet-tracing")
    if not blocks_enabled():
        raise _Decline("per-packet-emission")
    if tb.extras.get("fault_injector") is not None:
        raise _Decline("fault-plan-active")
    txs = tb.extras.get("tx")
    rxs = tb.extras.get("rx")
    if not txs or not rxs:
        raise _Decline("unrecognized-testbed")
    if len(txs) != 1 or len(rxs) != 1 or len(tb.meters) != 1:
        raise _Decline("bidirectional")

    sw = tb.switch
    params = sw.params
    if type(sw) not in (Bess, FastClick, OvsDpdk, Vpp, T4P4S):
        if params.pipeline:
            raise _Decline("pipeline-switch")
        if params.interrupt_driven:
            raise _Decline("interrupt-driven")
        raise _Decline(f"unsupported-switch:{params.name}")
    if params.pipeline or sw._stalls is not None:
        raise _Decline("pipeline-switch")
    if params.interrupt_driven:
        raise _Decline("interrupt-driven")
    if sw.obs is not None:
        raise _Decline("per-packet-tracing")
    if sw.flowstats is not None:
        # Belt-and-braces for a switch wired directly (wire_flowstats
        # normally also registers the session in tb.extras).
        raise _Decline("flow-telemetry")
    if sw._overload_factor() != 1.0:
        raise _Decline("overloaded-switch")
    if type(sw) is OvsDpdk and len(sw.flow_table):
        raise _Decline("openflow-rules")
    if len(sw.paths) != 1:
        raise _Decline("bidirectional")
    path = sw.paths[0]
    if type(path.input) is not PhyAttachment or type(path.output) is not PhyAttachment:
        raise _Decline("vif-path")
    if path.bidir_vif:
        raise _Decline("bidirectional")

    src = txs[0]
    rx = rxs[0]
    if type(src) is not MoonGenTx or type(rx) is not MoonGenRx:
        raise _Decline("unrecognized-generator")
    if src.probe_interval_ns is not None:
        raise _Decline("probes-active")
    population = getattr(src, "flow_population", None)
    if population is not None:
        # Belt-and-braces for a source handed a population directly,
        # without apply_flow_axis registering it in tb.extras.
        raise _Decline("flow-churn" if population.churn_fps else "multi-flow-traffic")
    if not src._uniform:
        raise _Decline("non-uniform-traffic")
    if src._halted or src._stop_at is not None:
        raise _Decline("source-halted")
    if src.frame_size != tb.frame_size:
        raise _Decline("non-uniform-traffic")

    sut0 = path.input.port
    sut1 = path.output.port
    gen0 = sut0.peer
    gen1 = sut1.peer
    if gen0 is None or gen1 is None or src.port is not gen0:
        raise _Decline("unrecognized-testbed")
    if rx.port is not gen1 or gen1.sink != rx._on_packets:
        raise _Decline("unrecognized-testbed")
    if rx.meter is not tb.meters[0]:
        raise _Decline("unrecognized-testbed")
    for port in (gen0, gen1, sut0, sut1):
        if "send_batch" in port.__dict__:
            raise _Decline("link-down")
        if port._pcie_stall_base is not None:
            raise _Decline("fault-plan-active")
        if port.rx_moderation_ns is not None:
            raise _Decline("rx-moderation")
    if gen0.sink is not None or sut0.sink is not None or sut1.sink is not None:
        raise _Decline("unrecognized-testbed")
    ring = sut0.rx_ring
    if type(ring) is not Ring or type(sut1.rx_ring) is not Ring:
        raise _Decline("ring-faulted")
    if ring.on_push is not None:
        raise _Decline("ring-faulted")

    core = tb.sut_core
    if sw.core is not core or core.tasks != [sw]:
        raise _Decline("unrecognized-testbed")
    if core.obs is not None:
        raise _Decline("per-packet-tracing")
    if core._sleeping or core._park_rings is not None or not core._started:
        raise _Decline("core-state")

    ctx = _Ctx()
    ctx.tb = tb
    ctx.sim = tb.sim
    ctx.sw = sw
    ctx.path = path
    ctx.core = core
    ctx.ring = ring
    ctx.src = src
    ctx.meter = rx.meter
    ctx.gen0, ctx.gen1, ctx.sut0, ctx.sut1 = gen0, gen1, sut0, sut1
    ctx.frame_size = tb.frame_size
    ctx.flow_id = src.flow_id
    ctx.burst = src.burst
    ctx.gap = src.burst * 1e9 / src.rate_pps
    ctx.wire0 = wire_time_ns(ctx.frame_size, gen0.rate_bps)
    ctx.wire1 = wire_time_ns(ctx.frame_size, sut1.rate_bps)
    ctx.maxb0 = gen0.tx_slots * ctx.wire0
    ctx.maxb1 = sut1.tx_slots * ctx.wire1
    ctx.prob0 = gen0.driver_drop_prob
    ctx.prob1 = sut1.driver_drop_prob
    ctx.key0 = gen0._drop_key
    ctx.key1 = sut1._drop_key
    ctx.pcie = sut0.pcie_latency_ns
    ctx.freq = core.freq_hz
    ctx.idle_loop_cycles = core.idle_loop_cycles
    ctx.batch_size = params.batch_size
    ctx.batch_wait = params.batch_wait_ns
    ctx.cap = ring.capacity
    ctx.rx_cost = path.input.rx_cost(params)
    ctx.tx_cost = path.output.tx_cost(params)
    return ctx


# -- snapshot ---------------------------------------------------------------


class _Snap:
    """Light mirror of every piece of state the replay evolves."""

    __slots__ = (
        "now", "seq", "events", "pkt_seq",
        "busy0", "txp0", "txb0", "txd0", "dd0", "off0", "nd0", "rx_sut0",
        "busy1", "txp1", "txb1", "txd1", "dd1", "off1", "nd1", "rx_gen1",
        "ringq", "frames", "enq", "drop",
        "busy_ns", "idle_streak", "idle_cc", "idle_cd",
        "forwarded", "total_fwd", "wait_started",
        "m_pkts", "m_bytes", "m_warm", "packets_sent",
        "heap",
    )


def _mirror_block(ctx: _Ctx, item: Any, hops: int) -> PacketBlock:
    if item.__class__ is not PacketBlock:
        raise _Decline("probes-active")
    if item.flows is not None:
        raise _Decline("multi-flow-traffic")
    if item.size != ctx.frame_size or item.flow_id != ctx.flow_id:
        raise _Decline("non-uniform-traffic")
    if item.hops != hops:
        raise _Decline("unrecognized-event")
    return PacketBlock(
        item.size, item.flow_id, item.src_mac, item.dst_mac,
        item.t_created, item.count, item.hops, item.seq0,
    )


def _snapshot(ctx: _Ctx) -> _Snap:
    """Parse the live heap + counters into a replayable mirror."""
    import repro.core.packet as packet_mod

    sim = ctx.sim
    st = _Snap()
    st.now = sim._now
    st.seq = sim._seq
    st.events = sim.events_executed
    st.pkt_seq = packet_mod._next_seq
    gen0, gen1, sut0, sut1 = ctx.gen0, ctx.gen1, ctx.sut0, ctx.sut1
    st.busy0 = gen0._tx_busy_until_ns
    st.txp0, st.txb0 = gen0.tx_packets, gen0.tx_bytes
    st.txd0, st.dd0 = gen0.tx_dropped, gen0.driver_drops
    st.off0, st.nd0 = gen0._offered, gen0._next_drop
    st.rx_sut0 = sut0.rx_packets
    st.busy1 = sut1._tx_busy_until_ns
    st.txp1, st.txb1 = sut1.tx_packets, sut1.tx_bytes
    st.txd1, st.dd1 = sut1.tx_dropped, sut1.driver_drops
    st.off1, st.nd1 = sut1._offered, sut1._next_drop
    st.rx_gen1 = gen1.rx_packets
    ring = ctx.ring
    st.ringq = deque(_mirror_block(ctx, b, 0) for b in ring._queue)
    st.frames = ring._frames
    st.enq = ring.enqueued
    st.drop = ring.dropped
    core = ctx.core
    st.busy_ns = core.busy_ns
    st.idle_streak = core._idle_streak
    st.idle_cc, st.idle_cd = core._idle_cache
    st.forwarded = ctx.path.forwarded
    st.total_fwd = ctx.sw.total_forwarded
    st.wait_started = ctx.path.wait_started_ns
    meter = ctx.meter
    st.m_pkts, st.m_bytes, st.m_warm = meter.packets, meter.bytes, meter.warmup_packets
    st.packets_sent = ctx.src.packets_sent

    heap: list = []
    ticks = polls = 0
    for time, seq, cb in sim._queue:
        func = getattr(cb, "__func__", None)
        if func is not None:
            owner = cb.__self__
            if func is PacedSource._tick and owner is ctx.src:
                heap.append((time, seq, TICK, None))
                ticks += 1
                continue
            if func is Core._iterate and owner is core:
                heap.append((time, seq, POLL, None))
                polls += 1
                continue
            raise _Decline("unrecognized-event")
        code = getattr(cb, "__code__", None)
        if code in _ARRIVE_CODES:
            cells = _closure_cells(cb)
            peer, arrivals = cells["peer"], cells["arrivals"]
            if peer is sut0:
                heap.append(
                    (time, seq, ARR0,
                     [(_mirror_block(ctx, b, 0), busy) for b, busy in arrivals])
                )
            elif peer is gen1:
                heap.append(
                    (time, seq, ARR1,
                     [(_mirror_block(ctx, b, 1), busy) for b, busy in arrivals])
                )
            else:
                raise _Decline("unrecognized-event")
            continue
        if code in _PUSH_CODES:
            cells = _closure_cells(cb)
            if cells["ring"] is not ring:
                raise _Decline("unrecognized-event")
            heap.append(
                (time, seq, PUSH, [_mirror_block(ctx, b, 0) for b in cells["packets"]])
            )
            continue
        if code in _DELIVER_CODES:
            cells = _closure_cells(cb)
            if cells["port"] is not sut1:
                raise _Decline("unrecognized-event")
            heap.append(
                (time, seq, DLV, [_mirror_block(ctx, b, 1) for b in cells["packets"]])
            )
            continue
        raise _Decline("unrecognized-event")
    if ticks != 1 or polls != 1:
        raise _Decline("unrecognized-event")
    heap.sort(key=lambda entry: (entry[0], entry[1]))
    st.heap = heap
    return st


# -- switch backends --------------------------------------------------------


def _clone_generator(rng: np.random.Generator) -> np.random.Generator:
    bit_gen = type(rng.bit_generator)()
    bit_gen.state = rng.bit_generator.state
    return np.random.Generator(bit_gen)


class _JitterMirror:
    """Bit-exact clone of :class:`CostJitter` over a cloned RNG stream."""

    __slots__ = ("sigma", "period_ns", "mult", "next_resample", "rng")

    def __init__(self, jitter) -> None:
        self.sigma = jitter.sigma
        self.period_ns = jitter.period_ns
        self.mult = jitter._multiplier
        self.next_resample = jitter._next_resample_ns
        self.rng = _clone_generator(jitter._rng)

    def multiplier(self, now_ns: float) -> float:
        if self.sigma == 0.0:
            return 1.0
        if now_ns >= self.next_resample:
            mu = 0.5 * self.sigma * self.sigma
            self.mult = float(math.exp(self.rng.normal(mu, self.sigma)))
            self.next_resample = now_ns + self.period_ns
        return self.mult


def _clone_switch(sw: SoftwareSwitch) -> SoftwareSwitch:
    """Shallow clone whose hook-mutable state is copied, everything else
    shared (paths are shared on purpose: BESS keys pipelines by path id)."""
    from repro.switches.bess import Bess
    from repro.switches.ovs_dpdk import OvsDpdk
    from repro.switches.t4p4s import T4P4S
    from repro.switches.vpp import NodeRuntime, Vpp

    clone = copy.copy(sw)
    if type(sw) is OvsDpdk:
        clone._emc = OrderedDict(sw._emc)
        clone._megaflows = set(sw._megaflows)
        clone.megaflow_entries = list(sw.megaflow_entries)
    elif type(sw) is Vpp:
        clone.node_runtime = {
            name: NodeRuntime(calls=rt.calls, vectors=rt.vectors)
            for name, rt in sw.node_runtime.items()
        }
    elif type(sw) is Bess:
        clone.module_counters = dict(sw.module_counters)
    elif type(sw) is T4P4S:
        clone.stage_cycles = dict(sw.stage_cycles)
        clone.table = copy.copy(sw.table)
    return clone


class _Backend:
    """Switch-hook + jitter delegation target for one replay pass."""

    __slots__ = ("sw", "path", "jitter")

    def __init__(self, sw: SoftwareSwitch, path, jitter) -> None:
        self.sw = sw
        self.path = path
        self.jitter = jitter


def _real_backend(ctx: _Ctx) -> _Backend:
    return _Backend(ctx.sw, ctx.path, ctx.path.jitter)


def _clone_backend(ctx: _Ctx) -> _Backend:
    return _Backend(_clone_switch(ctx.sw), ctx.path, _JitterMirror(ctx.path.jitter))


# -- the replay loop --------------------------------------------------------


def _send_frames(
    count: int, busy: float, t: float, wire: float, maxb: float,
    off: int, nd: float, dd: int, txd: int, key: int, prob: float,
) -> tuple:
    """``NicPort.send_batch``'s per-frame loop over one block, on mirrored
    port registers: returns ``(accepted, busy, off, nd, dd, txd)``."""
    accepted = 0
    i = 0
    while i < count:
        if off == nd:
            dd += 1
            nd = off + _drop_gap(key, dd, prob)
        elif busy - t > maxb:
            if off + (count - i) <= nd:
                # busy no longer advances and no drop is due: the backlog
                # refuses the whole tail.
                txd += count - i
                off += count - i
                break
            txd += 1
        else:
            busy = busy + wire
            accepted += 1
        off += 1
        i += 1
    return accepted, busy, off, nd, dd, txd


def _replay(ctx: _Ctx, st: _Snap, backend: _Backend, t_end: float) -> int:
    """Evolve the mirror through every event with ``time <= t_end``.

    Performs the identical float operations in the identical order as
    real dispatch, or their closed form on a lattice of
    :mod:`repro.core.lattice` (the ports' busy clocks, the idle grid),
    bit-identical; returns the number of events replayed.
    """
    heap = st.heap
    # Loop-invariant locals (hot path).
    fs = ctx.frame_size
    flow = ctx.flow_id
    burst = ctx.burst
    gap = ctx.gap
    wire0, wire1 = ctx.wire0, ctx.wire1
    maxb0, maxb1 = ctx.maxb0, ctx.maxb1
    pcie = ctx.pcie
    freq = ctx.freq
    idle_loop_cycles = ctx.idle_loop_cycles
    batch_size = ctx.batch_size
    batch_wait = ctx.batch_wait
    cap = ctx.cap
    rx_cost, tx_cost = ctx.rx_cost, ctx.tx_cost
    rx_pb, rx_pp, rx_pby = rx_cost.per_batch, rx_cost.per_packet, rx_cost.per_byte
    tx_pb, tx_pp, tx_pby = tx_cost.per_batch, tx_cost.per_packet, tx_cost.per_byte
    key0, key1 = ctx.key0, ctx.key1
    prob0, prob1 = ctx.prob0, ctx.prob1
    sw_proc = backend.sw._proc_cycles
    sw_forward = backend.sw._on_forward
    path = backend.path
    jit_mult = backend.jitter.multiplier
    cost_cache: dict[int, tuple[float, float]] = {}
    block_cls = PacketBlock
    pop = heappop
    push = heappush
    lattice0, lattice1, idle_lattice = Lattice(), Lattice(), Lattice()

    # Mirror registers.
    now = st.now
    seq = st.seq
    events0 = st.events
    events = events0
    pkt_seq = st.pkt_seq
    busy0, busy1 = st.busy0, st.busy1
    txp0, txb0, txd0, dd0 = st.txp0, st.txb0, st.txd0, st.dd0
    txp1, txb1, txd1, dd1 = st.txp1, st.txb1, st.txd1, st.dd1
    off0, nd0, off1, nd1 = st.off0, st.nd0, st.off1, st.nd1
    rx_sut0, rx_gen1 = st.rx_sut0, st.rx_gen1
    ringq = st.ringq
    ring_frames, enq, drop = st.frames, st.enq, st.drop
    busy_ns, idle_streak = st.busy_ns, st.idle_streak
    idle_cc, idle_cd = st.idle_cc, st.idle_cd
    forwarded, total_fwd = st.forwarded, st.total_fwd
    wait_started = st.wait_started
    m_pkts, m_bytes, m_warm = st.m_pkts, st.m_bytes, st.m_warm
    packets_sent = st.packets_sent
    meter = ctx.meter
    win_start = meter.window_start_ns
    win_end = meter.window_end_ns

    while heap and heap[0][0] <= t_end:
        entry = pop(heap)
        t = entry[0]
        kind = entry[2]
        events += 1
        now = t
        if kind == POLL:
            # Core._iterate -> switch poll -> _take_batch, mirrored.
            serve = False
            if ring_frames == 0:
                wait_started = None
            elif batch_wait is not None and ring_frames < batch_size:
                if wait_started is None:
                    wait_started = t
                elif t - wait_started >= batch_wait:
                    wait_started = None
                    serve = True
            else:
                wait_started = None
                serve = True
            if not serve:
                # Idle (or batch-wait) poll: zero cycles reported.
                idle_streak += 1
                if idle_cc != idle_loop_cycles:
                    idle_cc = idle_loop_cycles
                    idle_cd = idle_cc * 1e9 / freq
                if ring_frames == 0 and heap:
                    # Bulk-advance the idle grid to the next pending event:
                    # the polls the exact repeated float addition of real
                    # re-arms reaches below it, counted on the idle
                    # lattice.  Stops before any tie so heap ordering
                    # decides, exactly as dispatch would.
                    bound = heap[0][0]
                    d = idle_cd
                    tn = t + d
                    rearm_seq = seq
                    seq += 1
                    if (
                        d == idle_lattice.d and idle_lattice.lo <= tn
                        and bound < idle_lattice.hi and bound <= t_end
                    ):
                        idle = -((tn - bound) // idle_lattice.step)
                        if idle > 0:
                            idle = int(idle)
                            last = tn + (idle - 1) * idle_lattice.step
                            tn = last + d
                    else:
                        idle, last, tn = idle_lattice.polls(tn, d, bound, t_end)
                    if idle > 0:
                        events += idle
                        idle_streak += idle
                        now = last
                        rearm_seq = seq + idle - 1
                        seq += idle
                    push(heap, (tn, rearm_seq, POLL, None))
                else:
                    push(heap, (t + idle_cd, seq, POLL, None))
                    seq += 1
                continue
            # Ring.pop_batch(batch_size), mirrored (FIFO + boundary split).
            out = []
            remaining = batch_size
            popped = 0
            while ringq and remaining > 0:
                head = ringq[0]
                c = head.count
                if c <= remaining:
                    out.append(ringq.popleft())
                    remaining -= c
                    popped += c
                else:
                    front = block_cls(
                        head.size, head.flow_id, head.src_mac, head.dst_mac,
                        head.t_created, remaining, head.hops, head.seq0,
                    )
                    head.count = c - remaining
                    head.seq0 += remaining
                    out.append(front)
                    popped += remaining
                    remaining = 0
            ring_frames -= popped
            n = popped
            nb = n * fs
            costs = cost_cache.get(n)
            if costs is None:
                rx_c = rx_pb + rx_pp * n + rx_pby * nb
                tx_c = tx_pb + tx_pp * n + tx_pby * nb
                costs = (rx_c, tx_c)
                cost_cache[n] = costs
            rx_c, tx_c = costs
            proc_c = sw_proc(out, path, n, nb)
            raw = rx_c + proc_c + tx_c
            cycles = raw * jit_mult(t)
            delay_ns = cycles * 1e9 / freq
            for b in out:
                b.hops += 1
            sw_forward(out, path)
            push(heap, (t + delay_ns, seq, DLV, out))
            seq += 1
            forwarded += n
            total_fwd += n
            # _iterate busy branch + inlined re-arm.
            idle_streak = 0
            busy_ns += delay_ns
            push(heap, (t + delay_ns, seq, POLL, None))
            seq += 1
        elif kind == TICK:
            # PacedSource._tick -> PacketBlock -> gen0.send_batch.
            blk_seq0 = pkt_seq
            pkt_seq += burst
            busy = t if t >= busy0 else busy0
            if off0 + burst <= nd0 and (busy - t) + burst * wire0 <= maxb0:
                end = busy + burst * lattice0.step
                if lattice0.lo <= busy and end < lattice0.hi:
                    busy = end
                else:
                    busy = lattice0.add(busy, wire0, burst)
                off0 += burst
                accepted = burst
            else:
                accepted, busy, off0, nd0, dd0, txd0 = _send_frames(
                    burst, busy, t, wire0, maxb0, off0, nd0, dd0, txd0, key0, prob0
                )
            if accepted:
                block = block_cls(
                    fs, flow, DEFAULT_SRC_MAC, DEFAULT_DST_MAC, t, accepted, 0, blk_seq0
                )
                push(heap, (busy, seq, ARR0, [(block, busy)]))
                seq += 1
                txp0 += accepted
                txb0 += fs * accepted
            busy0 = busy
            packets_sent += burst
            push(heap, (t + gap, seq, TICK, None))
            seq += 1
        elif kind == ARR0:
            # sut0._receive: count frames, DMA into the rx ring after PCIe.
            payload = entry[3]
            frames = 0
            blocks = []
            for b, _busy in payload:
                blocks.append(b)
                frames += b.count
            rx_sut0 += frames
            push(heap, (t + pcie, seq, PUSH, blocks))
            seq += 1
        elif kind == PUSH:
            # Ring.push_batch, mirrored (truncate-on-full semantics).
            for b in entry[3]:
                c = b.count
                free = cap - ring_frames
                if free <= 0:
                    drop += c
                    continue
                if c > free:
                    drop += c - free
                    b.count = free
                    c = free
                ringq.append(b)
                ring_frames += c
                enq += c
        elif kind == DLV:
            # sut1.send_batch: serialise the forwarded batch onto the wire.
            batch = entry[3]
            busy = t if t >= busy1 else busy1
            sent_f = 0
            arrivals = []
            for b in batch:
                c = b.count
                if off1 + c <= nd1 and (busy - t) + c * wire1 <= maxb1:
                    end = busy + c * lattice1.step
                    if lattice1.lo <= busy and end < lattice1.hi:
                        busy = end
                    else:
                        busy = lattice1.add(busy, wire1, c)
                    off1 += c
                    accepted = c
                else:
                    accepted, busy, off1, nd1, dd1, txd1 = _send_frames(
                        c, busy, t, wire1, maxb1, off1, nd1, dd1, txd1, key1, prob1
                    )
                if accepted:
                    if accepted != c:
                        b.count = accepted
                    arrivals.append((b, busy))
                    sent_f += accepted
            busy1 = busy
            if arrivals:
                txp1 += sent_f
                txb1 += fs * sent_f
                push(heap, (arrivals[-1][1], seq, ARR1, arrivals))
                seq += 1
        else:
            # ARR1: wire arrival at the MoonGen monitor; sink counts frames.
            in_window = (
                win_start is not None
                and t >= win_start
                and (win_end is None or t <= win_end)
            )
            for b, _busy in entry[3]:
                c = b.count
                rx_gen1 += c
                if in_window:
                    m_pkts += c
                    m_bytes += fs * c
                else:
                    m_warm += c

    # Write the registers back.
    st.now = now
    st.seq = seq
    st.events = events
    st.pkt_seq = pkt_seq
    st.busy0, st.busy1 = busy0, busy1
    st.txp0, st.txb0, st.txd0, st.dd0 = txp0, txb0, txd0, dd0
    st.txp1, st.txb1, st.txd1, st.dd1 = txp1, txb1, txd1, dd1
    st.off0, st.nd0, st.off1, st.nd1 = off0, nd0, off1, nd1
    st.rx_sut0, st.rx_gen1 = rx_sut0, rx_gen1
    st.frames, st.enq, st.drop = ring_frames, enq, drop
    st.busy_ns, st.idle_streak = busy_ns, idle_streak
    st.idle_cc, st.idle_cd = idle_cc, idle_cd
    st.forwarded, st.total_fwd = forwarded, total_fwd
    st.wait_started = wait_started
    st.m_pkts, st.m_bytes, st.m_warm = m_pkts, m_bytes, m_warm
    st.packets_sent = packets_sent
    return events - events0


# -- verification -----------------------------------------------------------


def _canon_blocks(blocks) -> tuple:
    return tuple(
        (b.size, b.flow_id, b.src_mac, b.dst_mac,
         repr(b.t_created), b.count, b.hops, b.seq0)
        for b in blocks
    )


def _switch_view(sw: SoftwareSwitch, jitter) -> tuple:
    """Canonical view of hook-mutable switch state + jitter/RNG state."""
    from repro.switches.bess import Bess
    from repro.switches.ovs_dpdk import OvsDpdk
    from repro.switches.t4p4s import T4P4S
    from repro.switches.vpp import Vpp

    if isinstance(jitter, _JitterMirror):
        mult, next_rs, rng = jitter.mult, jitter.next_resample, jitter.rng
    else:
        mult, next_rs, rng = jitter._multiplier, jitter._next_resample_ns, jitter._rng
    jit_view = (repr(mult), repr(next_rs), repr(rng.bit_generator.state))
    if type(sw) is OvsDpdk:
        detail = (
            sw.emc_hits, sw.emc_misses, sw.upcalls,
            tuple(sw._emc.items()), tuple(sorted(sw._megaflows)),
            len(sw.megaflow_entries),
        )
    elif type(sw) is Vpp:
        detail = tuple((k, rt.calls, rt.vectors) for k, rt in sw.node_runtime.items())
    elif type(sw) is Bess:
        detail = tuple(sw.module_counters.items())
    elif type(sw) is T4P4S:
        detail = (
            tuple((k, repr(v)) for k, v in sw.stage_cycles.items()),
            sw.table.hits, sw.table.misses,
        )
    else:
        detail = ()
    return (jit_view, detail)


def _canon_heap(heap_entries) -> tuple:
    out = []
    for time, seq, kind, payload in heap_entries:
        if kind in (ARR0, ARR1):
            body = tuple((_canon_blocks([b])[0], repr(busy)) for b, busy in payload)
        elif kind in (PUSH, DLV):
            body = _canon_blocks(payload)
        else:
            body = ()
        out.append((repr(time), seq, kind, body))
    out.sort()
    return tuple(out)


def _state_view(st: _Snap, sw: SoftwareSwitch, jitter) -> tuple:
    return (
        repr(st.now), st.seq, st.events, st.pkt_seq,
        (repr(st.busy0), st.txp0, st.txb0, st.txd0, st.dd0, st.off0, st.nd0, st.rx_sut0),
        (repr(st.busy1), st.txp1, st.txb1, st.txd1, st.dd1, st.off1, st.nd1, st.rx_gen1),
        (_canon_blocks(st.ringq), st.frames, st.enq, st.drop),
        (repr(st.busy_ns), st.idle_streak, st.idle_cc, repr(st.idle_cd)),
        (st.forwarded, st.total_fwd, repr(st.wait_started)),
        (st.m_pkts, st.m_bytes, st.m_warm),
        st.packets_sent,
        _switch_view(sw, jitter),
        _canon_heap(st.heap),
    )


# -- commit -----------------------------------------------------------------


def _commit(ctx: _Ctx, st: _Snap) -> None:
    """Write the replayed mirror back into the live testbed."""
    import repro.core.packet as packet_mod

    entries = []
    for time, seq, kind, payload in st.heap:
        if kind == TICK:
            cb = ctx.src._tick
        elif kind == POLL:
            cb = ctx.core._iterate
        elif kind == ARR0:
            cb = _cb_arrive(ctx.sut0, payload)
        elif kind == ARR1:
            cb = _cb_arrive(ctx.gen1, payload)
        elif kind == PUSH:
            cb = _cb_push(ctx.ring, payload)
        else:
            cb = _cb_deliver(ctx.sut1, payload)
        entries.append((time, seq, cb))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    ctx.sim.replace_pending(entries, now=st.now, seq=st.seq, events=st.events)

    gen0, gen1, sut0, sut1 = ctx.gen0, ctx.gen1, ctx.sut0, ctx.sut1
    gen0._tx_busy_until_ns = st.busy0
    gen0.tx_packets, gen0.tx_bytes = st.txp0, st.txb0
    gen0.tx_dropped, gen0.driver_drops = st.txd0, st.dd0
    gen0._offered, gen0._next_drop = st.off0, st.nd0
    sut0.rx_packets = st.rx_sut0
    sut1._tx_busy_until_ns = st.busy1
    sut1.tx_packets, sut1.tx_bytes = st.txp1, st.txb1
    sut1.tx_dropped, sut1.driver_drops = st.txd1, st.dd1
    sut1._offered, sut1._next_drop = st.off1, st.nd1
    gen1.rx_packets = st.rx_gen1

    ring = ctx.ring
    ring._queue.clear()
    ring._queue.extend(st.ringq)
    ring._frames = st.frames
    ring.enqueued = st.enq
    ring.dropped = st.drop

    core = ctx.core
    core.busy_ns = st.busy_ns
    core._idle_streak = st.idle_streak
    core._idle_cache = (st.idle_cc, st.idle_cd)

    ctx.path.forwarded = st.forwarded
    ctx.sw.total_forwarded = st.total_fwd
    ctx.path.wait_started_ns = st.wait_started
    ctx.src.packets_sent = st.packets_sent
    ctx.meter.set_counts(st.m_pkts, st.m_bytes, st.m_warm)
    packet_mod._next_seq = st.pkt_seq


# -- entry point ------------------------------------------------------------


def try_warp(tb: "Testbed", t_close: float) -> WarpReport:
    """Attempt to fast-forward ``tb`` from where its simulator stands to
    ``t_close``.

    Called by :func:`repro.measure.runner.drive` on a fresh testbed,
    before its final ``run_until(t_close)``.  The first ``verify_ns`` are
    dispatched for real and checked against a shadow replay; the rest,
    warm-up and measurement window alike, is replayed (the replay applies
    the meter's own window test to every arrival).  On engagement the
    simulator is left at the exact state event-by-event execution would
    have produced after the last event at or before ``t_close`` (the
    caller's ``run_until`` then just advances the clock).  On decline the
    simulator has only been advanced by real dispatch (possibly not at
    all) and the caller's ``run_until`` finishes the run normally.
    """
    try:
        ctx = _eligibility(tb)
    except _Decline as decline:
        return WarpReport(engaged=False, reason=decline.reason)

    sim = tb.sim
    verify_ns = max(MIN_VERIFY_NS, 2.5 * tb.switch.params.jitter_period_ns)
    t_verify = sim.now + verify_ns
    if t_close - t_verify < verify_ns:
        return WarpReport(engaged=False, reason="span-too-short")

    try:
        st0 = _snapshot(ctx)
        shadow = _clone_backend(ctx)
        _replay(ctx, st0, shadow, t_verify)
    except _Decline as decline:
        return WarpReport(engaged=False, reason=decline.reason)
    # run_until clamps the clock to its horizon; mirror that before diffing.
    if st0.now < t_verify:
        st0.now = t_verify
    predicted = _state_view(st0, shadow.sw, shadow.jitter)

    sim.run_until(t_verify)
    try:
        st1 = _snapshot(ctx)  # re-parses the live heap
    except _Decline as decline:
        return WarpReport(engaged=False, reason=decline.reason)
    if _state_view(st1, ctx.sw, ctx.path.jitter) != predicted:
        return WarpReport(engaged=False, reason="verify-mismatch", verify_ns=verify_ns)

    replayed = _replay(ctx, st1, _real_backend(ctx), t_close)
    _commit(ctx, st1)
    return WarpReport(
        engaged=True,
        warped_ns=t_close - t_verify,
        events_replayed=replayed,
        verify_ns=verify_ns,
    )


# -- generic state fingerprint (property tests) ------------------------------


def state_fingerprint(tb: "Testbed") -> tuple:
    """Deep canonical fingerprint of a driven testbed's observable state.

    Covers everything a measurement can observe: engine clock/seq/event
    counters, per-port counters and wire backlog, ring contents and
    accounting, core accounting, source/meter counters, switch-specific
    hook state, jitter RNG streams and the pending events.  Floats are
    rendered via ``repr`` so comparison is bitwise.  The property tests
    use it to assert that warp-on and warp-off runs are indistinguishable.
    """

    def canon(value, depth=0):
        if depth > 6:
            return "<deep>"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (int, str, bool, type(None))):
            return value
        if isinstance(value, np.random.Generator):
            return repr(value.bit_generator.state)
        if isinstance(value, PacketBlock):
            return ("block",) + _canon_blocks([value])
        if isinstance(value, Packet):
            return (
                "packet", value.size, value.flow_id, value.src_mac,
                value.dst_mac, repr(value.t_created), value.is_probe, value.seq,
                repr(value.tx_timestamp), repr(value.rx_timestamp), value.hops,
            )
        if isinstance(value, (Ring, NicPort)):
            return (type(value).__name__, value.name)
        if isinstance(value, (list, tuple, deque)):
            return tuple(canon(v, depth + 1) for v in value)
        if isinstance(value, set):
            return tuple(sorted(canon(v, depth + 1) for v in value))
        if isinstance(value, dict):
            return tuple(
                (canon(k, depth + 1), canon(v, depth + 1))
                for k, v in value.items()
            )
        # Any other object (VPP's node runtimes, t4p4s's P4 table,
        # OvS-DPDK's OpenFlow table...): its type and scalar counters.
        return (f"<{type(value).__name__}>",) + tuple(
            (name, repr(v) if isinstance(v, float) else v)
            for name, v in sorted(getattr(value, "__dict__", {}).items())
            if isinstance(v, (int, float, str, type(None)))
        )

    def ring_view(ring) -> tuple:
        return (
            ring.name, ring._frames, ring.enqueued, ring.dropped,
            tuple(canon(b, 1) for b in ring._queue),
        )

    def port_view(port: NicPort) -> tuple:
        return (
            port.name, port.tx_packets, port.tx_bytes, port.tx_dropped,
            port.driver_drops, port._offered, port._next_drop, port.rx_packets,
            repr(port._tx_busy_until_ns),
            ring_view(port.rx_ring),
        )

    def meter_view(meter) -> tuple:
        return (
            meter.packets, meter.bytes, meter.warmup_packets,
            tuple(repr(s) for s in meter.latency.samples_ns),
        )

    def vif_view(vif) -> tuple:
        return (vif.name, ring_view(vif.to_guest), ring_view(vif.to_host))

    def app_view(task) -> tuple:
        # Guest apps share a small mutable surface: forwarded counters,
        # buffered tx frames and the drain-timer origin.  Unknown task
        # types degrade to their counter-ish public attributes.
        view = [type(task).__name__]
        for attr in ("forwarded", "_tx_frames"):
            if hasattr(task, attr):
                view.append((attr, getattr(task, attr)))
        if hasattr(task, "_last_flush_ns"):
            view.append(("_last_flush_ns", repr(task._last_flush_ns)))
        buf = getattr(task, "_tx_buffer", None)
        if buf is not None:
            view.append(("_tx_buffer", tuple(canon(b, 1) for b in buf)))
        for attr in ("gen_to_bridge", "bridge_to_monitor"):
            ring = getattr(task, attr, None)
            if ring is not None:
                view.append((attr, ring_view(ring)))
        return tuple(view)

    def event_view(time, seq, cb) -> tuple:
        # Bound methods by name and owner; the in-flight closures by the
        # kind their code stands for (the replay rebuilds them from other
        # code), everything else by its qualified name; payloads are the
        # closure's cells.
        code = getattr(cb, "__code__", None)
        if isinstance(cb, types.MethodType):
            kind = (cb.__func__.__qualname__, getattr(cb.__self__, "name", None))
        elif code in _ARRIVE_CODES:
            kind = "arrive"
        elif code in _PUSH_CODES:
            kind = "push"
        elif code in _DELIVER_CODES:
            kind = "deliver"
        else:
            kind = getattr(cb, "__qualname__", type(cb).__name__)
        cells = getattr(cb, "__closure__", None) or ()
        payload = tuple(sorted(
            (name, canon(cell.cell_contents, 1))
            for name, cell in zip(code.co_freevars, cells)
        )) if cells else ()
        return (repr(time), seq, kind, payload)

    sw = tb.switch
    sim = tb.sim
    ports = []
    for attachment in sw.attachments:
        if isinstance(attachment, PhyAttachment):
            ports.append(port_view(attachment.port))
            if attachment.port.peer is not None:
                ports.append(port_view(attachment.port.peer))
    vif_views = []
    core_views = []
    app_views = []
    for vm in tb.vms:
        for vif in vm.interfaces:
            vif_views.append(vif_view(vif))
        for core in vm.cores:
            core_views.append(
                (core.name, repr(core.busy_ns), core._idle_streak)
            )
            for task in core.tasks:
                app_views.append(app_view(task))
    path_views = tuple(
        (
            path.forwarded, repr(path.wait_started_ns),
            repr(path.jitter._multiplier), repr(path.jitter._next_resample_ns),
            canon(path.jitter._rng),
        )
        for path in sw.paths
    )
    # Switch hook state: everything mutable except object-graph
    # back-references (pipelines are id-keyed; covered via path_views).
    skip = {
        "sim", "rngs", "obs", "flowstats", "params", "bus", "core",
        "attachments", "paths", "pipelines", "_stalls",
    }
    sw_view = tuple(
        (name, canon(value, 1))
        for name, value in sorted(vars(sw).items())
        if name not in skip and not callable(value)
    )
    return (
        repr(sim._now), sim._seq, sim.events_executed,
        tuple(ports),
        path_views,
        sw_view,
        (repr(tb.sut_core.busy_ns), tb.sut_core._idle_streak),
        tuple(vif_views),
        tuple(core_views),
        tuple(app_views),
        tuple(meter_view(m) for m in tb.meters),
        tuple(sorted(
            (src.name, src.packets_sent, src.probes_sent)
            for src in _tx_sources(tb)
        )),
        tuple(event_view(*entry) for entry in sorted(sim._queue)),
    )


def _tx_sources(tb: "Testbed") -> list:
    """Every traffic source wired into a testbed (p2v stores a scalar)."""
    tx = tb.extras.get("tx", [])
    return [tx] if not isinstance(tx, (list, tuple)) else list(tx)
