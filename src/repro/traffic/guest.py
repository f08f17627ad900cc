"""In-guest traffic tools: generator and monitor bases.

MoonGen, FloWatcher-DPDK and pkt-gen all run *inside* VMs for the
p2v/v2v tests (Sec. 5.2).  The generator emits into the guest interface's
TX ring (or a bridge ring for VALE's pkt-gen workaround); the monitor
drains the guest RX side, counts throughput and records probe RTTs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.packet import Packet, PacketBlock, batch_stats
from repro.core.ring import Ring
from repro.core.stats import RateMeter
from repro.cpu.cores import Core
from repro.traffic.generator import PacedSource
from repro.vif.virtio import VirtualInterface

if TYPE_CHECKING:
    from repro.core.engine import Simulator


class GuestTrafficGen(PacedSource):
    """MoonGen or pkt-gen running inside a guest, transmitting.

    Emits into the guest interface's TX ring (or a bridge ring).  The
    generator runs on a dedicated vCPU and, as the paper verified,
    sustains its vNIC's line rate; we model its pacing, not its cycles.
    """

    def __init__(
        self,
        sim: "Simulator",
        vif: VirtualInterface,
        rate_pps: float,
        frame_size: int,
        via_ring: Ring | None = None,
        **kwargs,
    ) -> None:
        super().__init__(sim, rate_pps, frame_size, name=f"guest-gen@{vif.name}", **kwargs)
        self.vif = vif
        self._out_ring = via_ring if via_ring is not None else vif.to_host

    def _emit(self, batch: list[Packet]) -> None:
        self._out_ring.push_batch(batch)


class GuestMonitor:
    """FloWatcher-DPDK / pkt-gen RX: counts frames, records probe RTTs.

    Both tools "perform measurement with negligible overhead" (Sec. 5.2),
    so the monitor only pays the guest-side driver cost of draining its
    receive ring.
    """

    MAX_BATCH = 256

    def __init__(
        self,
        sim: "Simulator",
        vif: VirtualInterface | None,
        frame_size: int,
        from_ring: Ring | None = None,
        stamp_probe_rx: Callable[[Packet, float], None] | None = None,
    ) -> None:
        if vif is None and from_ring is None:
            raise ValueError("monitor needs a vif or an explicit ring")
        self.sim = sim
        self.vif = vif
        self._in_ring = from_ring if from_ring is not None else vif.to_guest
        self.meter = RateMeter(frame_size_hint=frame_size)
        self.stamp_probe_rx = stamp_probe_rx
        #: Optional per-flow accounting; None unless flow telemetry is on.
        self.flowstats = None
        #: Pure-reactive declaration for Core parking: the monitor only
        #: drains this ring and holds no time-based state, so its vCPU may
        #: skip idle poll iterations while the ring is empty.
        self.park_rings = (self._in_ring,)

    def poll(self, core: Core) -> float:
        ring = self._in_ring
        if not ring._frames:  # idle fast path: no pop, no list allocation
            return 0.0
        batch = ring.pop_batch(self.MAX_BATCH)
        if not batch:
            return 0.0
        now = self.sim.now
        cycles = 0.0
        if self.vif is not None:
            frames, total_bytes = batch_stats(batch)
            cycles = self.vif.costs.guest_rx.cycles(frames, total_bytes)
        self._on_batch(batch)
        meter = self.meter
        flowstats = self.flowstats
        if flowstats is not None:
            flowstats.rx_batch(batch)
        in_window = (
            meter.window_start_ns is not None
            and now >= meter.window_start_ns
            and (meter.window_end_ns is None or now <= meter.window_end_ns)
        )
        for item in batch:
            if item.__class__ is PacketBlock:
                # Monitor is a terminal consumer: one add per block.
                meter.record_block(now, item.size, item.count)
                continue
            meter.record(now, item.size)
            if item.is_probe:
                if self.stamp_probe_rx is not None:
                    self.stamp_probe_rx(item, now)
                else:
                    item.rx_timestamp = now
                if in_window and item.latency_ns is not None:
                    meter.latency.add(item.latency_ns)
                    if flowstats is not None:
                        flowstats.latency(item.flow_id, item.latency_ns)
        return cycles

    def _on_batch(self, batch: list[Packet | PacketBlock]) -> None:
        """Hook for subclasses to inspect each drained batch."""
