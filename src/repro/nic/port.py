"""Physical NIC ports and point-to-point wires.

Models the testbed's Intel 82599 dual-port 10 GbE NICs: a port serialises
frames onto the wire at line rate (framing overhead included, so 64 B
frames peak at 14.88 Mpps), keeps a bounded transmit backlog (the tx
descriptor ring), and lands received frames in a bounded rx descriptor
ring that the attached data plane drains by polling (DPDK PMD) or upon
interrupt (netmap).

The 10 Gbps wire is "the theoretical bottleneck" for every scenario that
touches a physical NIC (Sec. 5.1) -- it is enforced here and nowhere else.

Traffic arrives as a mix of exact :class:`Packet` objects (probes) and
:class:`PacketBlock` flyweights (bulk frames).  The tx backlog and the
sporadic driver drops are frame-level semantics, but a block rarely
needs them frame by frame.  Each port keeps a drop schedule -- the count
of frames offered to it and the ordinal of the next frame it drops -- so
one integer compare proves that no frame of a block drops, and an exact
backlog bound (see :meth:`NicPort.send_batch`) proves that none overflows
the tx ring; the block then goes out whole.  Blocks that fail either
test, single :class:`Packet` items and every item on a port with flow
telemetry attached take the per-frame loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.lattice import Lattice
from repro.core.packet import Packet, PacketBlock, select_flows
from repro.core.ring import Ring
from repro.core.units import LINE_RATE_BPS, wire_time_ns

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: Default descriptor ring sizes (DPDK ixgbe defaults).  FastClick's rings
#: are enlarged to 4096 by the paper's tuning (Table 2).
DEFAULT_RX_SLOTS = 512
DEFAULT_TX_SLOTS = 512

#: Fixed per-traversal latency of the path between the wire and host
#: memory: descriptor write-back moderation, DMA completion, PCIe round
#: trip.  Calibrated so an empty DPDK forwarder floor lands at the 4-5 us
#: RTTs of Table 3.
PCIE_LATENCY_NS = 2_400.0

#: Probability that the driver drops an offered frame (mbuf allocation
#: hiccup, descriptor race).  Real rigs see roughly one such drop per
#: multi-second RFC 2544 trial; our millisecond windows carry ~10^4
#: frames, so the per-frame probability is scaled to keep the per-trial
#: loss small.  Each port draws geometric gaps between drops (see
#: :func:`_drop_gap`), so drops are independent single frames: the
#: "non-deterministic packet loss caused at the driver level" that makes
#: strict NDR searches unreliable (paper footnote 3); its effect on
#: throughput measurements is ~0.01%.
DRIVER_DROP_PROB = 1e-4

# FNV-1a over the port name: a stable per-port key, so the drop schedule
# replays bit-identically regardless of what ran earlier in the process.
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN64 = 0x9E3779B97F4A7C15

_name_hashes: dict[str, int] = {}


def _name_hash(port_name: str) -> int:
    """FNV-1a fold of the port name (cached): the drop schedule's key."""
    value = _name_hashes.get(port_name)
    if value is None:
        value = _FNV_OFFSET
        for byte in port_name.encode():
            value = ((value ^ byte) * _FNV_PRIME) & _MASK64
        _name_hashes[port_name] = value
    return value


def _drop_gap(key: int, n: int, prob: float) -> float:
    """Frames from one driver drop to the next: draw ``n`` of the schedule.

    A geometric draw (support 1, 2, ...) with success probability
    ``prob``: ``u`` in (0, 1] comes from the top 53 bits of SplitMix64
    over ``key + n * 0x9E3779B97F4A7C15``, a counter-based hash, so the
    ``n``-th gap depends on nothing but ``key`` and ``n``.  ``inf`` (no
    further drop) when ``prob`` is not positive or the gap overflows a
    float; 1 (every frame) when ``prob >= 1``.
    """
    if not prob > 0.0:
        return math.inf
    if prob >= 1.0:
        return 1
    z = (key + n * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    u = (((z ^ (z >> 31)) >> 11) + 1) / 9007199254740992.0  # 2**53
    quotient = math.log(u) / math.log1p(-prob)
    if not math.isfinite(quotient):
        return math.inf
    return 1 + math.floor(quotient)


class NicPort:
    """One port of a physical NIC.

    A port is connected to exactly one peer port by :meth:`connect`
    (back-to-back cabling, as in the testbed where each NUMA node's NIC is
    "directly connected to the other NUMA node's NIC", Fig. 3).

    Receive side: frames arriving from the wire are pushed into
    ``rx_ring`` after the PCIe/DMA latency; if the ring is full they are
    dropped (counted in ``rx_ring.dropped``).  A ``sink`` callback may
    replace the ring for pure monitors (MoonGen RX) that count frames at
    wire arrival.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        rate_bps: int = LINE_RATE_BPS,
        rx_slots: int = DEFAULT_RX_SLOTS,
        tx_slots: int = DEFAULT_TX_SLOTS,
        timestamp_tx: bool = False,
        timestamp_rx: bool = False,
        pcie_latency_ns: float = PCIE_LATENCY_NS,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.rx_ring = Ring(rx_slots, name=f"{name}.rx")
        self.tx_slots = tx_slots
        self.timestamp_tx = timestamp_tx
        self.timestamp_rx = timestamp_rx
        self.pcie_latency_ns = pcie_latency_ns
        self.sink: Callable[[list[Packet | PacketBlock]], None] | None = None
        self.peer: "NicPort | None" = None
        #: Interrupt moderation (ixgbe ITR): when set, received frames are
        #: released to the host rx ring only on period boundaries, adding a
        #: mean latency of half the period.  Poll-mode drivers leave this
        #: None; netmap's interrupt-driven path sets it (VALE).
        self.rx_moderation_ns: float | None = None

        self._tx_busy_until_ns = 0.0
        #: The busy clock's lattice: a clean block's wire times add in
        #: closed form (see :mod:`repro.core.lattice`).
        self._wire_lattice = Lattice()
        self._pcie_stall_base: float | None = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_dropped = 0
        #: Frames the driver dropped; also the index of the schedule's
        #: next draw.
        self.driver_drops = 0
        #: The drop schedule: frames offered to :meth:`send_batch` so far,
        #: and the ordinal (0-based, among offered frames) of the next one
        #: the driver drops.
        self._offered = 0
        self._drop_key = _name_hash(name)
        self.driver_drop_prob = DRIVER_DROP_PROB
        self.rx_packets = 0
        #: Optional per-flow accounting (:class:`repro.obs.flowstats.FlowStats`);
        #: None unless flow telemetry is enabled -- the un-accounted cost is
        #: one attribute load per send_batch call.
        self.flowstats = None

    @property
    def driver_drop_prob(self) -> float:
        """Per-frame driver-drop probability (:data:`DRIVER_DROP_PROB`)."""
        return self._drop_prob

    @driver_drop_prob.setter
    def driver_drop_prob(self, prob: float) -> None:
        self._drop_prob = prob
        # Redraw the next drop from the current ordinal.
        self._next_drop = self._offered - 1 + _drop_gap(self._drop_key, self.driver_drops, prob)

    def connect(self, peer: "NicPort") -> None:
        """Cable this port to ``peer`` (full duplex, both directions)."""
        self.peer = peer
        peer.peer = self

    def set_hiccup_salt(self, salt: int) -> None:
        """Perturb the driver-drop schedule for a soundness trial.

        XORs ``salt`` into the schedule's key (the port-name hash), so a
        trial replica sees a different (but equally deterministic)
        realisation of the sporadic driver drops, and redraws the next
        drop from the current ordinal.  Salt 0 restores the base
        schedule.
        """
        self._drop_key = _name_hash(self.name) ^ (salt & _MASK64)
        self._next_drop = self._offered - 1 + _drop_gap(
            self._drop_key, self.driver_drops, self._drop_prob
        )

    def send_batch(self, items: Sequence[Packet | PacketBlock]) -> int:
        """Serialise the batch's frames onto the wire towards the peer.

        Returns the number of frames actually transmitted; frames that
        the driver drops (the drop schedule) or that would exceed the tx
        descriptor backlog are dropped (no backpressure in a poll-mode
        data plane).

        A :class:`PacketBlock` goes out whole when two exact tests hold;
        otherwise (and for single :class:`Packet` items, and on ports
        with flow telemetry) every frame runs the per-frame loop.

        * Drop schedule.  The block's frames are the ordinals
          ``offered .. offered + count - 1``; none drops iff
          ``offered + count <= next_drop``.
        * Backlog bound.  ``busy`` only grows frame by frame and float
          addition and subtraction are monotone, so if the last frame
          passes the backlog test every earlier one did.  The block's
          ``count`` additions are the per-frame loop's own, in its order;
          the first ``count - 1`` of them come from the port's lattice
          (:mod:`repro.core.lattice`) in one step, bit-identical.
        """
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        now = self.sim.now
        busy = max(now, self._tx_busy_until_ns)
        rate = self.rate_bps
        tx_slots = self.tx_slots
        flowstats = self.flowstats
        offered = self._offered
        next_drop = self._next_drop
        lattice = self._wire_lattice
        arrivals: list[tuple[Packet | PacketBlock, float]] = []
        sent_frames = 0
        sent_bytes = 0
        for item in items:
            size = item.size
            wire = wire_time_ns(size, rate)
            max_backlog_ns = tx_slots * wire
            if item.__class__ is PacketBlock:
                count = item.count
                if flowstats is None and offered + count <= next_drop:
                    # Block fast path (both tests in the docstring);
                    # count >= 1 is a PacketBlock invariant.
                    start = busy
                    end = busy + (count - 1) * lattice.step
                    if wire == lattice.d and lattice.lo <= busy and end < lattice.hi:
                        busy = end
                    else:
                        busy = lattice.add(busy, wire, count - 1)
                    if busy - now <= max_backlog_ns:
                        busy += wire
                        offered += count
                        arrivals.append((item, busy))
                        sent_frames += count
                        sent_bytes += size * count
                        continue
                    busy = start
                kept: list[int] = []
                for offset in range(count):
                    if offered == next_drop:
                        self.driver_drops += 1
                        next_drop = offered + _drop_gap(
                            self._drop_key, self.driver_drops, self._drop_prob
                        )
                        offered += 1
                        continue
                    offered += 1
                    # Descriptor-count backlog limit: a full tx ring of
                    # frames of this size corresponds to this much
                    # serialization backlog.
                    if busy - now > max_backlog_ns:
                        self.tx_dropped += 1
                        continue
                    busy = busy + wire
                    kept.append(offset)
                accepted = len(kept)
                runs = item.flows
                if flowstats is not None:
                    # Attribute survivors and drops before a multi-flow
                    # block's run summary is re-encoded below.
                    if runs is not None:
                        flowstats.wire_split_runs(runs, kept, size)
                    else:
                        flow = item.flow_id
                        if accepted:
                            flowstats.wire_runs(((flow, accepted),), size)
                        if accepted != count:
                            flowstats.drop_runs(((flow, count - accepted),), size)
                if accepted:
                    if accepted != count:
                        item.count = accepted
                        if runs is not None:
                            item.flows = select_flows(runs, kept)
                            if item.flows is None:
                                # Survivors collapsed to one flow; re-anchor
                                # the template on it.
                                mac_base = item.src_mac - item.flow_id
                                end = 0
                                for flow, run in runs:
                                    end += run
                                    if kept[0] < end:
                                        item.flow_id = flow
                                        item.src_mac = mac_base + flow
                                        break
                    arrivals.append((item, busy))
                    sent_frames += accepted
                    sent_bytes += size * accepted
                continue
            packet = item
            if offered == next_drop:
                self.driver_drops += 1
                next_drop = offered + _drop_gap(
                    self._drop_key, self.driver_drops, self._drop_prob
                )
                offered += 1
                if flowstats is not None:
                    flowstats.drop_runs(((packet.flow_id, 1),), size)
                continue
            offered += 1
            if busy - now > max_backlog_ns:
                self.tx_dropped += 1
                if flowstats is not None:
                    flowstats.drop_runs(((packet.flow_id, 1),), size)
                continue
            start = busy
            busy = start + wire
            if self.timestamp_tx and packet.is_probe and packet.tx_timestamp is None:
                # 82599 hardware timestamping: stamp at start of transmission.
                packet.tx_timestamp = start
            if flowstats is not None:
                flowstats.wire_runs(((packet.flow_id, 1),), size)
            arrivals.append((packet, busy))
            sent_frames += 1
            sent_bytes += size
        self._tx_busy_until_ns = busy
        self._offered = offered
        self._next_drop = next_drop
        if arrivals:
            self.tx_packets += sent_frames
            self.tx_bytes += sent_bytes
            peer = self.peer
            self.sim.at(arrivals[-1][1], lambda: peer._receive(arrivals))
        return sent_frames

    def _receive(self, arrivals: list[tuple[Packet | PacketBlock, float]]) -> None:
        """Wire delivery: stamp, then hand to sink or rx descriptor ring."""
        packets: list[Packet | PacketBlock] = []
        frames = 0
        stamp_rx = self.timestamp_rx
        for item, arrival_ns in arrivals:
            if stamp_rx and item.is_probe:
                item.rx_timestamp = arrival_ns
            packets.append(item)
            frames += item.count
        self.rx_packets += frames
        if self.sink is not None:
            self.sink(packets)
            return
        # DMA into host memory after the PCIe latency; under interrupt
        # moderation the host only learns of the frames at the next ITR
        # boundary.
        ring = self.rx_ring
        delay = self.pcie_latency_ns
        if self.rx_moderation_ns is not None:
            ready = self.sim.now + delay
            period = self.rx_moderation_ns
            boundary = -(-ready // period) * period  # ceil to next ITR tick
            delay = boundary - self.sim.now
        self.sim.after(delay, lambda: ring.push_batch(packets))

    # -- fault hooks (repro.faults) ----------------------------------------

    def link_down(self) -> None:
        """Carrier loss: frames handed to this port during the flap vanish.

        Implemented as an instance-level ``send_batch`` override (all call
        sites resolve the method dynamically), so a port whose link never
        flaps executes exactly the class method with no extra branch.
        Frames already serialised onto the wire still arrive at the peer.
        """
        if "send_batch" in self.__dict__:
            return

        def _no_carrier(items: Sequence[Packet | PacketBlock]) -> int:
            frames = 0
            for item in items:
                frames += item.count
                if self.flowstats is not None:
                    self.flowstats.drop_item(item)
            self.tx_dropped += frames
            return 0

        self.send_batch = _no_carrier

    def restore_link(self) -> None:
        """Carrier back: the class ``send_batch`` resumes transmitting."""
        self.__dict__.pop("send_batch", None)

    def stall_pcie(self, extra_ns: float) -> None:
        """PCIe/driver stall: DMA completion latency inflates by ``extra_ns``."""
        if self._pcie_stall_base is not None:
            return
        self._pcie_stall_base = self.pcie_latency_ns
        self.pcie_latency_ns += extra_ns

    def unstall_pcie(self) -> None:
        if self._pcie_stall_base is None:
            return
        self.pcie_latency_ns = self._pcie_stall_base
        self._pcie_stall_base = None


def dual_port_nic(sim: "Simulator", name: str, **kwargs) -> tuple[NicPort, NicPort]:
    """Create the two ports of a dual-port NIC (Intel 82599ES)."""
    return NicPort(sim, f"{name}.p0", **kwargs), NicPort(sim, f"{name}.p1", **kwargs)
