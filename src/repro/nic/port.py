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
:class:`PacketBlock` flyweights (bulk frames).  The per-frame backlog
check and the deterministic driver-hiccup hash are frame-level
semantics, but a block rarely needs them frame by frame: two exact O(1)
bounds (see :meth:`NicPort.send_batch`) prove that no frame of the block
can hit a hiccup or the tx backlog, and the block then goes out whole.
Blocks that fail either bound, single :class:`Packet` items and every
item on a port with flow telemetry attached take the per-frame loop,
which hoists everything loop-invariant (wire time, backlog bound, the
hash prefix over the port name and the block's uniform fields).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

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

#: Probability that the driver-hiccup hash drops a transmitted frame
#: (mbuf allocation hiccup, descriptor race).  Real rigs see roughly one
#: such drop per multi-second RFC 2544 trial; our millisecond windows
#: carry ~10^4 frames, so the per-frame probability is scaled to keep
#: the per-trial loss small.  The hash does not drop frames
#: independently: its final FNV multiply maps the adjacent indices of
#: one burst to nearby values, so a hiccup usually takes most of a
#: 32-frame burst at once -- ~20x fewer, ~30x larger drop events than
#: independent drops (EXPERIMENTS.md, known deviation 6).  This is the
#: "non-deterministic packet loss caused at the driver level" that makes
#: strict NDR searches unreliable (paper footnote 3); its effect on
#: throughput measurements is ~0.01%.
DRIVER_DROP_PROB = 1e-4

# FNV-1a over stable per-run quantities: the drop decision replays
# bit-identically regardless of what ran earlier in the process.
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF
_DENOM53 = float(1 << 53)
#: ``_HICCUP_TOP[k]``: the largest ``C`` for which ``C + (2**k - 1) * P``
#: stays below 2**64 (negative once no ``C`` does) -- the no-wrap test of
#: the block bound in :meth:`NicPort.send_batch`.
_HICCUP_TOP = tuple(_MASK64 - ((1 << k) - 1) * _FNV_PRIME for k in range(65))

_name_hashes: dict[str, int] = {}


def _name_hash(port_name: str) -> int:
    """FNV-1a fold of the port name (cached; the loop-invariant prefix)."""
    value = _name_hashes.get(port_name)
    if value is None:
        value = _FNV_OFFSET
        for byte in port_name.encode():
            value = ((value ^ byte) * _FNV_PRIME) & _MASK64
        _name_hashes[port_name] = value
    return value


def _hiccup_base(name_hash: int, t_created_int: int, size: int, flow_id: int, hops: int) -> int:
    """Fold the per-frame-invariant fields; only the burst index remains."""
    value = ((name_hash ^ (t_created_int & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
    value = ((value ^ (size & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
    value = ((value ^ (flow_id & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
    return ((value ^ (hops & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64


def _hiccup_limit(prob: float) -> int:
    """Integer form of the per-frame hiccup test.

    A frame whose final hash value is ``v`` drops when
    ``(v >> 11) / 2**53 < prob``.  ``v >> 11`` is an integer below 2**53,
    so it converts to float exactly, dividing by a power of two is exact,
    and the test is ``v >> 11 < prob * 2**53`` -- for an integer, the same
    as ``v >> 11 < ceil(prob * 2**53)``, which this returns (0 when no
    frame can drop, 2**53 when every frame does).
    """
    if not prob > 0.0:
        return 0
    return math.ceil(min(prob, 1.0) * _DENOM53)


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
        self._name_hash = _name_hash(name)
        self._pcie_stall_base: float | None = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_dropped = 0
        self.driver_drops = 0
        self.driver_drop_prob = DRIVER_DROP_PROB
        self.rx_packets = 0
        #: Optional per-flow accounting (:class:`repro.obs.flowstats.FlowStats`);
        #: None unless flow telemetry is enabled -- the un-accounted cost is
        #: one attribute load per send_batch call.
        self.flowstats = None

    @property
    def driver_drop_prob(self) -> float:
        """Per-frame driver-hiccup probability (:data:`DRIVER_DROP_PROB`)."""
        return self._drop_prob

    @driver_drop_prob.setter
    def driver_drop_prob(self, prob: float) -> None:
        self._drop_prob = prob
        # The block bound compares full 64-bit hash values: v drops iff
        # v < _drop_limit.  Derived once per assignment, never per frame.
        self._drop_limit = _hiccup_limit(prob) << 11

    def connect(self, peer: "NicPort") -> None:
        """Cable this port to ``peer`` (full duplex, both directions)."""
        self.peer = peer
        peer.peer = self

    def set_hiccup_salt(self, salt: int) -> None:
        """Perturb the driver-hiccup hash for a soundness trial.

        XORs ``salt`` into the port-name prefix of the FNV fold, so a
        trial replica sees a different (but equally deterministic)
        realisation of the sporadic driver drops.  Salt 0 restores the
        base run's hash exactly.
        """
        self._name_hash = _name_hash(self.name) ^ (salt & _MASK64)

    def send_batch(self, items: Sequence[Packet | PacketBlock]) -> int:
        """Serialise the batch's frames onto the wire towards the peer.

        Returns the number of frames actually transmitted; frames that
        would exceed the tx descriptor backlog are dropped (no
        backpressure in a poll-mode data plane).

        A :class:`PacketBlock` goes out whole, with O(1) hash work, when
        two exact bounds hold; otherwise (and for single :class:`Packet`
        items, and on ports with flow telemetry) every frame runs the
        per-frame loop.

        * Hiccup bound.  Frame ``i`` hashes to
          ``((base ^ (i & M32)) * P) mod 2**64``.  With ``k`` the number of
          low bits in which the block's indices ``index ..
          index + count - 1`` differ, ``base ^ (i & M32)`` spans
          ``[H, H + 2**k)`` for ``H = ((base ^ (index & M32)) >> k) << k``,
          so the values lie in ``[C, C + (2**k - 1) * P]`` with
          ``C = H * P mod 2**64`` -- unless that window wraps.  A window
          that does not wrap and starts at or above the drop limit holds
          no dropping frame.
        * Backlog bound.  ``busy`` only grows frame by frame and float
          addition and subtraction are monotone, so if the last frame
          passes the backlog test every earlier one did.  The block's
          ``count`` additions are the per-frame loop's own, in its order.
        """
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        now = self.sim.now
        busy = max(now, self._tx_busy_until_ns)
        rate = self.rate_bps
        prob = self._drop_prob
        limit = self._drop_limit
        name_hash = self._name_hash
        tx_slots = self.tx_slots
        flowstats = self.flowstats
        arrivals: list[tuple[Packet | PacketBlock, float]] = []
        sent_frames = 0
        sent_bytes = 0
        index = 0  # frame position within the burst (hiccup hash input)
        for item in items:
            size = item.size
            wire = wire_time_ns(size, rate)
            max_backlog_ns = tx_slots * wire
            if item.__class__ is PacketBlock:
                count = item.count
                base = (
                    _hiccup_base(name_hash, int(item.t_created), size, item.flow_id, item.hops)
                    if prob > 0.0
                    else 0
                )
                if flowstats is None:
                    # Block fast path (both bounds in the docstring);
                    # count >= 1 is a PacketBlock invariant.
                    clean = True
                    if prob > 0.0:
                        k = (index ^ (index + count - 1)).bit_length()
                        low = ((base ^ (index & 0xFFFFFFFF)) >> k << k) * _FNV_PRIME & _MASK64
                        clean = limit <= low <= _HICCUP_TOP[k]
                    if clean:
                        start = busy
                        for _ in range(count - 1):
                            busy += wire
                        if busy - now <= max_backlog_ns:
                            busy += wire
                            index += count
                            arrivals.append((item, busy))
                            sent_frames += count
                            sent_bytes += size * count
                            continue
                        busy = start
                if item.flows is not None:
                    # Multi-flow block: same frame-level semantics, but the
                    # surviving frames' run-length summary must be
                    # re-encoded when drops puncture the block.
                    kept: list[int] = []
                    offset = 0
                    for i in range(index, index + count):
                        if prob > 0.0:
                            value = ((base ^ (i & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                            if (value >> 11) / _DENOM53 < prob:
                                self.driver_drops += 1
                                offset += 1
                                continue
                        if busy - now > max_backlog_ns:
                            self.tx_dropped += 1
                            offset += 1
                            continue
                        busy = busy + wire
                        kept.append(offset)
                        offset += 1
                    index += count
                    accepted = len(kept)
                    if flowstats is not None:
                        # Attribute survivors and punctures before the
                        # block's run summary is re-encoded below.
                        flowstats.wire_split_runs(item.flows, kept, size)
                    if accepted:
                        if accepted != count:
                            runs = item.flows
                            item.count = accepted
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
                accepted = 0
                for i in range(index, index + count):
                    if prob > 0.0:
                        value = ((base ^ (i & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                        if (value >> 11) / _DENOM53 < prob:
                            self.driver_drops += 1
                            continue
                    # Descriptor-count backlog limit: a full tx ring of
                    # frames of this size corresponds to this much
                    # serialization backlog.
                    if busy - now > max_backlog_ns:
                        self.tx_dropped += 1
                        continue
                    busy = busy + wire
                    accepted += 1
                index += count
                if flowstats is not None:
                    flow = item.flow_id
                    if accepted:
                        flowstats.wire_runs(((flow, accepted),), size)
                    if accepted != count:
                        flowstats.drop_runs(((flow, count - accepted),), size)
                if accepted:
                    if accepted != count:
                        item.count = accepted
                    arrivals.append((item, busy))
                    sent_frames += accepted
                    sent_bytes += size * accepted
                continue
            packet = item
            if prob > 0.0:
                base = _hiccup_base(
                    name_hash, int(packet.t_created), size, packet.flow_id, packet.hops
                )
                value = ((base ^ (index & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                if (value >> 11) / _DENOM53 < prob:
                    self.driver_drops += 1
                    if flowstats is not None:
                        flowstats.drop_runs(((packet.flow_id, 1),), size)
                    index += 1
                    continue
            if busy - now > max_backlog_ns:
                self.tx_dropped += 1
                if flowstats is not None:
                    flowstats.drop_runs(((packet.flow_id, 1),), size)
                index += 1
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
            index += 1
        self._tx_busy_until_ns = busy
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
