"""MoonGen: the paper's default traffic generator and monitor.

MoonGen owns the NUMA-node-1 NIC: its TX thread saturates the wire with
synthetic frames while a second thread injects PTP probes that the Intel
82599 hardware-timestamps on the way out and back in (Sec. 5.3).  The RX
side counts frames at wire arrival (a hardware counter read, free of
software overhead) and extracts probe RTTs.

The paper also notes MoonGen's TX-rate granularity: rates in
[9.88, 10] Gbps are rounded up to line rate (footnote 6) -- reproduced in
:func:`effective_tx_rate`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.packet import Packet, PacketBlock
from repro.core.stats import RateMeter
from repro.core.units import LINE_RATE_BPS, gbps_to_pps, line_rate_pps, pps_to_gbps
from repro.nic.port import NicPort
from repro.traffic.generator import PacedSource

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: MoonGen cannot hit arbitrary rates near line rate; [9.88, 10] Gbps is
#: rounded up to 10 Gbps (paper footnote 6).
RATE_GRANULARITY_FLOOR_GBPS = 9.88


def effective_tx_rate(requested_pps: float, frame_size: int) -> float:
    """Apply MoonGen's TX-rate rounding near line rate."""
    requested_gbps = pps_to_gbps(requested_pps, frame_size)
    if RATE_GRANULARITY_FLOOR_GBPS <= requested_gbps < 10.0:
        return line_rate_pps(frame_size)
    return requested_pps


class MoonGenTx(PacedSource):
    """MoonGen transmit thread bound to a physical port."""

    def __init__(self, sim: "Simulator", port: NicPort, rate_pps: float, frame_size: int, **kwargs):
        rate_pps = min(effective_tx_rate(rate_pps, frame_size), line_rate_pps(frame_size, port.rate_bps))
        super().__init__(sim, rate_pps, frame_size, name=f"moongen-tx@{port.name}", **kwargs)
        self.port = port
        port.timestamp_tx = True  # 82599 hardware TX timestamping for probes

    def _emit(self, batch: list[Packet]) -> None:
        self.port.send_batch(batch)


class MoonGenRx:
    """MoonGen receive/monitor thread bound to a physical port.

    Counts throughput at wire arrival and records hardware-timestamped
    probe RTTs into its :class:`RateMeter`.
    """

    def __init__(self, sim: "Simulator", port: NicPort, frame_size: int):
        self.sim = sim
        self.port = port
        self.meter = RateMeter(frame_size_hint=frame_size)
        #: Optional per-flow accounting; None unless flow telemetry is on.
        self.flowstats = None
        port.timestamp_rx = True
        port.sink = self._on_packets

    def _on_packets(self, packets: list[Packet | PacketBlock]) -> None:
        now = self.sim.now
        meter = self.meter
        flowstats = self.flowstats
        if flowstats is not None:
            flowstats.rx_batch(packets)
        in_window = (
            meter.window_start_ns is not None
            and now >= meter.window_start_ns
            and (meter.window_end_ns is None or now <= meter.window_end_ns)
        )
        for item in packets:
            if item.__class__ is PacketBlock:
                # Hardware counter read: one add per block of frames.
                meter.record_block(now, item.size, item.count)
                continue
            meter.record(now, item.size)
            if in_window and item.is_probe and item.latency_ns is not None:
                meter.latency.add(item.latency_ns)
                if flowstats is not None:
                    flowstats.latency(item.flow_id, item.latency_ns)


def saturating_rate(frame_size: int, rate_bps: int = LINE_RATE_BPS) -> float:
    """Offered load for the paper's saturating-input methodology."""
    return line_rate_pps(frame_size, rate_bps)


def load_rate(fraction: float, r_plus_pps: float) -> float:
    """Offered load at a fraction of the maximal forwarding rate R+."""
    if fraction <= 0:
        raise ValueError("load fraction must be positive")
    return fraction * r_plus_pps


def rate_for_gbps(gbps: float, frame_size: int) -> float:
    """Offered rate (pps) for a target normalised Gbps (e.g. v2v's 672 Mbps)."""
    return gbps_to_pps(gbps, frame_size)
