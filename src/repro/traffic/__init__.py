"""Traffic generation and monitoring tools (MoonGen, pkt-gen, FloWatcher)."""

from repro.traffic.flowatcher import FloWatcher
from repro.traffic.generator import DEFAULT_PROBE_INTERVAL_NS, PacedSource
from repro.traffic.guest import GuestMonitor, GuestTrafficGen
from repro.traffic.moongen import (
    MoonGenRx,
    MoonGenTx,
    effective_tx_rate,
    load_rate,
    rate_for_gbps,
    saturating_rate,
)
from repro.traffic.pktgen import PKTGEN_MAX_RATE_PPS, make_pktgen_rx, make_pktgen_tx
from repro.traffic.profiles import DATACENTER, IMIX, PROFILES, SizeProfile, fixed

__all__ = [
    "DATACENTER",
    "DEFAULT_PROBE_INTERVAL_NS",
    "IMIX",
    "PROFILES",
    "SizeProfile",
    "fixed",
    "FloWatcher",
    "GuestMonitor",
    "GuestTrafficGen",
    "MoonGenRx",
    "MoonGenTx",
    "PKTGEN_MAX_RATE_PPS",
    "PacedSource",
    "effective_tx_rate",
    "load_rate",
    "make_pktgen_rx",
    "make_pktgen_tx",
    "rate_for_gbps",
    "saturating_rate",
]
