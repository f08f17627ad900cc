"""VALE: the netmap-based L2 learning switch.

The odd one out (Sec. 2.1): no DPDK, no busy-waiting -- "VALE is built on
top of netmap and relies on system calls and NIC interrupts for packet
I/O".  Its design trades throughput on physical ports for:

* **memory isolation**: one packet *copy* between VALE ports per forward
  (the per-byte term in ``params.proc``);
* **L2 learning**: source-MAC learning plus destination lookup on every
  frame (modelled as a real learning table so tests can exercise
  learning, flooding and table occupancy);
* **ptnet**: zero-copy VM boundary, which is why p2v *exceeds* p2p
  (5.77 vs 5.56 Gbps) and why it wins v2v and long chains;
* **adaptive batching**: forwards whatever is pending each wake-up, so
  low offered load does not inflate latency (Table 3: the only switch
  whose 0.10 R+ latency is not above its 0.50 R+ latency);
* **interrupt I/O**: the SUT core sleeps when idle and pays a wake-up,
  and the ixgbe ITR moderation floor dominates physical-port RTT.

Flow control on the NIC interfaces is disabled per the paper's tuning
(Table 2): a full ring drops instead of pausing the sender -- which is
what :class:`~repro.core.ring.Ring` does natively.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.packet import Packet
from repro.switches.base import Attachment, ForwardingPath, SoftwareSwitch
from repro.switches.params import VALE_PARAMS

#: VALE's forwarding table capacity (netmap's default bridge table).
VALE_MAC_TABLE_ENTRIES = 1024


class Vale(SoftwareSwitch):
    """VALE behavioural model with a real source-MAC learning table."""

    def __init__(
        self, sim, rngs=None, bus=None, params=VALE_PARAMS,
        mac_entries: int = VALE_MAC_TABLE_ENTRIES,
    ):
        super().__init__(sim, params, rngs=rngs, bus=bus)
        self.mac_entries = mac_entries
        # Insertion-ordered for O(1) FIFO eviction; re-learning a MAC
        # keeps its slot.
        self._mac_table: OrderedDict[int, Attachment] = OrderedDict()
        self.learned = 0
        self.flooded = 0
        self.mac_evictions = 0

    def _on_forward(self, batch: list[Packet], path: ForwardingPath) -> None:
        table = self._mac_table
        flowstats = self.flowstats
        for item in batch:
            runs = item.flows
            if runs is None:
                # A single-flow block's frames are identical: the first
                # frame does any learning, after which the table is stable
                # for the rest, so one pass covers every frame it carries.
                if flowstats is not None:
                    known = item.src_mac in table
                    count = item.count
                    flowstats.cache(
                        item.flow_id,
                        count if known else count - 1,
                        0 if known else 1,
                    )
                self._learn_src(item.src_mac, path.input)
                if item.dst_mac not in table:
                    # Unknown destination: a real VALE floods; the measured
                    # scenarios use static single-destination traffic, so
                    # we only account for it.
                    self.flooded += item.count
            else:
                # Multi-flow block: one learning step per run.  Per-run
                # source MACs are derived from the template base (see
                # PacketBlock.flows), never materialised.  The destination
                # test follows each run's learning, as it follows each
                # frame's under per-packet emission: a source learned
                # mid-block can be the destination.
                mac_base = item.src_mac - item.flow_id
                dst = item.dst_mac
                for flow, count in runs:
                    if flowstats is not None:
                        known = (mac_base + flow) in table
                        flowstats.cache(
                            flow,
                            count if known else count - 1,
                            0 if known else 1,
                        )
                    self._learn_src(mac_base + flow, path.input)
                    if dst not in table:
                        self.flooded += count

    def _learn_src(self, src: int, input_port: Attachment) -> None:
        table = self._mac_table
        if src not in table:
            if len(table) >= self.mac_entries:
                # netmap's bridge table is hash-bounded; FIFO eviction is
                # the occupancy stand-in (an eviction storm under a flow
                # population wider than the table is the regime of
                # interest, not which victim goes first).
                table.popitem(last=False)
                self.mac_evictions += 1
            self.learned += 1
        table[src] = input_port

    def lookup(self, dst_mac: int) -> Attachment | None:
        """Forwarding-table lookup (exposed for tests and examples)."""
        return self._mac_table.get(dst_mac)

    def cache_stats(self) -> dict:
        """MAC-table occupancy counters for obs gauges and campaigns."""
        return {
            "mac_entries": len(self._mac_table),
            "mac_capacity": self.mac_entries,
            "mac_learned": self.learned,
            "mac_evictions": self.mac_evictions,
            "flooded": self.flooded,
        }

    # -- fault hooks (repro.faults) ----------------------------------------

    def flush_mac_table(self) -> int:
        """Control-plane reset: forget every learned MAC.

        The data plane keeps forwarding -- the next frame per source
        relearns its entry and unknown destinations flood until then,
        which is VALE's graceful re-convergence.  Returns the number of
        entries flushed.
        """
        flushed = len(self._mac_table)
        self._mac_table.clear()
        return flushed
