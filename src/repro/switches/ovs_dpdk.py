"""OvS-DPDK (Open vSwitch with the DPDK datapath).

Match/action paradigm: every packet is classified against flow tables.
The userspace datapath has a three-level lookup hierarchy:

1. **EMC** (exact match cache, 8k entries): cheapest, still a hash +
   compare per packet;
2. **dpcls** (megaflow classifier): tuple-space search, several times
   costlier, populated from OpenFlow rules;
3. **upcall** (ofproto slow path): first packet of a flow, very costly.

The paper's synthetic traffic is a single flow of identical packets, so
after the first packet everything hits the EMC -- and *still* only
reaches 8.05 Gbps at 64 B "due to the overhead imposed by its
match/action pipeline.  As the synthetic traffic consists of identical
packets ... OvS-DPDK's flow cache does not help" (Sec. 5.2).  Multi-flow
workloads (flow_count > EMC capacity) exercise the dpcls path; the
ablation bench sweeps this.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.packet import Packet
from repro.switches.base import ForwardingPath, SoftwareSwitch
from repro.switches.openflow import FlowMatch, OpenFlowTable
from repro.switches.params import (
    OVS_EMC_ENTRIES,
    OVS_EMC_MISS_EXTRA,
    OVS_PARAMS,
    OVS_UPCALL_EXTRA,
)


class OvsDpdk(SoftwareSwitch):
    """OvS-DPDK behavioural model with a three-level flow cache."""

    def __init__(self, sim, rngs=None, bus=None, params=OVS_PARAMS, emc_entries: int = OVS_EMC_ENTRIES):
        super().__init__(sim, params, rngs=rngs, bus=bus)
        self.emc_entries = emc_entries
        # Insertion-ordered for O(1) FIFO eviction (popitem(last=False)).
        self._emc: OrderedDict[int, int] = OrderedDict()
        self._megaflows: set[int] = set()
        #: the ofproto rule table an external controller would populate
        #: (OvsCtl.ofctl_add_flow feeds it); consulted on upcalls.
        self.flow_table = OpenFlowTable()
        #: megaflow entries the slow path has installed.
        self.megaflow_entries: list[FlowMatch] = []
        self.emc_hits = 0
        self.emc_misses = 0
        self.emc_evictions = 0
        self.upcalls = 0

    def _proc_cycles(self, batch: list[Packet], path: ForwardingPath, n: int, total_bytes: int) -> float:
        cycles = self.params.proc.cycles(n, total_bytes)  # EMC-hit baseline
        flowstats = self.flowstats
        for item in batch:
            runs = item.flows
            if runs is None:
                cycles += self._classify_run(item.flow_id, item.count, item, flowstats)
            else:
                # Multi-flow block: fold the classifier over the run-length
                # summary -- per-run semantics identical to the per-packet
                # path without materialising any headers.
                for flow, count in runs:
                    cycles += self._classify_run(flow, count, item, flowstats)
        return cycles

    def _classify_run(self, flow: int, count: int, item, flowstats=None) -> float:
        """Classify ``count`` consecutive frames of one flow; extra cycles."""
        if flow in self._emc:
            self.emc_hits += count
            if flowstats is not None:
                flowstats.cache(flow, count, 0)
            return 0.0
        # A run's frames share one flow: the first frame misses and
        # installs the EMC entry, the remaining count-1 frames hit it.
        self.emc_misses += 1
        if flowstats is not None:
            flowstats.cache(flow, count - 1, 1)
        cycles = OVS_EMC_MISS_EXTRA.per_packet
        if flow not in self._megaflows:
            # ofproto upcall: consult the OpenFlow rules (when an SDN
            # controller installed any) and collapse the result into a
            # datapath megaflow.
            self.upcalls += 1
            cycles += OVS_UPCALL_EXTRA.per_packet
            if len(self.flow_table):
                rule = self.flow_table.lookup(item, in_port=0)
                if rule is not None:
                    self.megaflow_entries.append(
                        self.flow_table.derive_megaflow(item, 0, rule)
                    )
            self._megaflows.add(flow)
        self._insert_emc(flow)
        if count > 1:
            self.emc_hits += count - 1
        return cycles

    def _insert_emc(self, flow: int) -> None:
        if len(self._emc) >= self.emc_entries:
            # EMC eviction is hash-indexed; dropping the oldest entry is a
            # fair stand-in for the occupancy behaviour we need.
            self._emc.popitem(last=False)
            self.emc_evictions += 1
        self._emc[flow] = 1

    def cache_stats(self) -> dict:
        """EMC occupancy/traffic counters for obs gauges and campaigns."""
        hits, misses = self.emc_hits, self.emc_misses
        total = hits + misses
        return {
            "emc_entries": len(self._emc),
            "emc_capacity": self.emc_entries,
            "emc_hits": hits,
            "emc_misses": misses,
            "emc_evictions": self.emc_evictions,
            "emc_hit_rate": hits / total if total else 1.0,
            "upcalls": self.upcalls,
            "megaflows": len(self._megaflows),
        }

    # -- fault hooks (repro.faults) ----------------------------------------

    def flush_emc(self) -> int:
        """Flush the exact-match cache (``ovs-appctl dpctl/flush-conntrack``
        style churn): every active flow re-misses into the megaflow
        classifier on its next packet.  Returns entries flushed.
        """
        flushed = len(self._emc)
        self._emc.clear()
        return flushed

    def begin_flow_reinstall(self) -> list:
        """Controller restart: all three lookup levels are wiped.

        Until :meth:`finish_flow_reinstall` puts the OpenFlow rules back,
        every flow's first packet takes the full upcall slow path -- the
        slow-path storm of a control-plane reset.  Returns the stashed
        rules to hand back to ``finish_flow_reinstall``.
        """
        rules = list(self.flow_table._rules)
        self.flow_table._rules.clear()
        self._emc.clear()
        self._megaflows.clear()
        self.megaflow_entries.clear()
        return rules

    def finish_flow_reinstall(self, rules: list) -> None:
        """Re-converge: the controller reinstalls its OpenFlow rules."""
        for rule in rules:
            self.flow_table.add_rule(rule)
