"""t4p4s: the DPDK-backed P4 software switch.

Match/action paradigm compiled from P4: every packet traverses a
*parse* stage, the match/action tables, and a *deparse* stage, with a
hardware abstraction layer between the generated core and DPDK
(Sec. 3.2).  That multi-stage pipeline is the costliest data path of the
seven and the least stable one (Table 3: 174 us at 0.99 R+ in p2p,
7275 us in the 4-VNF chain).

Paper-applied configuration (Table 2 / Appendix A):

* the source-MAC learning phase is *removed* (``mac_learning=False``);
* the l2fwd P4 program matches on destination MAC and emits on the
  matched port; generators must therefore address their frames, and the
  loopback VNFs rewrite destination MACs (Appendix A.4).

The exact-match table here is a real table: tests populate it, look up
keys and exercise the default action, and the stage cycle split is
exposed for the ablation bench.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.packet import Packet
from repro.cpu.costmodel import Cost
from repro.switches.base import Attachment, ForwardingPath, SoftwareSwitch
from repro.switches.params import (
    T4P4S_FLOW_LOOKUP,
    T4P4S_FLOW_MISS_EXTRA,
    T4P4S_FLOW_TABLE_ENTRIES,
    T4P4S_PARAMS,
    T4P4S_STAGES,
)


class P4Table:
    """An exact-match P4 table ("dstmac" -> forward(port))."""

    def __init__(self, name: str = "dmac") -> None:
        self.name = name
        self._entries: dict[int, Attachment] = {}
        self.hits = 0
        self.misses = 0

    def add_entry(self, dst_mac: int, port: Attachment) -> None:
        self._entries[dst_mac] = port

    def lookup(self, dst_mac: int) -> Attachment | None:
        entry = self._entries.get(dst_mac)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class T4P4S(SoftwareSwitch):
    """t4p4s behavioural model (parse / match-action / deparse).

    By default the switch runs the paper's l2fwd P4 program; passing a
    different :class:`~repro.switches.p4.P4Program` recompiles the data
    path with stage costs derived from that program's structure.
    """

    def __init__(
        self,
        sim,
        rngs=None,
        bus=None,
        params=T4P4S_PARAMS,
        mac_learning: bool = False,
        program=None,
    ):
        if program is not None:
            from dataclasses import replace

            from repro.switches.p4 import compile_program

            compiled = compile_program(program)
            params = replace(
                params,
                proc=Cost(per_batch=params.proc.per_batch)
                + compiled.proc,
            )
            self.pipeline_spec = compiled
        else:
            self.pipeline_spec = None
        super().__init__(sim, params, rngs=rngs, bus=bus)
        #: Table 2 tuning: learning removed for the paper's runs.
        self.mac_learning = mac_learning
        self.table = P4Table()
        self.stage_cycles = {stage: 0.0 for stage in T4P4S_STAGES}
        # Capacity-bounded per-flow exact-match table, enabled only when a
        # non-trivial flow population is offered (on_flow_population) so
        # single-flow runs keep the original lookup path bit-for-bit.
        self.flow_table_enabled = False
        self.flow_table_entries = T4P4S_FLOW_TABLE_ENTRIES
        # Insertion-ordered for O(1) FIFO eviction (popitem(last=False)).
        self._flow_keys: OrderedDict[int, int] = OrderedDict()
        self.flow_hits = 0
        self.flow_misses = 0
        self.flow_evictions = 0

    def add_path(self, inp, out) -> ForwardingPath:
        path = super().add_path(inp, out)
        # The paper's generators set destination MACs that the predefined
        # flow table maps to the intended output port; mirror that by
        # installing an entry per path.
        self.table.add_entry(0x02_00_00_00_00_02 + len(self.paths) - 1, out)
        return path

    def _proc_cycles(self, batch: list[Packet], path: ForwardingPath, n: int, total_bytes: int) -> float:
        cycles = self.params.proc.cycles(n, total_bytes)
        if self.mac_learning:
            # The un-tuned switch also learns source MACs (Table 2 notes
            # the paper removed this; keep it togglable for the ablation).
            cycles += 35.0 * n
        # Stage accounting for introspection (costs already in params.proc).
        for stage, cost in T4P4S_STAGES.items():
            self.stage_cycles[stage] += cost.cycles(n, total_bytes)
        if self.flow_table_enabled:
            cycles += self._flow_table_cycles(batch)
        return cycles

    def _flow_table_cycles(self, batch: list[Packet]) -> float:
        """Occupancy-dependent flow-table lookups over the batch's runs.

        The generated exact-match table probes a bounded ``rte_hash``: the
        per-frame cost rises linearly with occupancy (bucket chains), a
        miss pays the default-action/digest path and inserts the key,
        FIFO-evicting when the table is full.
        """
        keys = self._flow_keys
        capacity = self.flow_table_entries
        lookup = T4P4S_FLOW_LOOKUP.per_packet
        flowstats = self.flowstats
        cycles = 0.0
        for item in batch:
            runs = item.flows if item.flows is not None else ((item.flow_id, item.count),)
            for flow, count in runs:
                # One term per frame, in frame order, so a run costs exactly
                # what its frames cost one by one: the first frame probes at
                # the starting occupancy, a miss inserts, and the rest of
                # the run hits at the occupancy the first frame left.
                cycles += lookup * (1.0 + len(keys) / capacity)
                if flow in keys:
                    self.flow_hits += count
                    if flowstats is not None:
                        flowstats.cache(flow, count, 0)
                else:
                    self.flow_misses += 1
                    if flowstats is not None:
                        flowstats.cache(flow, count - 1, 1)
                    cycles += T4P4S_FLOW_MISS_EXTRA.per_packet
                    if len(keys) >= capacity:
                        keys.popitem(last=False)
                        self.flow_evictions += 1
                    keys[flow] = 1
                    self.flow_hits += count - 1
                if count > 1:
                    term = lookup * (1.0 + len(keys) / capacity)
                    for _ in range(count - 1):
                        cycles += term
        return cycles

    def on_flow_population(self, population) -> None:
        """Arm the capacity-bounded flow table for a multi-flow offered load."""
        self.flow_table_enabled = True

    def cache_stats(self) -> dict:
        """Flow-table occupancy counters for obs gauges and campaigns."""
        if not self.flow_table_enabled:
            return {}
        hits, misses = self.flow_hits, self.flow_misses
        total = hits + misses
        return {
            "flow_entries": len(self._flow_keys),
            "flow_capacity": self.flow_table_entries,
            "flow_hits": hits,
            "flow_misses": misses,
            "flow_evictions": self.flow_evictions,
            "flow_hit_rate": hits / total if total else 1.0,
        }

    def _on_forward(self, batch: list[Packet], path: ForwardingPath) -> None:
        table = self.table
        for item in batch:
            # One lookup decides for the whole block (identical dst MACs
            # against a table that this loop does not mutate); the other
            # count-1 frames repeat the same hit or miss.
            entry = table.lookup(item.dst_mac)
            extra = item.count - 1
            if extra:
                if entry is None:
                    table.misses += extra
                else:
                    table.hits += extra
