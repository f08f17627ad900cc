"""Property-based tests (hypothesis) for the capacity-bounded flow-cache
models (repro.flows + the per-switch caches they drive).

Invariants under arbitrary run-length flow traffic:

* occupancy never exceeds the configured capacity;
* hits + misses conserve the exact number of frames classified;
* eviction under a pinned seed is deterministic (same traffic, same
  counters -- the serial-vs-parallel campaign identity depends on it);
* block-fold classification equals per-run classification (the flyweight
  summary loses nothing the cache models care about), and for VALE and
  t4p4s equals per-frame classification: the counters and cycles of one
  multi-flow block match those of one Packet per frame.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.warp import _clone_switch
from repro.core.packet import DEFAULT_DST_MAC, DEFAULT_SRC_MAC, Packet, PacketBlock
from repro.flows import FlowPopulation
from repro.switches.ovs_dpdk import OvsDpdk
from repro.switches.t4p4s import T4P4S
from repro.switches.vale import Vale

#: A burst as run-length (flow, count) pairs, flows drawn from a space a
#: few times wider than the small capacities used below so eviction is
#: actually exercised.
runs_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=8)),
    min_size=1,
    max_size=40,
)


def _frames(runs) -> int:
    return sum(count for _, count in runs)


def _block(runs, mac_base: int = 0xAA0000, dst_mac: int = 0xBB0000) -> PacketBlock:
    """One block carrying ``runs`` as its flow summary."""
    return PacketBlock(
        64, runs[0][0], mac_base + runs[0][0], dst_mac, 0.0,
        count=_frames(runs), flows=tuple(runs) if len(runs) > 1 else None,
    )


def _packets(runs, mac_base: int = 0xAA0000, dst_mac: int = 0xBB0000) -> list[Packet]:
    """The same frames as :func:`_block`, one Packet each."""
    return [
        Packet(size=64, flow_id=flow, src_mac=mac_base + flow, dst_mac=dst_mac)
        for flow, count in runs
        for _ in range(count)
    ]


class TestOvsEmcProperties:
    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_bounded(self, runs):
        sw = OvsDpdk(Simulator(), emc_entries=16)
        for flow, count in runs:
            sw._classify_run(flow, count, None)
        stats = sw.cache_stats()
        assert stats["emc_entries"] <= stats["emc_capacity"] == 16

    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_hit_miss_conservation(self, runs):
        sw = OvsDpdk(Simulator(), emc_entries=16)
        for flow, count in runs:
            sw._classify_run(flow, count, None)
        stats = sw.cache_stats()
        # A miss consumes exactly one frame (the installer); every other
        # frame hits: hits + misses == frames offered.
        assert stats["emc_hits"] + stats["emc_misses"] == _frames(runs)
        assert stats["emc_evictions"] <= stats["emc_misses"]
        assert stats["upcalls"] == stats["megaflows"]

    @given(runs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_block_fold_equals_run_fold(self, runs):
        """Classifying a multi-flow block == classifying its runs."""
        folded = OvsDpdk(Simulator(), emc_entries=16)
        block = _block(runs)
        cycles_block = folded._proc_cycles([block], None, block.count, 64 * block.count)

        unrolled = OvsDpdk(Simulator(), emc_entries=16)
        cycles_runs = unrolled.params.proc.cycles(block.count, 64 * block.count)
        for flow, count in runs:
            cycles_runs += unrolled._classify_run(flow, count, None)

        assert cycles_block == cycles_runs
        assert folded.cache_stats() == unrolled.cache_stats()


class TestValeMacTableProperties:
    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_bounded_and_entries_balance(self, runs):
        sw = Vale(Simulator(), mac_entries=16)
        for flow, _count in runs:
            sw._learn_src(0xAA0000 + flow, None)
        stats = sw.cache_stats()
        assert stats["mac_entries"] <= stats["mac_capacity"] == 16
        # Every learn adds one entry, every eviction removes one.
        assert stats["mac_entries"] == stats["mac_learned"] - stats["mac_evictions"]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=63), st.integers(min_value=1, max_value=8)
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=8),
        runs_strategy,
    )
    @seed(20261017)
    @settings(max_examples=40, deadline=None)
    def test_block_fold_equals_per_frame_fold(self, head, flow1_count, tail):
        """Forwarding a multi-flow block == forwarding its frames one by one.

        Flow 1's source MAC is the traffic's destination MAC, so a run of
        flow 1 mid-block makes the destination known part-way through:
        the frames ahead of it flood, the frames after it do not (until
        an eviction forgets it again).
        """
        runs = [*head, (1, flow1_count), *tail]
        path = SimpleNamespace(input=None)
        folded = Vale(Simulator(), mac_entries=16)
        folded._on_forward([_block(runs, DEFAULT_SRC_MAC, DEFAULT_DST_MAC)], path)
        unrolled = Vale(Simulator(), mac_entries=16)
        unrolled._on_forward(_packets(runs, DEFAULT_SRC_MAC, DEFAULT_DST_MAC), path)
        assert folded.cache_stats() == unrolled.cache_stats()


def _armed_t4p4s(capacity: int = 16) -> T4P4S:
    sw = T4P4S(Simulator())
    sw.on_flow_population(FlowPopulation(flows=64))
    sw.flow_table_entries = capacity
    return sw


class TestT4p4sFlowTableProperties:
    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_bounded_and_frames_conserved(self, runs):
        sw = _armed_t4p4s()
        blocks = [
            PacketBlock(64, flow, 0xAA0000 + flow, 0xBB0000, 0.0, count=count)
            for flow, count in runs
        ]
        cycles = sw._flow_table_cycles(blocks)
        stats = sw.cache_stats()
        assert cycles > 0.0
        assert stats["flow_entries"] <= stats["flow_capacity"] == 16
        assert stats["flow_hits"] + stats["flow_misses"] == _frames(runs)
        assert stats["flow_evictions"] <= stats["flow_misses"]

    @given(runs_strategy)
    @seed(20261017)
    @settings(max_examples=40, deadline=None)
    def test_block_fold_equals_per_frame_fold(self, runs):
        """A multi-flow block costs, bit for bit, what its frames cost one
        by one: every frame pays the lookup at the occupancy it sees, so
        the frames after a miss see the table one entry fuller."""
        folded = _armed_t4p4s()
        unrolled = _armed_t4p4s()
        cycles_block = folded._flow_table_cycles([_block(runs)])
        cycles_frames = unrolled._flow_table_cycles(_packets(runs))
        assert repr(cycles_block) == repr(cycles_frames)
        assert folded.cache_stats() == unrolled.cache_stats()

    @given(runs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_lookup_cost_rises_with_occupancy(self, runs):
        """The occupancy-dependent term: a fuller table is never cheaper
        for the same traffic."""
        empty = T4P4S(Simulator())
        empty.on_flow_population(FlowPopulation(flows=64))
        full = T4P4S(Simulator())
        full.on_flow_population(FlowPopulation(flows=64))
        # Pre-fill 'full' to half capacity with flows outside the strategy
        # space so the offered runs see identical hit/miss sequences.
        for key in range(1000, 1000 + full.flow_table_entries // 2):
            full._flow_keys[key] = 1
        blocks = [
            PacketBlock(64, flow, 0xAA0000 + flow, 0xBB0000, 0.0, count=count)
            for flow, count in runs
        ]
        blocks2 = [
            PacketBlock(64, flow, 0xAA0000 + flow, 0xBB0000, 0.0, count=count)
            for flow, count in runs
        ]
        assert full._flow_table_cycles(blocks2) >= empty._flow_table_cycles(blocks)


class TestFifoVictims:
    """Each table evicts its oldest entry: insertion order, where a hit or
    a re-learn leaves an entry's slot alone."""

    def test_ovs_emc(self):
        sw = OvsDpdk(Simulator(), emc_entries=4)
        for flow in (0, 1, 2, 3, 0, 9):
            sw._classify_run(flow, 1, None)
        assert list(sw._emc) == [1, 2, 3, 9]
        # The replay's clone evicts the same victim, leaving the original.
        clone = _clone_switch(sw)
        clone._classify_run(10, 1, None)
        assert list(clone._emc) == [2, 3, 9, 10]
        assert list(sw._emc) == [1, 2, 3, 9]

    def test_vale_mac_table(self):
        sw = Vale(Simulator(), mac_entries=4)
        for src, port in ((0, "a"), (1, "a"), (2, "a"), (3, "a"), (0, "b"), (9, "a")):
            sw._learn_src(src, port)
        assert list(sw._mac_table.items()) == [(1, "a"), (2, "a"), (3, "a"), (9, "a")]
        sw._learn_src(1, "b")
        sw._learn_src(10, "a")
        assert list(sw._mac_table) == [2, 3, 9, 10]
        assert sw.mac_evictions == 2

    def test_t4p4s_flow_table(self):
        sw = _armed_t4p4s(capacity=4)
        for flow in (0, 1, 2, 3, 0, 9):
            sw._flow_table_cycles([PacketBlock(64, flow, 0xAA0000 + flow, 0xBB0000, 0.0)])
        assert list(sw._flow_keys) == [1, 2, 3, 9]
        assert sw.flow_evictions == 1


class TestDeterministicEviction:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pinned_seed_reproduces_cache_history(self, seed):
        """Same population + same seed => identical eviction history."""
        pop = FlowPopulation(flows=200, dist="zipf")

        def run_once():
            sw = OvsDpdk(Simulator(), emc_entries=32)
            rng = np.random.default_rng(seed)
            for _ in range(20):
                for flow in pop.sample_flows(rng, 32):
                    sw._classify_run(int(flow), 1, None)
            return sw.cache_stats()

        assert run_once() == run_once()
