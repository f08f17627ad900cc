"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import units
from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.ring import Ring
from repro.core.stats import LatencySample, RunningStats
from repro.cpu.costmodel import Cost
from repro.switches.jitter import CostJitter

frame_sizes = st.integers(min_value=64, max_value=1518)
rates = st.floats(min_value=1e3, max_value=100e9, allow_nan=False)


class TestUnitsProperties:
    @given(frame_sizes)
    def test_wire_bytes_strictly_larger(self, size):
        assert units.wire_bytes(size) == size + 20

    @given(frame_sizes, st.floats(min_value=1.0, max_value=200e6))
    def test_pps_gbps_round_trip(self, size, pps):
        gbps = units.pps_to_gbps(pps, size)
        assert units.gbps_to_pps(gbps, size) == np.float64(pps) or math.isclose(
            units.gbps_to_pps(gbps, size), pps, rel_tol=1e-9
        )

    @given(frame_sizes)
    def test_line_rate_monotone_in_frame_size(self, size):
        if size < 1518:
            assert units.line_rate_pps(size) > units.line_rate_pps(size + 1)

    @given(frame_sizes)
    def test_line_rate_normalises_to_exactly_10g(self, size):
        assert units.pps_to_gbps(units.line_rate_pps(size), size) == math.isclose(
            units.pps_to_gbps(units.line_rate_pps(size), size), 10.0
        ) or math.isclose(units.pps_to_gbps(units.line_rate_pps(size), size), 10.0)

    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=1e8, max_value=5e9))
    def test_cycles_ns_inverse(self, cycles, freq):
        assert math.isclose(
            units.ns_to_cycles(units.cycles_to_ns(cycles, freq), freq),
            cycles,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=50))
    def test_events_always_fire_in_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_executed == len(times)

    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0, max_value=1000),
    )
    def test_run_until_partitions_events(self, times, horizon):
        sim = Simulator()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run_until(horizon)
        assert fired == sorted(t for t in times if t <= horizon)
        assert sim.pending() == sum(1 for t in times if t > horizon)


class TestRingProperties:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=200))
    def test_conservation(self, capacity, n):
        ring = Ring(capacity)
        accepted = ring.push_batch([Packet() for _ in range(n)])
        assert accepted == min(capacity, n)
        assert ring.dropped == n - accepted
        assert len(ring) == accepted
        popped = ring.pop_batch(n + 10)
        assert len(popped) == accepted
        assert len(ring) == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=100))
    def test_fifo_through_interleaved_ops(self, ops):
        """Interleave pushes (positive counts) and pops; order preserved."""
        ring = Ring(10_000)
        pushed = []
        popped = []
        counter = 0
        for op in ops:
            if op % 2 == 0:
                packet = Packet(flow_id=counter)
                counter += 1
                ring.push(packet)
                pushed.append(packet.flow_id)
            else:
                popped.extend(p.flow_id for p in ring.pop_batch(op % 5))
        popped.extend(p.flow_id for p in ring.pop_batch(len(ring)))
        assert popped == pushed


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=200))
    def test_running_stats_matches_numpy(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        assert math.isclose(stats.mean, float(np.mean(values)), rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(
            stats.std, float(np.std(values, ddof=1)), rel_tol=1e-6, abs_tol=1e-6
        )

    @given(
        st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentiles_match_numpy(self, values, q):
        sample = LatencySample()
        for value in values:
            sample.add(value)
        assert math.isclose(
            sample.percentile_us(q),
            float(np.percentile(values, q)) / 1e3,
            rel_tol=1e-6,
            abs_tol=1e-9,
        )

    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=100))
    def test_percentile_0_and_100_are_min_max(self, values):
        sample = LatencySample()
        for value in values:
            sample.add(value)
        assert math.isclose(sample.percentile_us(0), min(values) / 1e3, abs_tol=1e-9)
        assert math.isclose(sample.percentile_us(100), max(values) / 1e3, abs_tol=1e-9)


class TestCostProperties:
    costs = st.builds(
        Cost,
        per_batch=st.floats(min_value=0, max_value=1e4),
        per_packet=st.floats(min_value=0, max_value=1e4),
        per_byte=st.floats(min_value=0, max_value=10),
    )

    @given(costs, st.integers(min_value=1, max_value=256), st.integers(min_value=64, max_value=1518))
    def test_cost_monotone_in_packets(self, cost, n, size):
        assert cost.cycles(n + 1, (n + 1) * size) >= cost.cycles(n, n * size)

    @given(costs, costs, st.integers(min_value=1, max_value=256), st.integers(min_value=0, max_value=10**6))
    def test_addition_is_linear(self, a, b, n, total):
        assert math.isclose(
            (a + b).cycles(n, total), a.cycles(n, total) + b.cycles(n, total), rel_tol=1e-9
        )

    @given(costs, st.floats(min_value=1e-6, max_value=100), st.integers(min_value=1, max_value=64))
    def test_scaling_scales_cycles(self, cost, factor, n):
        assert math.isclose(
            cost.scaled(factor).cycles(n, n * 64),
            factor * cost.cycles(n, n * 64),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )

    @given(costs, st.integers(min_value=64, max_value=1518))
    def test_amortisation_decreases_with_batch(self, cost, size):
        assert cost.cycles_per_packet(size, 64) <= cost.cycles_per_packet(size, 1)


class TestJitterProperties:
    @settings(max_examples=25)
    @given(st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=0, max_value=2**31))
    def test_multiplier_positive(self, sigma, seed):
        jitter = CostJitter(np.random.default_rng(seed), sigma=sigma, period_ns=1.0)
        assert all(jitter.multiplier(float(t)) > 0 for t in range(100))

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.8))
    def test_reciprocal_mean_near_one(self, sigma):
        jitter = CostJitter(np.random.default_rng(7), sigma=sigma, period_ns=1.0)
        inverse = [1.0 / jitter.multiplier(float(t)) for t in range(60_000)]
        assert abs(float(np.mean(inverse)) - 1.0) < 0.08


class TestThroughputMonotonicity:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([(64, 256), (256, 1024), (64, 1024)]))
    def test_analytic_capacity_decreases_with_frame_size(self, sizes):
        from repro.analysis.bottleneck import estimate

        small, large = sizes
        for name in ("vale", "t4p4s"):
            assert (
                estimate(name, "p2p", small).core_capacity_pps
                > estimate(name, "p2p", large).core_capacity_pps
            )

    @settings(max_examples=6, deadline=None)
    @given(st.floats(min_value=1.1, max_value=3.0))
    def test_scaling_all_costs_scales_capacity(self, factor):
        from dataclasses import replace

        from repro.analysis.bottleneck import estimate
        from repro.switches.params import VPP_PARAMS

        base = estimate("vpp", "p2p", 64).core_capacity_pps
        slowed = replace(
            VPP_PARAMS,
            proc=VPP_PARAMS.proc.scaled(factor),
            nic_rx=VPP_PARAMS.nic_rx.scaled(factor),
            nic_tx=VPP_PARAMS.nic_tx.scaled(factor),
        )
        scaled = estimate("vpp", "p2p", 64, params=slowed).core_capacity_pps
        assert math.isclose(scaled, base / factor, rel_tol=1e-9)


class TestBlockProperties:
    """Flyweight blocks: split preserves the frame set and seq range."""

    @given(st.integers(min_value=2, max_value=512), st.data())
    def test_split_partitions_the_seq_range(self, count, data):
        from repro.core.packet import PacketBlock

        block = PacketBlock(count=count, t_created=7.0)
        seq0 = block.seq0
        k = data.draw(st.integers(min_value=1, max_value=count - 1))
        front = block.split(k)
        assert (front.count, front.seq0) == (k, seq0)
        assert (block.count, block.seq0) == (count - k, seq0 + k)

    @given(st.integers(min_value=2, max_value=64), st.data())
    def test_split_partitions_the_materialized_frames(self, count, data):
        from repro.core.packet import PacketBlock

        block = PacketBlock(size=128, flow_id=2, count=count, hops=1)
        seq0 = block.seq0
        k = data.draw(st.integers(min_value=1, max_value=count - 1))
        front = block.split(k)
        seqs = [p.seq for p in front.materialize()] + [p.seq for p in block.materialize()]
        assert seqs == list(range(seq0, seq0 + count))


class TestRingFrameConservation:
    """Every frame pushed is either enqueued or counted as dropped."""

    @given(
        st.integers(min_value=1, max_value=128),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=48), st.integers(min_value=0, max_value=64)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_push_pop_conserves_frames(self, capacity, steps):
        from repro.core.packet import Packet, make_block

        ring = Ring(capacity)
        offered = 0
        popped = 0
        for push_count, pop_count in steps:
            item = Packet() if push_count == 1 else make_block(push_count, 64, 0.0)
            ring.push(item)
            offered += push_count
            batch = ring.pop_batch(pop_count)
            got = sum(i.count for i in batch)
            assert got <= pop_count
            popped += got
        assert offered == ring.enqueued + ring.dropped
        assert ring.enqueued == popped + len(ring)
        assert 0 <= len(ring) <= capacity

    @given(
        st.integers(min_value=4, max_value=64),
        st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=12),
    )
    def test_pop_returns_seqs_in_push_order(self, capacity, pushes):
        from repro.core.packet import make_block

        ring = Ring(capacity)
        for count in pushes:
            ring.push(make_block(count, 64, 0.0))
        drained = []
        while len(ring):
            for item in ring.pop_batch(5):
                drained.extend(range(item.seq0, item.seq0 + item.count))
        assert drained == sorted(drained)


class TestRingFaultStateProperties:
    """Frame conservation must survive arbitrary fault/restore interleavings.

    The fault layer swaps a ring's class (freeze/disconnect) and swaps it
    back; under any interleaving of pushes, pops and fault transitions,
    every offered frame must still be accounted for as enqueued, dropped
    or still queued -- and FIFO order must survive a freeze.

    Seeds are pinned so CI replays the exact example corpus.
    """

    #: push(n>0) / pop(n<0) / freeze(-1000) / disconnect(-2000) / restore(0)
    ops = st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=32),     # push n frames
            st.integers(min_value=-40, max_value=-1),   # pop up to |n|
            st.sampled_from([-1000, -2000, 0]),         # fault transitions
        ),
        min_size=1,
        max_size=60,
    )

    @seed(20260806)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=96), ops)
    def test_conservation_with_faults_active(self, capacity, ops):
        from repro.core.packet import Packet, make_block
        from repro.core.ring import disconnect_ring, freeze_ring, restore_ring

        ring = Ring(capacity)
        offered = 0
        popped = 0
        lost = 0  # in-flight frames a disconnect discards (it reports them)
        for op in ops:
            if op == 0:
                restore_ring(ring)
            elif op == -1000:
                restore_ring(ring)
                freeze_ring(ring)
            elif op == -2000:
                restore_ring(ring)
                lost += disconnect_ring(ring)
            elif op > 0:
                item = Packet() if op == 1 else make_block(op, 64, 0.0)
                ring.push(item)
                offered += op
            else:
                popped += sum(i.count for i in ring.pop_batch(-op))
        restore_ring(ring)
        assert offered == ring.enqueued + ring.dropped
        assert ring.enqueued == popped + len(ring) + lost
        assert 0 <= len(ring) <= ring.capacity

    @seed(20260806)
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=8, max_value=64),
        st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=10),
        st.data(),
    )
    def test_freeze_preserves_fifo_order(self, capacity, pushes, data):
        from repro.core.packet import make_block
        from repro.core.ring import freeze_ring, restore_ring

        ring = Ring(capacity)
        for count in pushes:
            ring.push(make_block(count, 64, 0.0))
            if data.draw(st.booleans()):
                freeze_ring(ring)
                assert ring.pop_batch(capacity) == []  # frozen: nothing moves
                restore_ring(ring)
        drained = []
        while len(ring):
            for item in ring.pop_batch(3):
                drained.extend(range(item.seq0, item.seq0 + item.count))
        assert drained == sorted(drained)


class TestBlockIntegrityUnderFaults:
    """Split/truncate invariants hold for blocks bounced off faulted rings."""

    @seed(20260806)
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=256),
        st.integers(min_value=1, max_value=300),
        st.data(),
    )
    def test_split_after_fault_round_trip_keeps_seq_range(self, count, cap, data):
        from repro.core.packet import make_block
        from repro.core.ring import disconnect_ring, restore_ring

        ring = Ring(cap)
        block = make_block(count, 64, 0.0)
        seq0, total = block.seq0, block.count

        bounced = make_block(5, 64, 0.0)  # dropped on the floor, released
        disconnect_ring(ring)
        assert ring.push(bounced) == 0
        restore_ring(ring)

        # The surviving block still splits into a clean seq partition.
        k = data.draw(st.integers(min_value=1, max_value=count - 1))
        front = block.split(k)
        assert front.count + block.count == total
        assert front.seq0 == seq0
        assert block.seq0 == seq0 + k
        assert front.seq0 + front.count == block.seq0

