"""Unit tests for the packet model."""

from __future__ import annotations

import pytest

from repro.core.packet import Packet, make_batch


def test_default_packet_is_minimum_frame():
    assert Packet().size == 64


def test_runt_frame_rejected():
    with pytest.raises(ValueError):
        Packet(size=60)


def test_sequence_numbers_are_unique_and_increasing():
    a, b = Packet(), Packet()
    assert b.seq > a.seq


def test_latency_requires_both_stamps():
    packet = Packet()
    assert packet.latency_ns is None
    packet.tx_timestamp = 100.0
    assert packet.latency_ns is None
    packet.rx_timestamp = 350.0
    assert packet.latency_ns == pytest.approx(250.0)


def test_make_batch_produces_one_flow():
    batch = make_batch(8, size=256, t_created=123.0, flow_id=5)
    assert len(batch) == 8
    assert all(p.size == 256 for p in batch)
    assert all(p.flow_id == 5 for p in batch)
    assert all(p.t_created == 123.0 for p in batch)


def test_make_batch_default_macs_match_forwarding_tables():
    batch = make_batch(1, size=64, t_created=0.0)
    # The t4p4s dmac table installs entries starting at this address.
    assert batch[0].dst_mac == 0x02_00_00_00_00_02


def test_packet_not_probe_by_default():
    assert not Packet().is_probe


def test_hops_counter_starts_at_zero():
    assert Packet().hops == 0


# -- flyweight blocks -------------------------------------------------------


def test_block_reserves_a_contiguous_seq_range():
    from repro.core.packet import PacketBlock

    block = PacketBlock(count=4)
    follower = Packet()
    assert follower.seq == block.seq0 + 4


def test_block_materialize_yields_per_packet_equivalents():
    from repro.core.packet import PacketBlock

    block = PacketBlock(size=128, flow_id=3, t_created=42.0, count=5, hops=2)
    packets = block.materialize()
    assert [p.seq for p in packets] == list(range(block.seq0, block.seq0 + 5))
    assert all(
        (p.size, p.flow_id, p.t_created, p.hops) == (128, 3, 42.0, 2)
        for p in packets
    )


def test_block_split_keeps_fifo_seq_order():
    from repro.core.packet import PacketBlock

    block = PacketBlock(count=8)
    seq0 = block.seq0
    front = block.split(3)
    assert (front.count, front.seq0) == (3, seq0)
    assert (block.count, block.seq0) == (5, seq0 + 3)


def test_block_constructor_validates_size_and_count():
    from repro.core.packet import PacketBlock

    with pytest.raises(ValueError):
        PacketBlock(size=60)
    with pytest.raises(ValueError):
        PacketBlock(count=0)


def test_block_dropped_by_a_full_ring_keeps_its_fields():
    from repro.core.packet import make_block
    from repro.core.ring import Ring

    ring = Ring(8)
    ring.push(make_block(8, 64, 0.0))
    held = make_block(4, 128, 5.0, flow_id=3)
    assert not ring.push(held)
    fresh = make_block(2, 256, 9.0, flow_id=7)
    assert (held.size, held.count, held.flow_id, held.t_created) == (128, 4, 3, 5.0)
    assert fresh is not held


def test_per_packet_emission_context_restores_mode():
    from repro.core.packet import blocks_enabled, per_packet_emission

    assert blocks_enabled()
    with per_packet_emission():
        assert not blocks_enabled()
    assert blocks_enabled()


def test_batch_stats_mixes_packets_and_blocks():
    from repro.core.packet import batch_count, batch_stats, make_block

    batch = [Packet(size=64), make_block(10, 128, 0.0), Packet(size=256)]
    assert batch_count(batch) == 12
    assert batch_stats(batch) == (12, 64 + 10 * 128 + 256)
