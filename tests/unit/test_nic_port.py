"""Unit tests for NIC ports, wires and serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.packet import DEFAULT_SRC_MAC, Packet, PacketBlock
from repro.core.units import line_rate_pps, wire_time_ns
from repro.nic.port import (
    _FNV_PRIME,
    _MASK64,
    NicPort,
    _hiccup_base,
    _hiccup_limit,
    _name_hash,
    dual_port_nic,
)


def _pair(sim, **kwargs):
    a = NicPort(sim, "a", **kwargs)
    b = NicPort(sim, "b", **kwargs)
    a.connect(b)
    return a, b


def test_send_requires_connection(sim):
    port = NicPort(sim, "lonely")
    with pytest.raises(RuntimeError):
        port.send_batch([Packet()])


def test_connect_is_symmetric(sim):
    a, b = _pair(sim)
    assert a.peer is b and b.peer is a


def test_frames_arrive_after_serialization_and_pcie(sim):
    a, b = _pair(sim, pcie_latency_ns=100.0)
    a.send_batch([Packet(size=64)])
    sim.run()
    assert len(b.rx_ring) == 1
    assert sim.now == pytest.approx(wire_time_ns(64) + 100.0)


def test_sink_bypasses_rx_ring(sim):
    a, b = _pair(sim)
    seen = []
    b.sink = seen.extend
    a.send_batch([Packet(), Packet()])
    sim.run()
    assert len(seen) == 2
    assert len(b.rx_ring) == 0


def test_line_rate_is_enforced(sim):
    a, b = _pair(sim)
    received = []
    b.sink = received.extend
    # Offer 2x line rate for 100 us; no backlog limit issues (sink drains).
    n = int(2 * line_rate_pps(64) * 100e-6)
    a.send_batch([Packet() for _ in range(min(n, a.tx_slots))])
    sim.run()
    # All accepted frames arrive exactly back-to-back at line rate.
    assert a.tx_packets == len(received)
    assert sim.now == pytest.approx(a.tx_packets * wire_time_ns(64), rel=1e-6)


def test_tx_backlog_drops_when_ring_full(sim):
    a, b = _pair(sim, tx_slots=8)
    sent = a.send_batch([Packet() for _ in range(20)])
    assert sent <= 10  # 8 slots (+ rounding of the time-based bound)
    assert a.tx_dropped == 20 - sent


def test_tx_backlog_limit_scales_with_frame_size(sim):
    a64, _ = _pair(sim, tx_slots=8)
    a64.send_batch([Packet(size=64) for _ in range(20)])
    sim2 = type(sim)()
    a1024 = NicPort(sim2, "a", tx_slots=8)
    b1024 = NicPort(sim2, "b", tx_slots=8)
    a1024.connect(b1024)
    a1024.send_batch([Packet(size=1024) for _ in range(20)])
    # Same *count* budget regardless of frame size.
    assert a1024.tx_packets == a64.tx_packets


def test_hw_tx_timestamping_only_probes(sim):
    a, b = _pair(sim)
    a.timestamp_tx = True
    probe = Packet(is_probe=True)
    plain = Packet()
    a.send_batch([plain, probe])
    sim.run()
    assert probe.tx_timestamp is not None
    assert plain.tx_timestamp is None


def test_hw_rx_timestamping_at_wire_arrival(sim):
    a, b = _pair(sim, pcie_latency_ns=500.0)
    b.timestamp_rx = True
    probe = Packet(is_probe=True)
    a.send_batch([probe])
    sim.run()
    # RX stamp is at wire arrival, before the PCIe delay.
    assert probe.rx_timestamp == pytest.approx(wire_time_ns(64))


def test_existing_tx_timestamp_not_overwritten(sim):
    a, b = _pair(sim)
    a.timestamp_tx = True
    probe = Packet(is_probe=True)
    probe.tx_timestamp = 42.0
    a.send_batch([probe])
    sim.run()
    assert probe.tx_timestamp == 42.0


def test_rx_moderation_quantises_delivery(sim):
    a, b = _pair(sim, pcie_latency_ns=100.0)
    b.rx_moderation_ns = 10_000.0
    a.send_batch([Packet()])
    sim.run()
    # Wire arrival ~67ns + PCIe 100ns -> released at the 10us boundary.
    assert sim.now == pytest.approx(10_000.0)
    assert len(b.rx_ring) == 1


def test_rx_moderation_batches_multiple_sends(sim):
    a, b = _pair(sim, pcie_latency_ns=0.0)
    b.rx_moderation_ns = 10_000.0
    a.send_batch([Packet()])
    sim.after(3_000, lambda: a.send_batch([Packet()]))
    sim.run()
    assert len(b.rx_ring) == 2
    assert sim.now == pytest.approx(10_000.0)


def test_dual_port_nic_names(sim):
    p0, p1 = dual_port_nic(sim, "nic0")
    assert p0.name == "nic0.p0"
    assert p1.name == "nic0.p1"


def test_tx_bytes_counter(sim):
    a, b = _pair(sim)
    a.send_batch([Packet(size=128), Packet(size=256)])
    assert a.tx_bytes == 384


# -- block serialisation: O(1) bounds vs the per-frame loop -------------------

#: Drop probabilities the block bound must handle: off, the default, one
#: that passes about half the blocks, one that drops everything, and one
#: whose ``prob * 2**53`` is an integer (the strict-inequality edge).
PROBS = (0.0, 1e-4, 0.5, 1.0, 2.0**-20)


class _PerFrameTelemetry:
    """Flow telemetry that records nothing.

    A port with flow telemetry attached always serialises frame by frame,
    so a twin port carrying this is the per-frame reference.
    """

    def _ignore(self, *args) -> None:
        pass

    wire_runs = drop_runs = wire_split_runs = _ignore


def _make_item(spec):
    """Fresh batch item from a drawn spec (send_batch mutates blocks)."""
    size, t_created, flow_id, hops, runs, packet = spec
    if packet:
        return Packet(size=size, flow_id=flow_id, t_created=t_created, hops=hops, seq=0)
    flows = tuple((flow_id + j, run) for j, run in enumerate(runs)) if len(runs) > 1 else None
    return PacketBlock(
        size, flow_id, DEFAULT_SRC_MAC + flow_id, t_created=t_created,
        count=sum(runs), hops=hops, seq0=0, flows=flows,
    )


def _serialise(calls, prob, salt, tx_slots, busy_offset, per_frame):
    """Drive ``calls`` [(time, [spec...]), ...] through one fresh port."""
    sim = Simulator()
    a = NicPort(sim, "sut.p1", tx_slots=tx_slots)
    b = NicPort(sim, "gen.p1")
    a.connect(b)
    a.driver_drop_prob = prob
    a.set_hiccup_salt(salt)
    a._tx_busy_until_ns = busy_offset
    if per_frame:
        a.flowstats = _PerFrameTelemetry()
    wire = []
    b._receive = lambda arrivals: wire.extend(
        (item.count, item.flows, item.flow_id, item.src_mac, repr(t)) for item, t in arrivals
    )
    returned = []
    for time_ns, specs in calls:
        items = [_make_item(spec) for spec in specs]
        sim.at(time_ns, lambda items=items: returned.append(a.send_batch(items)))
    sim.run()
    return (
        returned, a.tx_packets, a.tx_bytes, a.tx_dropped, a.driver_drops,
        repr(a._tx_busy_until_ns), wire,
    )


_item_spec = st.tuples(
    st.sampled_from([64, 65, 128, 1024, 1518]),
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
    st.integers(min_value=0, max_value=1 << 34),
    st.integers(min_value=0, max_value=6),
    st.one_of(
        st.integers(min_value=1, max_value=512).map(lambda n: [n]),
        st.lists(st.integers(min_value=1, max_value=96), min_size=2, max_size=5),
    ),
    st.sampled_from([False, False, False, True]),
)


@settings(max_examples=150, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20_000.0),
            st.lists(_item_spec, min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda calls: sorted(calls, key=lambda call: call[0])),
    prob=st.sampled_from(PROBS),
    salt=st.sampled_from([0, 1, (1 << 62) - 1]) | st.integers(min_value=0, max_value=(1 << 64) - 1),
    tx_slots=st.sampled_from([1, 4, 31, 64, 512]),
    busy_offset=st.floats(min_value=0.0, max_value=40_000.0),
)
def test_block_path_matches_per_frame_loop(calls, prob, salt, tx_slots, busy_offset):
    fast = _serialise(calls, prob, salt, tx_slots, busy_offset, per_frame=False)
    reference = _serialise(calls, prob, salt, tx_slots, busy_offset, per_frame=True)
    assert fast == reference


def _expected_hiccups(port, blocks):
    """Per-frame reference of the hiccup test over one call's blocks."""
    drops = 0
    index = 0
    for block in blocks:
        base = _hiccup_base(
            port._name_hash, int(block.t_created), block.size, block.flow_id, block.hops
        )
        for i in range(index, index + block.count):
            value = ((base ^ (i & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
            drops += (value >> 11) / float(1 << 53) < port.driver_drop_prob
        index += block.count
    return drops


def _salt_for_base(port, base, t_created, size, flow_id, hops):
    """Salt that makes ``_hiccup_base`` of the given fields equal ``base``."""
    inverse = pow(_FNV_PRIME, -1, 1 << 64)
    value = base
    for field in (hops, flow_id, size, t_created):
        value = ((value * inverse) & _MASK64) ^ (field & 0xFFFFFFFF)
    return value ^ _name_hash(port.name)


#: (index, count) of the block under test: aligned, unaligned and
#: straddling a power-of-two boundary of the frame position.
BLOCK_RANGES = ((0, 1), (5, 1), (0, 32), (1, 32), (3, 5), (31, 2), (96, 32), (100, 412), (511, 2))


def _block_base_cases(rng):
    """(base, index, count): random bases plus bases at each edge of the
    window for every alignment ``j`` up to the block's own ``k``.

    ``base ^ index`` gets its bits from ``j`` up set so that they alone
    hash to the limit (or just below it), or to the highest value whose
    window does not wrap (or just above it); frames whose high bits fall
    below drop, so a bound computed with the wrong ``k`` or limit, or a
    wrong wrap test, lets a dropping frame through.
    """
    limit = _hiccup_limit(1e-4) << 11
    inverse = pow(_FNV_PRIME, -1, 1 << 64)
    for index, count in BLOCK_RANGES:
        k = (index ^ (index + count - 1)).bit_length()
        for j in range(k + 1):
            top = (_MASK64 - ((1 << j) - 1) * _FNV_PRIME) >> j << j
            for c in (limit, limit - (1 << j), top, top + (1 << j)):
                high = (c * inverse) & _MASK64  # H * P == c, H a multiple of 2**j
                yield high ^ index ^ rng.randrange(1 << j), index, count
        for _ in range(4):
            yield rng.randrange(1 << 64), index, count


def test_block_bound_matches_brute_force():
    rng = random.Random(20191209)
    fields = dict(t_created=1234.0, size=64, flow_id=7, hops=1)
    for base, index, count in _block_base_cases(rng):
        port = NicPort(Simulator(), "sut.p1", tx_slots=1 << 12)
        port.connect(NicPort(port.sim, "gen.p1"))
        port.set_hiccup_salt(_salt_for_base(port, base, 1234, 64, 7, 1))
        blocks = [PacketBlock(count=count, seq0=0, **fields)]
        if index:
            blocks.insert(0, PacketBlock(count=index, seq0=0, **fields))
        expected = _expected_hiccups(port, blocks)
        port.send_batch(blocks)
        assert port.driver_drops == expected, (base, index, count)
        assert port.tx_packets + port.driver_drops == index + count


@pytest.mark.parametrize(
    "prob", PROBS + (5e-324, 0.9999999999999999, 3.0, -1.0, float("nan"))
)
def test_hiccup_limit_is_the_float_test(prob):
    limit = _hiccup_limit(prob)
    for n in {0, 1, limit - 1, limit, limit + 1, (1 << 53) - 1}:
        if 0 <= n < 1 << 53:
            assert (n / float(1 << 53) < prob) == (n < limit), n


def test_clean_block_skips_the_per_frame_loop(sim):
    # The block path decides from the cached integer limit alone: with it
    # forced to zero, a block goes out whole although the probability the
    # per-frame loop reads would drop every frame.
    a, b = _pair(sim)
    a.driver_drop_prob = 1.0
    a._drop_limit = 0
    assert a.send_batch([PacketBlock(count=32, t_created=5.0, seq0=0)]) == 32
    assert a.driver_drops == 0
    a.flowstats = _PerFrameTelemetry()
    assert a.send_batch([PacketBlock(count=32, t_created=5.0, seq0=0)]) == 0
    assert a.driver_drops == 32
