"""Unit tests for NIC ports, wires and serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.lattice import Lattice
from repro.core.packet import DEFAULT_SRC_MAC, Packet, PacketBlock
from repro.core.units import line_rate_pps, wire_time_ns
from repro.nic.port import NicPort, _drop_gap, dual_port_nic
from tests._helpers import count_opcodes


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


# -- block serialisation: O(1) tests vs the per-frame loop --------------------

#: Drop probabilities the block path must handle: off, the default, one
#: that punctures most blocks, one that drops everything, and a small one.
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
    # Calls and busy clock from 0, or from up to 60 us below 2**20,
    # 2**21 or 2**22 ns, so that blocks straddle the power of two where
    # the busy clock's lattice ends.
    origin=st.just(0.0) | st.sampled_from([20, 21, 22]).flatmap(
        lambda k: st.floats(min_value=2.0**k - 60_000.0, max_value=2.0**k)
    ),
)
@example(
    # A 1024 B block fits the lattice below 2**21, where its step is an
    # odd number of ulps, and the next one crosses 2**21.
    calls=[(0.0, [(1024, 0.0, 0, 0, [2], False), (1024, 0.0, 0, 0, [8], False)])],
    prob=0.0, salt=0, tx_slots=512, busy_offset=0.0, origin=2.0**21 - 3000.0,
)
def test_block_path_matches_per_frame_loop(calls, prob, salt, tx_slots, busy_offset, origin):
    calls = [(origin + time_ns, specs) for time_ns, specs in calls]
    busy_offset += origin
    fast = _serialise(calls, prob, salt, tx_slots, busy_offset, per_frame=False)
    reference = _serialise(calls, prob, salt, tx_slots, busy_offset, per_frame=True)
    assert fast == reference


def _clean_block_opcodes(count):
    """Bytecodes ``NicPort.send_batch`` runs for one clean block of
    ``count`` frames, on the lattice an earlier block fitted."""
    sim = Simulator()
    sim.run_until(1_100_000.0)  # inside [2**20, 2**21) with room to spare
    a, _ = _pair(sim, tx_slots=1 << 20)
    a.driver_drop_prob = 0.0
    a.send_batch([PacketBlock(count=count)])
    opcodes = count_opcodes(
        lambda: a.send_batch([PacketBlock(count=count)]),
        (NicPort.send_batch.__code__, Lattice.add.__code__),
    )
    assert a.tx_packets == 2 * count
    return opcodes


def test_clean_block_costs_the_same_bytecodes_at_any_length():
    assert _clean_block_opcodes(256) == _clean_block_opcodes(32)


# -- the drop schedule ----------------------------------------------------------


def _drop_port(prob, salt=0, tx_slots=1 << 30):
    sim = Simulator()
    port = NicPort(sim, "sut-nic.p1", tx_slots=tx_slots)
    port.connect(NicPort(sim, "gen-nic.p1"))
    port.driver_drop_prob = prob
    port.set_hiccup_salt(salt)
    return port


def _schedule(port):
    return port.driver_drops, port._offered, port._next_drop


def _drop_ordinals(port, frames):
    """Ordinals among the next ``frames`` offered frames that the driver
    drops, offering them one :class:`Packet` per call."""
    dropped = []
    for ordinal in range(frames):
        before = port.driver_drops
        port.send_batch([Packet(seq=ordinal)])
        if port.driver_drops != before:
            dropped.append(ordinal)
    return dropped


_piece = st.tuples(
    st.sampled_from(["packet", "block", "flows"]),
    st.integers(min_value=1, max_value=64),
    st.booleans(),  # start a new send_batch call with this piece
)


@settings(max_examples=120, deadline=None)
@given(
    pieces=st.lists(_piece, min_size=1, max_size=40),
    prob=st.sampled_from([1e-4, 0.02, 0.3, 0.9]),
    salt=st.integers(min_value=0, max_value=(1 << 64) - 1),
    tx_slots=st.sampled_from([4, 64, 1 << 30]),
)
def test_any_split_drops_the_same_ordinals(pieces, prob, salt, tx_slots):
    # The frames offered to one port, split into calls, single-flow
    # blocks, multi-flow blocks (one flow per frame) and packets, drop
    # the ordinals that one-packet-per-call offering drops, and leave
    # the same schedule after every call.
    calls: list[list] = []
    total = 0
    for kind, length, new_call in pieces:
        if kind == "packet":
            length = 1
        if new_call or not calls:
            calls.append([])
        calls[-1].append((kind, total, length))
        total += length
    reference = _drop_port(prob, salt, tx_slots)
    survived = []
    states = [_schedule(reference)]
    for ordinal in range(total):
        survived.append(reference.send_batch([Packet(seq=ordinal)]) == 1)
        states.append(_schedule(reference))

    port = _drop_port(prob, salt, tx_slots)
    received: list = []
    port.peer.sink = received.extend
    for call in calls:
        items = []
        for kind, first, length in call:
            if kind == "packet":
                items.append(Packet(seq=first))
            elif kind == "block" or length == 1:
                items.append(PacketBlock(flow_id=first, count=length, seq0=first))
            else:
                flows = tuple((first + j, 1) for j in range(length))
                items.append(PacketBlock(flow_id=first, count=length, seq0=first, flows=flows))
        sent = port.send_batch(items)
        end = call[-1][1] + call[-1][2]
        assert sent == sum(survived[call[0][1]:end])
        assert _schedule(port) == states[end]
    port.sim.run()

    got = {item.seq: item for item in received}
    for call in calls:
        for kind, first, length in call:
            alive = [o for o in range(first, first + length) if survived[o]]
            item = got.get(first)
            if item is None:
                assert alive == [], (kind, first)
            elif kind == "packet":
                assert [item.seq] == alive, (kind, first)
            elif kind == "block" or length == 1:
                # A single-flow block keeps no per-frame identity.
                assert item.count == len(alive), (kind, first)
            else:
                runs = item.flows or ((item.flow_id, item.count),)
                assert [flow for flow, _ in runs] == alive, (kind, first)


def test_drop_rate_is_binomial():
    prob, frames, block = 1e-3, 10**6, 100
    port = _drop_port(prob)
    for _ in range(frames // block):
        port.send_batch([PacketBlock(count=block, seq0=0)])
    mean = frames * prob
    sigma = math.sqrt(frames * prob * (1 - prob))
    assert port._offered == frames
    assert abs(port.driver_drops - mean) <= 5 * sigma


def test_salt_zero_restores_the_base_schedule():
    base = _drop_ordinals(_drop_port(0.01), 5_000)
    restored = _drop_port(0.01, salt=12345)
    restored.set_hiccup_salt(0)
    assert _drop_ordinals(restored, 5_000) == base
    one = _drop_ordinals(_drop_port(0.01, salt=1), 5_000)
    two = _drop_ordinals(_drop_port(0.01, salt=2), 5_000)
    assert len(base) > 10
    assert one != two and base not in (one, two)


@pytest.mark.parametrize(
    "prob, drops_all",
    [(0.0, False), (-1.0, False), (float("nan"), False), (5e-324, False),
     (1.0, True), (2.0, True)],
)
def test_edge_probabilities(prob, drops_all):
    port = _drop_port(prob)
    port.send_batch([PacketBlock(count=300, seq0=0), Packet(), PacketBlock(count=7, seq0=0)])
    assert port.driver_drops == (308 if drops_all else 0)
    assert port._offered == 308
    for n in (0, 1, 2**40):
        gap = _drop_gap(0xDEADBEEF, n, prob)
        assert gap == (1 if drops_all else math.inf)
