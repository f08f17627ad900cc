"""Packet model: exact frames and flyweight blocks.

Packets are deliberately lightweight: the simulation is about *where time
goes*, not about parsing bytes, so a packet carries the fields the paper's
measurement tools actually use -- frame size, flow identity, MAC addresses
(t4p4s forwards on destination MAC; VALE learns source MACs), creation and
timestamping metadata for latency probes.

The paper's workloads are saturating streams of *identical* frames (one
flow, fixed MACs -- Sec. 5.2), so bulk traffic does not need one Python
object per frame: a :class:`PacketBlock` is a template plus a count, and
the whole data path (rings, NIC wires, switch servicing, meters) operates
on blocks.  Frames whose identity matters -- PTP probes, anything a test
materialises -- stay exact :class:`Packet` objects; both types expose the
same template attributes (``size``, ``flow_id``, ``src_mac``, ``dst_mac``,
``t_created``, ``hops``, ``count``, ``is_probe``) so hot loops never
branch on the representation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.units import MIN_FRAME

DEFAULT_SRC_MAC = 0x02_00_00_00_00_01
DEFAULT_DST_MAC = 0x02_00_00_00_00_02

# -- sequence numbers -------------------------------------------------------
#
# Frame sequence numbers are scoped to a run: `Simulator.__init__` calls
# `reset_seq()`, so two identical runs hand out identical seqs no matter
# how many runs preceded them in the process (the seed drew from a
# module-global `itertools.count` that was never reset).

_next_seq = 0


def _take_seq() -> int:
    global _next_seq
    seq = _next_seq
    _next_seq = seq + 1
    return seq


def take_seq_range(count: int) -> int:
    """Reserve ``count`` consecutive seqs; returns the first.

    A block draws its whole range up front, so materialising packet ``i``
    of a block yields exactly the seq the per-packet path would have
    assigned to the same frame.
    """
    global _next_seq
    first = _next_seq
    _next_seq = first + count
    return first


def reset_seq() -> None:
    """Rewind the per-run frame sequence counter (one run == one Simulator)."""
    global _next_seq
    _next_seq = 0


@dataclass(slots=True)
class Packet:
    """A simulated Ethernet frame.

    Attributes
    ----------
    size:
        Frame size in bytes (64 for the paper's minimum-size workload).
    flow_id:
        Flow identity.  The paper's synthetic traffic is a *single* flow of
        identical packets, which is why OvS-DPDK's flow cache "does not
        help"; multi-flow profiles exercise cache behaviour.
    src_mac / dst_mac:
        Integer-encoded MAC addresses used by L2 forwarding logic.
    t_created:
        Simulated time (ns) at which the traffic generator emitted the frame.
    is_probe:
        True for PTP latency probes injected by MoonGen.
    tx_timestamp / rx_timestamp:
        Hardware or software timestamps (ns) recorded by the timestamping
        engines; ``None`` until stamped.
    hops:
        Number of forwarding hops traversed so far (debug/verification aid).
    """

    #: A Packet is a batch item of one frame (PacketBlock carries many).
    count: ClassVar[int] = 1
    #: Per-frame flow summary is a block concept; a Packet *is* its flow.
    flows: ClassVar[None] = None

    size: int = MIN_FRAME
    flow_id: int = 0
    src_mac: int = DEFAULT_SRC_MAC
    dst_mac: int = DEFAULT_DST_MAC
    t_created: float = 0.0
    is_probe: bool = False
    seq: int = field(default_factory=_take_seq)
    tx_timestamp: float | None = None
    rx_timestamp: float | None = None
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size < MIN_FRAME:
            raise ValueError(f"frame size {self.size} below minimum {MIN_FRAME}")

    @property
    def latency_ns(self) -> float | None:
        """RTT as observed by the timestamping tool, or None if unstamped."""
        if self.tx_timestamp is None or self.rx_timestamp is None:
            return None
        return self.rx_timestamp - self.tx_timestamp


class PacketBlock:
    """A run of ``count`` identical frames, stored once (flyweight).

    The block carries the same template fields as :class:`Packet` plus a
    ``count``; ``hops`` is block-level (every frame of a block has made
    the same journey).  ``seq0`` is the seq of the first frame -- the
    block owns the contiguous range ``[seq0, seq0 + count)``, so exact
    packets materialised out of a block get the very seqs the per-packet
    representation would have assigned.

    Blocks are never probes and never timestamped; a probe is split out
    of the stream as a real :class:`Packet` before emission.

    Multi-flow traffic (``repro.flows``) keeps the flyweight: ``flows`` is
    an optional run-length summary ``((flow, count), ...)`` covering the
    block's frames in emission order, with ``flow_id``/``src_mac`` holding
    the *first* run's template.  ``flows is None`` means the whole block is
    one flow -- the seed's single-flow hot paths never even look at it.
    Per-frame src MACs are derived, not stored: frame ``i`` of run ``f``
    has ``src_mac == (block.src_mac - block.flow_id) + f``.
    """

    __slots__ = (
        "size", "flow_id", "src_mac", "dst_mac", "t_created", "count", "hops", "seq0", "flows",
    )

    is_probe: ClassVar[bool] = False
    tx_timestamp: ClassVar[None] = None
    rx_timestamp: ClassVar[None] = None
    latency_ns: ClassVar[None] = None

    def __init__(
        self,
        size: int = MIN_FRAME,
        flow_id: int = 0,
        src_mac: int = DEFAULT_SRC_MAC,
        dst_mac: int = DEFAULT_DST_MAC,
        t_created: float = 0.0,
        count: int = 1,
        hops: int = 0,
        seq0: int | None = None,
        flows: tuple | None = None,
    ) -> None:
        if size < MIN_FRAME:
            raise ValueError(f"frame size {size} below minimum {MIN_FRAME}")
        if count < 1:
            raise ValueError(f"block count must be >= 1, got {count}")
        self.size = size
        self.flow_id = flow_id
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.t_created = t_created
        self.count = count
        self.hops = hops
        self.seq0 = take_seq_range(count) if seq0 is None else seq0
        self.flows = flows

    @property
    def seq(self) -> int:
        """Seq of the block's first frame (template view)."""
        return self.seq0

    def split(self, front_count: int) -> "PacketBlock":
        """Detach the first ``front_count`` frames as a new block.

        FIFO semantics: the front block takes the oldest frames and their
        (lowest) seqs; ``self`` keeps the tail.
        """
        if not 0 < front_count < self.count:
            raise ValueError(
                f"cannot split {front_count} frames off a block of {self.count}"
            )
        front = PacketBlock(
            self.size,
            self.flow_id,
            self.src_mac,
            self.dst_mac,
            self.t_created,
            front_count,
            hops=self.hops,
            seq0=self.seq0,
        )
        self.count -= front_count
        self.seq0 += front_count
        if self.flows is not None:
            front_runs, tail_runs = _runs_split(self.flows, front_count)
            front.flows = front_runs if len(front_runs) > 1 else None
            self.flows = tail_runs if len(tail_runs) > 1 else None
            # Re-anchor the tail's template on its (new) first run; the
            # src-MAC derivation base (src_mac - flow_id) is invariant.
            mac_base = self.src_mac - self.flow_id
            self.flow_id = tail_runs[0][0]
            self.src_mac = mac_base + self.flow_id
        return front

    def materialize(self) -> list[Packet]:
        """Expand to exact packets (tests, sampled lifecycle inspection)."""
        if self.flows is None:
            return [
                Packet(
                    size=self.size,
                    flow_id=self.flow_id,
                    src_mac=self.src_mac,
                    dst_mac=self.dst_mac,
                    t_created=self.t_created,
                    seq=self.seq0 + i,
                    hops=self.hops,
                )
                for i in range(self.count)
            ]
        mac_base = self.src_mac - self.flow_id
        out: list[Packet] = []
        seq = self.seq0
        for flow, run in self.flows:
            for _ in range(run):
                out.append(
                    Packet(
                        size=self.size,
                        flow_id=flow,
                        src_mac=mac_base + flow,
                        dst_mac=self.dst_mac,
                        t_created=self.t_created,
                        seq=seq,
                        hops=self.hops,
                    )
                )
                seq += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        runs = "" if self.flows is None else f", runs={len(self.flows)}"
        return (
            f"PacketBlock(count={self.count}, size={self.size}, flow={self.flow_id}, "
            f"seq0={self.seq0}, hops={self.hops}{runs})"
        )


# -- flow run-length helpers -------------------------------------------------
#
# A ``flows`` summary is a tuple of ``(flow, count)`` runs covering a
# block's frames in order.  These helpers keep it consistent across the
# places a block can lose frames: ring truncation (tail dropped), ring
# pops (front split off) and NIC driver drops (arbitrary offsets lost).


def _runs_split(runs: tuple, front_count: int) -> tuple[tuple, tuple]:
    """Partition runs at frame offset ``front_count`` -> (front, tail)."""
    front: list = []
    taken = 0
    for index, (flow, count) in enumerate(runs):
        if taken + count < front_count:
            front.append((flow, count))
            taken += count
        elif taken + count == front_count:
            front.append((flow, count))
            return tuple(front), runs[index + 1:]
        else:
            keep = front_count - taken
            front.append((flow, keep))
            return tuple(front), ((flow, count - keep),) + runs[index + 1:]
    raise ValueError(f"front_count {front_count} exceeds runs {runs}")


def flows_front(runs: tuple, keep: int) -> tuple | None:
    """Truncate a runs summary to its first ``keep`` frames.

    Returns ``None`` when the kept prefix is a single run (normalised
    single-flow representation).
    """
    front, _tail = _runs_split(runs, keep)
    return front if len(front) > 1 else None


def select_flows(runs: tuple, kept_offsets: list) -> tuple | None:
    """Re-encode the runs summary for a subset of kept frame offsets.

    ``kept_offsets`` must be sorted ascending (they are produced by a
    forward scan).  Returns ``None`` when the survivors are one run.
    """
    bounds: list = []  # (end_offset_exclusive, flow)
    end = 0
    for flow, count in runs:
        end += count
        bounds.append((end, flow))
    out: list = []
    run_index = 0
    for offset in kept_offsets:
        while offset >= bounds[run_index][0]:
            run_index += 1
        flow = bounds[run_index][1]
        if out and out[-1][0] == flow:
            out[-1][1] += 1
        else:
            out.append([flow, 1])
    if len(out) <= 1:
        return None
    return tuple((flow, count) for flow, count in out)


# -- emission mode ----------------------------------------------------------
#
# Traffic generators emit blocks whenever the stream is uniform.  Tests
# that verify representation-independence flip to per-packet emission and
# assert the run's stats are bit-identical.

_block_emission = True


def blocks_enabled() -> bool:
    return _block_emission


@contextmanager
def per_packet_emission():
    """Force seed-style one-object-per-frame emission (golden tests)."""
    global _block_emission
    previous = _block_emission
    _block_emission = False
    try:
        yield
    finally:
        _block_emission = previous


# -- batch helpers ----------------------------------------------------------


def batch_stats(batch: list) -> tuple[int, int]:
    """(frame count, total bytes) of a mixed Packet/PacketBlock batch."""
    n = 0
    total_bytes = 0
    for item in batch:
        c = item.count
        n += c
        total_bytes += item.size * c
    return n, total_bytes


def batch_count(batch: list) -> int:
    """Total frames in a mixed Packet/PacketBlock batch."""
    n = 0
    for item in batch:
        n += item.count
    return n


def make_batch(
    count: int,
    size: int,
    t_created: float,
    flow_id: int = 0,
    dst_mac: int = DEFAULT_DST_MAC,
) -> list[Packet]:
    """Create ``count`` identical synthetic frames (one flow, like MoonGen)."""
    return [
        Packet(size=size, flow_id=flow_id, t_created=t_created, dst_mac=dst_mac)
        for _ in range(count)
    ]


def make_block(
    count: int,
    size: int,
    t_created: float,
    flow_id: int = 0,
    dst_mac: int = DEFAULT_DST_MAC,
) -> PacketBlock:
    """The flyweight equivalent of :func:`make_batch`: one object."""
    return PacketBlock(size, flow_id, DEFAULT_SRC_MAC, dst_mac, t_created, count)
