"""Bounded descriptor rings.

Every queue in the testbed -- NIC rx/tx descriptor rings, virtio vrings,
netmap/ptnet rings, Snabb inter-app links -- is a :class:`Ring`: a bounded
FIFO that drops on overflow and counts what it drops.  Drop-on-overflow is
the semantics of a poll-mode data plane: there is no backpressure to the
wire, excess packets are simply lost, which is exactly the effect the
paper's saturating-load methodology measures.

Capacity, occupancy, drop and enqueue accounting are all in *frames*
(descriptors), not Python objects: a ring holds a FIFO of items that are
either exact :class:`~repro.core.packet.Packet` objects (``count == 1``)
or :class:`~repro.core.packet.PacketBlock` flyweights (``count >= 1``).
A block that does not fully fit is split at the free-slot boundary --
the accepted prefix keeps FIFO order and the overflowing tail is dropped,
frame for frame what the seed's per-packet loop did.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.core.packet import Packet, PacketBlock, _runs_split, flows_front


class Ring:
    """A bounded FIFO packet queue with drop accounting.

    Parameters
    ----------
    capacity:
        Maximum number of frames (descriptors) the ring holds.  The paper
        tunes FastClick's NIC rings to 4096 descriptors (Table 2); DPDK
        defaults are typically 512-1024.
    name:
        Diagnostic label used in error messages and stats dumps.
    on_push:
        Optional callback invoked after a successful push while the ring was
        previously empty.  Interrupt-driven consumers (VALE/netmap) use this
        as their "interrupt line": a packet landing in an empty ring raises
        an interrupt, whereas poll-mode consumers ignore it.
    """

    __slots__ = (
        "capacity", "name", "_queue", "_frames", "enqueued", "dropped", "on_push",
        "flowstats",
    )

    def __init__(
        self,
        capacity: int,
        name: str = "ring",
        on_push: Callable[[], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._queue: deque[Packet | PacketBlock] = deque()
        self._frames = 0
        self.enqueued = 0
        self.dropped = 0
        self.on_push = on_push
        #: Optional per-flow accounting (:class:`repro.obs.flowstats.FlowStats`);
        #: None unless flow telemetry is enabled, so unobserved pushes pay
        #: a single attribute test per drop event (nothing on clean pushes).
        self.flowstats = None

    def __len__(self) -> int:
        """Occupancy in frames (a block of 32 fills 32 descriptors)."""
        return self._frames

    @property
    def free(self) -> int:
        """Remaining descriptor slots."""
        return self.capacity - self._frames

    def push(self, item: Packet | PacketBlock) -> bool:
        """Enqueue one item; returns True if at least one frame landed.

        A block larger than the free space is truncated to fit: the
        overflowing tail frames are dropped (and recounted), exactly as if
        they had been pushed one by one into the full ring.
        """
        count = item.count
        free = self.capacity - self._frames
        if free <= 0:
            self.dropped += count
            if self.flowstats is not None:
                self.flowstats.drop_item(item)
            return False
        if count > free:
            self.dropped += count - free
            if self.flowstats is not None:
                runs = item.flows
                tail = (
                    _runs_split(runs, free)[1]
                    if runs is not None
                    else ((item.flow_id, count - free),)
                )
                self.flowstats.drop_runs(tail, item.size)
            item.count = free  # blocks only: Packet.count == 1 always fits
            if item.flows is not None:
                item.flows = flows_front(item.flows, free)
            count = free
        was_empty = self._frames == 0
        self._queue.append(item)
        self._frames += count
        self.enqueued += count
        if was_empty and self.on_push is not None:
            self.on_push()
        return True

    def push_batch(self, items: Iterable[Packet | PacketBlock]) -> int:
        """Enqueue a batch; returns how many frames were accepted."""
        before = self.enqueued
        push = self.push
        for item in items:
            push(item)
        return self.enqueued - before

    def pop_batch(self, max_count: int) -> list[Packet | PacketBlock]:
        """Dequeue up to ``max_count`` frames in FIFO order.

        A block straddling the boundary is split: the popped prefix keeps
        the oldest frames, the remainder stays at the head of the ring.
        """
        queue = self._queue
        if not queue or max_count <= 0:
            return []
        out: list[Packet | PacketBlock] = []
        remaining = max_count
        popped = 0
        while queue and remaining > 0:
            head = queue[0]
            count = head.count
            if count <= remaining:
                out.append(queue.popleft())
                remaining -= count
                popped += count
            else:
                out.append(head.split(remaining))
                popped += remaining
                remaining = 0
        self._frames -= popped
        return out

    def peek_len(self) -> int:
        """Occupancy without dequeuing (poll-mode 'ring not empty?' check)."""
        return self._frames

    def clear(self) -> int:
        """Discard contents (teardown, or a fault losing in-flight frames).

        Returns the number of frames discarded so fault accounting can
        attribute the loss.
        """
        lost = self._frames
        self._queue.clear()
        self._frames = 0
        return lost


# -- fault states -----------------------------------------------------------
#
# ``repro.faults`` puts a live ring into a fault state by swapping its
# *class* (both subclasses add no slots, so the instance layout is
# identical and every cached reference keeps working).  Normal rings pay
# nothing for this capability: no flag, no branch, no extra attribute on
# the hot push/pop paths.


class FrozenRing(Ring):
    """A vring whose consumer side has stopped processing descriptors.

    Producers still see free slots and fill them (overflow drops once the
    ring is full -- exactly what a stalled vring looks like from the
    producer side); the consumer finds nothing to reap until the ring is
    thawed, at which point the preserved contents drain normally.
    """

    __slots__ = ()

    def pop_batch(self, max_count: int) -> list[Packet | PacketBlock]:
        return []


class DisconnectedRing(Ring):
    """A ring whose backing channel is gone (vhost-user backend died).

    Every push is dropped and counted; there is nothing to pop.  The
    in-flight contents are discarded by :func:`disconnect_ring` (shared
    memory is unmapped when the backend disappears).
    """

    __slots__ = ()

    def push(self, item: Packet | PacketBlock) -> bool:
        self.dropped += item.count
        if self.flowstats is not None:
            self.flowstats.drop_item(item)
        return False

    def pop_batch(self, max_count: int) -> list[Packet | PacketBlock]:
        return []


def freeze_ring(ring: Ring) -> None:
    """Stop the ring's consumer side (virtio ring freeze); contents keep."""
    if ring.__class__ is not Ring:
        raise ValueError(f"ring {ring.name!r} is already in fault state {ring.__class__.__name__}")
    ring.__class__ = FrozenRing


def disconnect_ring(ring: Ring) -> int:
    """Detach the ring's backing channel; returns in-flight frames lost."""
    if ring.__class__ is not Ring:
        raise ValueError(f"ring {ring.name!r} is already in fault state {ring.__class__.__name__}")
    lost = ring.clear()
    ring.__class__ = DisconnectedRing
    return lost


def restore_ring(ring: Ring) -> None:
    """Leave any fault state (thaw / reconnect); a plain ring is a no-op."""
    if ring.__class__ is not Ring:
        ring.__class__ = Ring
