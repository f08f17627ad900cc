"""Traffic generation primitives shared by MoonGen, pkt-gen and the guest
tools.

A :class:`PacedSource` emits synthetic traffic -- identical frames of one
flow, exactly like the paper's workload -- at a configured rate, in bursts
(hardware generators DMA descriptors in bursts; per-packet pacing below
burst granularity is not observable by the SUT).  Latency probes (the
PTP packets MoonGen's second thread injects, Sec. 5.3) are flagged frames
woven into the stream at a fixed interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.packet import Packet, PacketBlock, blocks_enabled
from repro.core.packet import DEFAULT_DST_MAC, DEFAULT_SRC_MAC

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: Probe spacing used by the latency tests: sparse enough not to perturb
#: the background load, dense enough for stable statistics.
DEFAULT_PROBE_INTERVAL_NS = 20_000.0


class PacedSource:
    """Emits bursts of synthetic frames at a fixed offered rate.

    Subclasses implement :meth:`_emit` to inject the burst into a NIC port
    (host MoonGen) or a virtio/ptnet ring (guest generators).
    """

    def __init__(
        self,
        sim: "Simulator",
        rate_pps: float,
        frame_size: int,
        burst: int = 32,
        flow_id: int = 0,
        probe_interval_ns: float | None = None,
        stamp_probe_tx: Callable[[Packet, float], None] | None = None,
        flow_count: int = 1,
        size_profile=None,
        flow_population=None,
        rng: np.random.Generator | None = None,
        name: str = "source",
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("offered rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        if flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        self.sim = sim
        self.rate_pps = rate_pps
        self.frame_size = frame_size
        # At low offered rates the generator's DMA bursts shrink so pacing
        # stays smooth (a hardware-assisted generator does not hold packets
        # back for tens of microseconds just to fill a descriptor burst).
        self.burst = max(1, min(burst, int(rate_pps * 4e-6) or 1))
        self.flow_id = flow_id
        self.flow_count = flow_count
        self.probe_interval_ns = probe_interval_ns
        self.stamp_probe_tx = stamp_probe_tx
        self.flow_population = flow_population
        if size_profile is None and flow_population is not None:
            size_profile = flow_population.size_profile
        self.size_profile = size_profile
        if (size_profile is not None or flow_population is not None) and rng is None:
            # Fallback for direct construction; scenario builders pass a
            # named per-run stream (``rngs.stream("flows.<source>")``) so
            # multi-flow runs stay deterministic and parallel-safe.
            rng = np.random.default_rng(0)
        self.name = name
        self._rng = rng
        #: Optional per-flow accounting (:class:`repro.obs.flowstats.FlowStats`);
        #: None unless flow telemetry is enabled -- the un-accounted cost is
        #: one attribute test per emitted burst.
        self.flowstats = None
        self.packets_sent = 0
        self.probes_sent = 0
        self._next_probe_at = 0.0
        self._stop_at: float | None = None
        self._flow_cursor = 0
        self._halted = False
        self._chain_broken = False

    def start(self, t0_ns: float = 0.0, stop_at_ns: float | None = None) -> None:
        """Begin emitting at ``t0_ns``; stop after ``stop_at_ns`` if given."""
        self._stop_at = stop_at_ns
        self._next_probe_at = t0_ns
        self.sim.at(t0_ns, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        if self._halted:
            self._chain_broken = True
            return
        if self._stop_at is not None and now >= self._stop_at:
            return
        burst = self.burst
        if self._uniform and blocks_enabled():
            batch = self._make_block_burst(now, burst)
        elif self.flow_population is not None and blocks_enabled():
            batch = self._make_flow_burst(now, burst)
        else:
            batch = self._make_burst(now)
        if self.flowstats is not None:
            self.flowstats.tx_batch(batch)
        self._emit(batch)
        self.packets_sent += burst
        self.sim.after(burst * 1e9 / self.rate_pps, self._tick)

    @property
    def _uniform(self) -> bool:
        """Uniform streams (one flow, fixed size) can be emitted as blocks."""
        return (
            self.size_profile is None
            and self.flow_population is None
            and self.flow_count == 1
        )

    def _make_block_burst(self, now: float, burst: int) -> list[Packet | PacketBlock]:
        """Flyweight burst: one block, plus an exact probe Packet when due.

        The probe is drawn *first* so it takes the burst's lowest seq --
        exactly the frame (``batch[0]``) the per-packet path flags.
        """
        batch: list[Packet | PacketBlock] = []
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            probe = Packet(size=self.frame_size, flow_id=self.flow_id, t_created=now)
            probe.is_probe = True
            self.probes_sent += 1
            if self.stamp_probe_tx is not None:
                self.stamp_probe_tx(probe, now)
            self._next_probe_at = now + self.probe_interval_ns
            batch.append(probe)
            burst -= 1
        if burst > 0:
            batch.append(
                PacketBlock(
                    self.frame_size,
                    self.flow_id,
                    DEFAULT_SRC_MAC,
                    DEFAULT_DST_MAC,
                    now,
                    burst,
                )
            )
        return batch

    def _make_flow_burst(self, now: float, burst: int) -> list[Packet | PacketBlock]:
        """Flyweight multi-flow burst: size-run blocks carrying flow RLEs.

        Draw order matches :meth:`_make_burst`'s population path exactly
        (sizes first, then flows), so flipping the emission mode mid-study
        leaves the shared RNG stream in the same state.  The probe, when
        due, materialises frame 0 of the burst -- its sampled size and
        flow -- and takes the lowest seq.
        """
        rng = self._rng
        sizes = None
        if self.size_profile is not None:
            sizes = self.size_profile.sample(rng, burst).tolist()
        # Python ints from here on: the run-length scan below costs one
        # comparison per frame, not a NumPy scalar access.
        ranks = self.flow_population.sample_flows(rng, burst, now).tolist()
        base = self.flow_id
        batch: list[Packet | PacketBlock] = []
        start = 0
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            flow = base + ranks[0]
            probe = Packet(
                size=sizes[0] if sizes is not None else self.frame_size,
                flow_id=flow,
                src_mac=DEFAULT_SRC_MAC + flow,
                t_created=now,
            )
            probe.is_probe = True
            self.probes_sent += 1
            if self.stamp_probe_tx is not None:
                self.stamp_probe_tx(probe, now)
            self._next_probe_at = now + self.probe_interval_ns
            batch.append(probe)
            start = 1
        i = start
        while i < burst:
            if sizes is None:
                size = self.frame_size
                j = burst
            else:
                size = sizes[i]
                j = i + 1
                while j < burst and sizes[j] == size:
                    j += 1
            block_ranks = iter(ranks[i:j])
            rank = next(block_ranks)
            count = 1
            runs = []
            for next_rank in block_ranks:
                if next_rank == rank:
                    count += 1
                else:
                    runs.append((base + rank, count))
                    rank = next_rank
                    count = 1
            runs.append((base + rank, count))
            first_flow = runs[0][0]
            batch.append(
                PacketBlock(
                    size,
                    first_flow,
                    DEFAULT_SRC_MAC + first_flow,
                    DEFAULT_DST_MAC,
                    now,
                    j - i,
                    flows=tuple(runs) if len(runs) > 1 else None,
                )
            )
            i = j
        return batch

    def _make_burst(self, now: float) -> list[Packet]:
        sizes = None
        if self.size_profile is not None:
            sizes = self.size_profile.sample(self._rng, self.burst)
        flows = None
        population = self.flow_population
        if population is not None:
            flows = population.sample_flows(self._rng, self.burst, now)
        batch = []
        for i in range(self.burst):
            if flows is not None:
                flow = self.flow_id + int(flows[i])
            elif self.flow_count > 1:
                flow = self.flow_id + self._flow_cursor
                self._flow_cursor = (self._flow_cursor + 1) % self.flow_count
            else:
                flow = self.flow_id
            size = int(sizes[i]) if sizes is not None else self.frame_size
            if population is not None:
                packet = Packet(
                    size=size, flow_id=flow, src_mac=DEFAULT_SRC_MAC + flow, t_created=now
                )
            else:
                packet = Packet(size=size, flow_id=flow, t_created=now)
            batch.append(packet)
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            probe = batch[0]
            probe.is_probe = True
            self.probes_sent += 1
            if self.stamp_probe_tx is not None:
                self.stamp_probe_tx(probe, now)
            self._next_probe_at = now + self.probe_interval_ns
        return batch

    def _emit(self, batch: list[Packet]) -> None:
        raise NotImplementedError

    # -- fault hooks (repro.faults) ----------------------------------------

    def halt(self) -> None:
        """Stop emitting (crashed generator app); pacing chain breaks on
        its next scheduled tick."""
        self._halted = True

    def resume(self) -> None:
        """Restart emission after a halt.

        If the halt window outlasted the inter-burst gap the pacing chain
        already broke and is re-armed now; otherwise the still-pending tick
        simply carries on.
        """
        if not self._halted:
            return
        self._halted = False
        if self._chain_broken:
            self._chain_broken = False
            self.sim.after(0.0, self._tick)
