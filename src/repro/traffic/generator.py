"""Traffic generation primitives shared by MoonGen, pkt-gen and the guest
tools.

A :class:`PacedSource` emits synthetic traffic -- identical frames of one
flow, exactly like the paper's workload -- at a configured rate, in bursts
(hardware generators DMA descriptors in bursts; per-packet pacing below
burst granularity is not observable by the SUT).  Latency probes (the
PTP packets MoonGen's second thread injects, Sec. 5.3) are flagged frames
woven into the stream at a fixed interval.

A source with a flow population (:mod:`repro.flows`) draws the sizes and
flows of :data:`CHUNK_BURSTS` bursts at once and serves both emission
modes -- run-length blocks and per-packet frames -- from that chunk.
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

#: Bursts a flow-population source draws at once.  The draws are the
#: ones as many bursts drawn one by one would make, in the same order;
#: only the RNG stream's state between chunk edges differs.
CHUNK_BURSTS = 64


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
        # The flow-population draw chunk: flow ids (``flow_id`` added,
        # churn not) and sizes as arrays, the next burst to serve, and
        # the block runs and per-frame lists derived from it on demand.
        self._chunk: tuple[np.ndarray, np.ndarray | None] | None = None
        self._chunk_next = CHUNK_BURSTS
        self._chunk_blocks: tuple | None = None
        self._chunk_frames: tuple | None = None
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
        elif self.flow_population is not None:
            if blocks_enabled():
                batch = self._make_flow_burst(now)
            else:
                batch = self._make_flow_packets(now)
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
            self._mark_probe(probe, now)
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

    def _mark_probe(self, packet: Packet, now: float) -> None:
        """Flag ``packet`` as the burst's latency probe; time the next one."""
        packet.is_probe = True
        self.probes_sent += 1
        if self.stamp_probe_tx is not None:
            self.stamp_probe_tx(packet, now)
        self._next_probe_at = now + self.probe_interval_ns

    def _chunk_burst(self) -> int:
        """Index in the chunk of the next burst; draws a chunk when spent."""
        k = self._chunk_next
        if k == CHUNK_BURSTS:
            self._draw_chunk()
            k = 0
        self._chunk_next = k + 1
        return k

    def _draw_chunk(self) -> None:
        """Draw the next :data:`CHUNK_BURSTS` bursts of the population.

        A burst draws its sizes, then its ranks.  Runs of draws of one
        kind merge into one NumPy call; a size mix with more than one
        flow alternates kinds, so it keeps a pair of calls per burst.
        """
        rng = self._rng
        population = self.flow_population
        profile = self.size_profile
        burst = self.burst
        if profile is not None and population.flows > 1:
            sizes, ranks = [], []
            for _ in range(CHUNK_BURSTS):
                sizes.append(profile.sample(rng, burst))
                ranks.append(population.sample_flows(rng, burst))
            sizes, ranks = np.concatenate(sizes), np.concatenate(ranks)
        else:
            count = CHUNK_BURSTS * burst
            sizes = profile.sample(rng, count) if profile is not None else None
            ranks = population.sample_flows(rng, count)
        self._chunk = (ranks + self.flow_id, sizes)
        self._chunk_blocks = None
        self._chunk_frames = None

    def _blocks_of_chunk(self) -> tuple:
        """The chunk's blocks and flow runs, marked in one pass.

        A block starts at each burst edge and size change, a run at each
        block start and flow change.  Returns the runs ``(flow, count)``
        and, per block, its first run, frame count and size (None when
        every frame has ``frame_size``), and per burst its first block;
        each index list ends with the total.
        """
        if self._chunk_blocks is None:
            flows, sizes = self._chunk
            count = flows.size
            block_edge = np.zeros(count, dtype=bool)
            block_edge[:: self.burst] = True
            if sizes is not None:
                block_edge[1:] |= sizes[1:] != sizes[:-1]
            run_edge = block_edge.copy()
            run_edge[1:] |= flows[1:] != flows[:-1]
            run_starts = np.flatnonzero(run_edge)
            block_starts = np.flatnonzero(block_edge)
            runs = list(zip(
                flows[run_starts].tolist(), np.diff(run_starts, append=count).tolist()
            ))
            block_runs = run_starts.searchsorted(block_starts).tolist()
            block_runs.append(len(runs))
            burst_blocks = block_starts.searchsorted(np.arange(0, count, self.burst)).tolist()
            burst_blocks.append(block_starts.size)
            self._chunk_blocks = (
                runs,
                block_runs,
                np.diff(block_starts, append=count).tolist(),
                sizes[block_starts].tolist() if sizes is not None else None,
                burst_blocks,
            )
        return self._chunk_blocks

    def _make_flow_burst(self, now: float) -> list[Packet | PacketBlock]:
        """Flyweight multi-flow burst: size-run blocks carrying flow RLEs.

        Reads the same chunk as :meth:`_make_flow_packets`, so flipping
        the emission mode mid-study emits the same frames and leaves the
        RNG stream in the same state.  The probe, when due, materialises
        frame 0 of the burst -- its sampled size and flow -- and takes
        the lowest seq.
        """
        k = self._chunk_burst()
        runs, block_runs, block_counts, block_sizes, burst_blocks = self._blocks_of_chunk()
        shift = self.flow_population.churn_shift(now)
        first = burst_blocks[k]
        batch: list[Packet | PacketBlock] = []
        trim = False
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            flow = runs[block_runs[first]][0] + shift
            probe = Packet(
                size=block_sizes[first] if block_sizes is not None else self.frame_size,
                flow_id=flow,
                src_mac=DEFAULT_SRC_MAC + flow,
                t_created=now,
            )
            self._mark_probe(probe, now)
            batch.append(probe)
            trim = True
        for b in range(first, burst_blocks[k + 1]):
            block = runs[block_runs[b]:block_runs[b + 1]]
            count = block_counts[b]
            if trim:  # frame 0 left as the probe
                trim = False
                count -= 1
                if not count:
                    continue
                flow, n = block[0]
                if n == 1:
                    del block[0]
                else:
                    block[0] = (flow, n - 1)
            if shift:
                block = [(flow + shift, n) for flow, n in block]
            flow = block[0][0]
            batch.append(
                PacketBlock(
                    block_sizes[b] if block_sizes is not None else self.frame_size,
                    flow,
                    DEFAULT_SRC_MAC + flow,
                    DEFAULT_DST_MAC,
                    now,
                    count,
                    flows=tuple(block) if len(block) > 1 else None,
                )
            )
        return batch

    def _make_flow_packets(self, now: float) -> list[Packet]:
        """Per-packet multi-flow burst: the chunk's frames one by one."""
        k = self._chunk_burst()
        if self._chunk_frames is None:
            flows, sizes = self._chunk
            self._chunk_frames = (flows.tolist(), sizes.tolist() if sizes is not None else None)
        flows, sizes = self._chunk_frames
        shift = self.flow_population.churn_shift(now)
        batch = []
        for i in range(k * self.burst, (k + 1) * self.burst):
            flow = flows[i] + shift
            batch.append(Packet(
                size=sizes[i] if sizes is not None else self.frame_size,
                flow_id=flow,
                src_mac=DEFAULT_SRC_MAC + flow,
                t_created=now,
            ))
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            self._mark_probe(batch[0], now)
        return batch

    def _make_burst(self, now: float) -> list[Packet]:
        sizes = None
        if self.size_profile is not None:
            sizes = self.size_profile.sample(self._rng, self.burst)
        batch = []
        for i in range(self.burst):
            if self.flow_count > 1:
                flow = self.flow_id + self._flow_cursor
                self._flow_cursor = (self._flow_cursor + 1) % self.flow_count
            else:
                flow = self.flow_id
            size = int(sizes[i]) if sizes is not None else self.frame_size
            batch.append(Packet(size=size, flow_id=flow, t_created=now))
        if self.probe_interval_ns is not None and now >= self._next_probe_at:
            self._mark_probe(batch[0], now)
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
