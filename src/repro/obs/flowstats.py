"""Per-flow telemetry: FloWatcher-style flow-level accounting.

A :class:`FlowStats` instance rides the flyweight data path: every hook
folds a :class:`~repro.core.packet.PacketBlock`'s run-length flow summary
(``((flow, count), ...)``) into per-flow counters without materialising
per-packet state.  Aggregates (PASTRAMI's lesson: distributions, not
point estimates) come out as per-flow tx/rx/drop frames and bytes, cache
hit/miss attribution, latency histograms for probe-tagged flows, and
derived fairness metrics -- Jain's index, head/tail rate skew, per-flow
loss percentiles.

Bounded cardinality
-------------------
A million-flow run must not allocate a million records.  The tracker is a
*conservation-preserving* variant of the space-saving algorithm
(Metwally et al.): at most ``top_k`` flows hold live records; when an
unseen flow arrives at a full table the minimum-weight record is evicted
and its counters fold into a single ``other`` rollup record.  Unlike
textbook space-saving the adopted record does **not** inherit the
victim's count (that would break conservation); instead the victim's
weight is kept as the new record's attribution ``error`` bound.  The
invariant the property tests pin down::

    sum(tracked counters) + other == exact aggregate totals

holds for every counter at all times, so flow sums always reconcile
against the port/ring/switch aggregates, while memory stays O(top_k).

Disabled-by-default economics mirror PR 2's ``obs is None`` contract:
hot-path objects carry a ``flowstats`` attribute that stays ``None``
unless a session enables per-flow telemetry, and every hook is gated by
a single ``is not None`` test.  Hooks only *read* simulation state, so
an accounted run is bit-identical to an unaccounted one.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.obs.metrics import Histogram, hdr_bounds

#: Default heavy-hitter table capacity (live per-flow records).
DEFAULT_TOP_K = 64

#: Flow-id labels used for the rollup / aggregate pseudo-records.
OTHER_FLOW = -1
TOTAL_FLOW = -2

#: Bounds for the per-flow RTT histograms (microseconds) -- same shape as
#: the aggregate ``latency.rtt_us`` series so digests are comparable.
_LATENCY_BOUNDS = hdr_bounds(max_value=16384, subdivisions=8)


class FlowRecord:
    """Counters for one flow (or the ``other`` / ``total`` rollups)."""

    __slots__ = (
        "flow",
        "tx_frames",
        "tx_bytes",
        "wire_frames",
        "wire_bytes",
        "rx_frames",
        "rx_bytes",
        "drop_frames",
        "drop_bytes",
        "fwd_frames",
        "cache_hits",
        "cache_misses",
        "weight",
        "error",
    )

    def __init__(self, flow: int) -> None:
        self.flow = flow
        self.tx_frames = 0
        self.tx_bytes = 0
        self.wire_frames = 0
        self.wire_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.drop_frames = 0
        self.drop_bytes = 0
        self.fwd_frames = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: space-saving rank weight: frames accounted through any hook.
        self.weight = 0
        #: attribution error bound inherited from the evicted record.
        self.error = 0

    def fold(self, victim: "FlowRecord") -> None:
        """Absorb another record's counters (eviction into ``other``)."""
        self.tx_frames += victim.tx_frames
        self.tx_bytes += victim.tx_bytes
        self.wire_frames += victim.wire_frames
        self.wire_bytes += victim.wire_bytes
        self.rx_frames += victim.rx_frames
        self.rx_bytes += victim.rx_bytes
        self.drop_frames += victim.drop_frames
        self.drop_bytes += victim.drop_bytes
        self.fwd_frames += victim.fwd_frames
        self.cache_hits += victim.cache_hits
        self.cache_misses += victim.cache_misses
        self.weight += victim.weight

    @property
    def loss_rate(self) -> float:
        """Fraction of this flow's offered frames that were dropped.

        Falls back to drop/(drop+rx) for records that only saw the
        receive side (e.g. a monitor hooked without its source).
        """
        if self.tx_frames:
            return min(1.0, self.drop_frames / self.tx_frames)
        seen = self.drop_frames + self.rx_frames
        return self.drop_frames / seen if seen else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    def to_dict(self) -> dict:
        return {
            "flow": self.flow,
            "tx_frames": self.tx_frames,
            "tx_bytes": self.tx_bytes,
            "wire_frames": self.wire_frames,
            "wire_bytes": self.wire_bytes,
            "rx_frames": self.rx_frames,
            "rx_bytes": self.rx_bytes,
            "drop_frames": self.drop_frames,
            "drop_bytes": self.drop_bytes,
            "fwd_frames": self.fwd_frames,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "loss_rate": self.loss_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "error": self.error,
        }


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n maximally unfair."""
    xs = [float(v) for v in values]
    n = len(xs)
    if not n:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (n * squares)


class FlowStats:
    """Bounded per-flow accounting over run-length flow summaries.

    All ``*_runs`` methods take ``((flow, count), ...)`` iterables -- the
    exact shape of ``PacketBlock.flows`` -- plus the block's uniform frame
    size; batch-level helpers unpack mixed Packet/PacketBlock lists so
    hook sites stay one call.
    """

    def __init__(self, top_k: int = DEFAULT_TOP_K) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.capacity = top_k
        self.records: dict[int, FlowRecord] = {}
        self.other = FlowRecord(OTHER_FLOW)
        self.totals = FlowRecord(TOTAL_FLOW)
        self.evictions = 0
        #: records ever created (approximate distinct flows: a flow that
        #: was evicted and returns is counted again).
        self.adoptions = 0
        self._latency: dict[int, Histogram] = {}
        self._latency_other: Histogram | None = None

    # -- record management -------------------------------------------------

    def _record(self, flow: int) -> FlowRecord:
        records = self.records
        record = records.get(flow)
        if record is not None:
            return record
        record = FlowRecord(flow)
        if len(records) >= self.capacity:
            # Space-saving eviction: the minimum-weight record folds into
            # the ``other`` rollup (conservation) and its weight becomes
            # the newcomer's attribution error bound.
            victim = min(records.values(), key=lambda r: (r.weight, r.flow))
            del records[victim.flow]
            self.other.fold(victim)
            self.evictions += 1
            record.error = victim.weight
        records[flow] = record
        self.adoptions += 1
        return record

    # -- accounting hooks --------------------------------------------------

    def tx_runs(self, runs: Iterable[tuple[int, int]], size: int) -> None:
        """Offered frames leaving a traffic source."""
        totals = self.totals
        for flow, count in runs:
            record = self._record(flow)
            record.tx_frames += count
            record.tx_bytes += count * size
            record.weight += count
            totals.tx_frames += count
            totals.tx_bytes += count * size

    def wire_runs(self, runs: Iterable[tuple[int, int]], size: int) -> None:
        """Frames actually serialised onto a wire (post-drop)."""
        totals = self.totals
        for flow, count in runs:
            record = self._record(flow)
            record.wire_frames += count
            record.wire_bytes += count * size
            record.weight += count
            totals.wire_frames += count
            totals.wire_bytes += count * size

    def rx_runs(self, runs: Iterable[tuple[int, int]], size: int) -> None:
        """Frames delivered to a terminal monitor."""
        totals = self.totals
        for flow, count in runs:
            record = self._record(flow)
            record.rx_frames += count
            record.rx_bytes += count * size
            record.weight += count
            totals.rx_frames += count
            totals.rx_bytes += count * size

    def drop_runs(self, runs: Iterable[tuple[int, int]], size: int) -> None:
        """Frames lost at any drop site (ring overflow, tx backlog...)."""
        totals = self.totals
        for flow, count in runs:
            record = self._record(flow)
            record.drop_frames += count
            record.drop_bytes += count * size
            record.weight += count
            totals.drop_frames += count
            totals.drop_bytes += count * size

    def fwd_runs(self, runs: Iterable[tuple[int, int]]) -> None:
        """Frames completing a switch forwarding path."""
        totals = self.totals
        for flow, count in runs:
            record = self._record(flow)
            record.fwd_frames += count
            record.weight += count
            totals.fwd_frames += count

    def cache(self, flow: int, hits: int, misses: int) -> None:
        """Flow-cache attribution (EMC / MAC table / P4 flow table)."""
        record = self._record(flow)
        record.cache_hits += hits
        record.cache_misses += misses
        totals = self.totals
        totals.cache_hits += hits
        totals.cache_misses += misses

    def latency(self, flow: int, rtt_ns: float) -> None:
        """Probe RTT sample for one flow (stored in microseconds)."""
        hist = self._latency.get(flow)
        if hist is None:
            if len(self._latency) >= self.capacity:
                if self._latency_other is None:
                    self._latency_other = Histogram(
                        "flow.latency.other", bounds=_LATENCY_BOUNDS
                    )
                hist = self._latency_other
            else:
                hist = Histogram(f"flow.latency.{flow}", bounds=_LATENCY_BOUNDS)
                self._latency[flow] = hist
        hist.observe(rtt_ns / 1e3)

    # -- batch helpers (one call per hook site) ----------------------------

    def tx_batch(self, batch) -> None:
        for item in batch:
            runs = item.flows
            if runs is None:
                runs = ((item.flow_id, item.count),)
            self.tx_runs(runs, item.size)

    def rx_batch(self, batch) -> None:
        for item in batch:
            runs = item.flows
            if runs is None:
                runs = ((item.flow_id, item.count),)
            self.rx_runs(runs, item.size)

    def fwd_batch(self, batch) -> None:
        for item in batch:
            runs = item.flows
            if runs is None:
                runs = ((item.flow_id, item.count),)
            self.fwd_runs(runs)

    def drop_item(self, item) -> None:
        runs = item.flows
        if runs is None:
            runs = ((item.flow_id, item.count),)
        self.drop_runs(runs, item.size)

    def wire_split_runs(
        self,
        runs: Iterable[tuple[int, int]],
        kept: list[int],
        size: int,
    ) -> None:
        """Split a block's runs into wire-sent and dropped frames.

        ``kept`` holds the surviving frame offsets (ascending), exactly
        the list :meth:`NicPort.send_batch` builds while puncturing a
        multi-flow block; frames not in ``kept`` were dropped.
        """
        cursor = 0
        end = 0
        total_kept = len(kept)
        for flow, count in runs:
            end += count
            kept_here = 0
            while cursor < total_kept and kept[cursor] < end:
                kept_here += 1
                cursor += 1
            # Run by run, as per-frame sends attribute the frames: which
            # record a full table evicts depends on the order of updates.
            if kept_here:
                self.wire_runs(((flow, kept_here),), size)
            if count - kept_here:
                self.drop_runs(((flow, count - kept_here),), size)

    # -- reporting ---------------------------------------------------------

    def top_flows(self, n: int | None = None) -> list[FlowRecord]:
        """Tracked records ranked by weight (heaviest first, stable)."""
        ranked = sorted(self.records.values(), key=lambda r: (-r.weight, r.flow))
        return ranked if n is None else ranked[:n]

    def _fairness(self, tracked: list[FlowRecord]) -> dict:
        # Rate fairness over delivered frames; offered frames are the
        # fallback for hook subsets that never see the receive side.
        values = [r.rx_frames for r in tracked]
        if not any(values):
            values = [r.tx_frames for r in tracked]
        nonzero = [v for v in values if v]
        head = max(nonzero) if nonzero else 0
        tail = min(nonzero) if nonzero else 0
        losses = sorted(r.loss_rate for r in tracked)

        def pct(q: float) -> float:
            if not losses:
                return 0.0
            rank = max(0, math.ceil(len(losses) * q / 100) - 1)
            return losses[rank]

        return {
            "jain": jain_index(values) if values else 1.0,
            "head_rate": head,
            "tail_rate": tail,
            "skew": (head / tail) if tail else math.inf if head else 1.0,
            "loss_p50": pct(50),
            "loss_p90": pct(90),
            "loss_p99": pct(99),
        }

    def latency_digests(self) -> dict:
        """Per-probe-flow latency digests (microseconds), JSON-safe."""
        out = {
            str(flow): hist.summary()
            for flow, hist in sorted(self._latency.items())
        }
        if self._latency_other is not None:
            out["other"] = self._latency_other.summary()
        return out

    def summary(self, top: int | None = None) -> dict:
        """Compact JSON-safe digest for campaign records and exports."""
        tracked = self.top_flows(top)
        fairness = self._fairness(tracked)
        if fairness["skew"] == math.inf:
            fairness["skew"] = None  # JSON-safe
        return {
            "top_k": self.capacity,
            "tracked": len(self.records),
            "evictions": self.evictions,
            "adoptions": self.adoptions,
            "totals": self.totals.to_dict(),
            "other": self.other.to_dict(),
            "flows": [record.to_dict() for record in tracked],
            "fairness": fairness,
            "latency_us": self.latency_digests(),
        }


def flow_table(summary: dict, top: int = 10) -> str:
    """Render a flowstats summary as an aligned heavy-hitter table."""
    header = (
        f"{'flow':>10}  {'tx':>10}  {'rx':>10}  {'drop':>8}  "
        f"{'loss%':>7}  {'hit%':>6}  {'p50us':>8}  {'p99us':>8}"
    )
    lines = [header, "-" * len(header)]
    latency = summary.get("latency_us", {})

    def fmt(record: dict, label: str | None = None) -> str:
        digest = latency.get(str(record["flow"]), {})
        p50, p99 = digest.get("p50"), digest.get("p99")
        p50_s = f"{p50:>8.1f}" if p50 is not None else f"{'-':>8}"
        p99_s = f"{p99:>8.1f}" if p99 is not None else f"{'-':>8}"
        return (
            f"{label if label is not None else record['flow']:>10}  "
            f"{record['tx_frames']:>10}  {record['rx_frames']:>10}  "
            f"{record['drop_frames']:>8}  {record['loss_rate'] * 100:>7.3f}  "
            f"{record['cache_hit_rate'] * 100:>6.2f}  {p50_s}  {p99_s}"
        )

    for record in summary["flows"][:top]:
        lines.append(fmt(record))
    other = summary["other"]
    if other["tx_frames"] or other["rx_frames"] or other["drop_frames"]:
        lines.append(fmt(other, label="other"))
    lines.append(fmt(summary["totals"], label="total"))
    fairness = summary["fairness"]
    skew = fairness["skew"]
    lines.append(
        f"tracked {summary['tracked']}/{summary['top_k']} flows "
        f"({summary['evictions']} evictions)  "
        f"jain={fairness['jain']:.4f}  "
        f"skew={'inf' if skew is None else f'{skew:.2f}'}  "
        f"loss p50/p90/p99={fairness['loss_p50'] * 100:.3f}/"
        f"{fairness['loss_p90'] * 100:.3f}/{fairness['loss_p99'] * 100:.3f}%"
    )
    return "\n".join(lines)


def wire_flowstats(tb, stats: FlowStats) -> None:
    """Attach a :class:`FlowStats` to every hook point of a testbed.

    Touches the switch, its attachments' NIC ports (both ends of each
    wire) and rings, vif rings, pipeline link rings, and any traffic
    source/monitor the scenario stashed in ``tb.extras``.  Objects opt in
    by carrying a ``flowstats`` attribute; everything else is skipped.
    """
    seen: set[int] = set()

    def hook(obj) -> None:
        if obj is None or id(obj) in seen:
            return
        seen.add(id(obj))
        if hasattr(obj, "flowstats"):
            obj.flowstats = stats

    hook(tb.switch)
    for attachment in tb.switch.attachments:
        port = getattr(attachment, "port", None)
        if port is not None:
            hook(port)
            hook(port.rx_ring)
            if port.peer is not None:
                hook(port.peer)
                hook(port.peer.rx_ring)
        vif = getattr(attachment, "vif", None)
        if vif is not None:
            hook(vif.to_guest)
            hook(vif.to_host)
    for path in tb.switch.paths:
        hook(path.link)
    for value in tb.extras.values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        for obj in items:
            hook(obj)
