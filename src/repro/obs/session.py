"""Observation sessions: wire tracing/metrics/profiling onto a Testbed.

:func:`observe` is the single entry point: given a wired
:class:`~repro.scenarios.base.Testbed` and an :class:`ObsConfig`, it
installs the per-component probes (engine observer, core probes, the
switch probe) and registers the uniform metric series over every layer.
Nothing in the simulation changes behaviour -- probes only *read* -- so
an observed run produces bit-identical measurements to an unobserved one.

Disabled-by-default economics: components carry an ``obs`` attribute
that is ``None`` until a session attaches, and every hot-path hook is a
single ``is not None`` test; the engine keeps its un-instrumented
dispatch loop whenever no observer is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.packet import batch_count
from repro.obs.exporters import (
    chrome_trace_document,
    events_jsonl_text,
    flow_prometheus_text,
    prometheus_text,
    write_text,
)
from repro.obs.flowstats import DEFAULT_TOP_K, FlowStats, wire_flowstats
from repro.obs.metrics import MetricsRegistry, hdr_bounds
from repro.obs.profiler import CycleProfiler, ProfileReport
from repro.obs.tracing import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_SAMPLE_RATE,
    SimObserver,
    Tracer,
)


@dataclass(frozen=True)
class ObsConfig:
    """What to collect during a run.

    ``sample_rate`` applies to per-packet lifecycle spans: one serviced
    batch in N is traced.  ``metrics`` costs (almost) nothing during the
    run -- series are read lazily at snapshot time plus one histogram
    update per serviced batch; ``trace`` buffers events and is the
    expensive mode.
    """

    trace: bool = False
    metrics: bool = True
    profile: bool = True
    sample_rate: int = DEFAULT_SAMPLE_RATE
    max_trace_events: int = DEFAULT_MAX_EVENTS
    #: Per-flow telemetry (``repro.obs.flowstats``): off by default so
    #: pre-existing observed snapshots stay bit-identical.
    flowstats: bool = False
    #: Heavy-hitter table capacity when ``flowstats`` is on.
    top_k: int = DEFAULT_TOP_K

    @classmethod
    def from_items(cls, items: Iterable[tuple[str, Any]]) -> "ObsConfig":
        """Revive from a RunSpec's canonical ``obs`` tuple."""
        known = {f for f in cls.__dataclass_fields__}
        payload = {key: value for key, value in items if key in known}
        return cls(**payload)

    def to_items(self) -> tuple[tuple[str, Any], ...]:
        """Canonical hashable form for embedding in a RunSpec."""
        return tuple(
            sorted(
                (name, getattr(self, name))
                for name in self.__dataclass_fields__
            )
        )

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics or self.profile or self.flowstats


class CoreProbe:
    """Per-core trace hook: busy-poll spans, sleep/wake instants."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def on_poll(self, core_name: str, ts_ns: float, dur_ns: float, cycles: float) -> None:
        self.tracer.span(
            "poll", ts_ns, dur_ns, tid=f"core/{core_name}", cat="cpu",
            args={"cycles": cycles},
        )

    def on_sleep(self, core_name: str, ts_ns: float) -> None:
        self.tracer.instant("sleep", ts_ns, tid=f"core/{core_name}", cat="cpu")

    def on_wake(self, core_name: str, ts_ns: float) -> None:
        self.tracer.instant("wake", ts_ns, tid=f"core/{core_name}", cat="cpu")


class SwitchProbe:
    """Per-batch hook on the switch poll loop.

    Receives the raw stage cycle components of every serviced batch and
    fans them into the profiler (attribution), the metrics histograms
    (batch constitution) and, for sampled batches, per-packet lifecycle
    spans on the tracer.
    """

    __slots__ = ("tracer", "profiler", "batch_hist", "service_hist", "freq_hz", "flowstats")

    def __init__(
        self,
        tracer: Tracer | None,
        profiler: CycleProfiler | None,
        batch_hist=None,
        service_hist=None,
        freq_hz: float = 2.6e9,
        flowstats=None,
    ) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.batch_hist = batch_hist
        self.service_hist = service_hist
        self.freq_hz = freq_hz
        self.flowstats = flowstats

    def on_batch(
        self,
        path,
        ts_ns: float,
        rx_cycles: float,
        proc_cycles: float,
        tx_cycles: float,
        overhead_cycles: float,
        n_packets: int,
        batch,
        service_ns: float,
    ) -> None:
        """Record one serviced batch.

        ``n_packets`` is the number of packets *completing* the path in
        this call -- pipeline RX stages pass 0 (their packets complete at
        the TX stage) so attribution never double-counts, while ``batch``
        is always the actual packet list serviced by the stage.
        """
        path_name = f"{path.input.name}->{path.output.name}"
        if self.profiler is not None:
            self.profiler.record_batch(
                path_name, n_packets, rx_cycles, proc_cycles, tx_cycles, overhead_cycles
            )
        if self.batch_hist is not None and batch:
            self.batch_hist.observe(float(batch_count(batch)))
        if self.service_hist is not None and n_packets:
            total = rx_cycles + proc_cycles + tx_cycles + overhead_cycles
            self.service_hist.observe(total / n_packets)
        tracer = self.tracer
        if tracer is None:
            return
        tracer.span(
            "batch", ts_ns, max(service_ns, 0.0), tid=f"path/{path_name}", cat="switch",
            args={
                "packets": n_packets,
                "rx_cycles": rx_cycles,
                "proc_cycles": proc_cycles,
                "tx_cycles": tx_cycles,
                "overhead_cycles": overhead_cycles,
            },
        )
        # Per-packet lifecycle: the head packet of sampled batches gets a
        # wait span (creation -> service start) and a service span.
        if batch and tracer.sampled(ts_ns):
            head = batch[0]
            tid = f"pkt/{path_name}"
            wait_ns = ts_ns - head.t_created
            if wait_ns > 0:
                tracer.span(
                    "pkt.wait", head.t_created, wait_ns, tid=tid, cat="packet",
                    args={"flow": head.flow_id, "hops": head.hops},
                )
            tracer.span(
                "pkt.service", ts_ns, max(service_ns, 0.0), tid=tid, cat="packet",
                args={"flow": head.flow_id, "size": head.size, "batch": batch_count(batch)},
            )
            # Flow lanes: one span per tracked flow in the sampled batch's
            # head item.  Restricting lanes to flows the heavy-hitter
            # table currently tracks keeps trace cardinality O(top_k).
            flowstats = self.flowstats
            if flowstats is not None:
                runs = head.flows
                if runs is None:
                    runs = ((head.flow_id, head.count),)
                records = flowstats.records
                for flow, frames in runs:
                    if flow in records:
                        tracer.span(
                            "flow.batch", ts_ns, max(service_ns, 0.0),
                            tid=f"flow/{flow}", cat="flow",
                            args={"frames": frames},
                        )

    def on_global_overhead(self, kind: str, cycles: float) -> None:
        if self.profiler is not None:
            self.profiler.record_global_overhead(kind, cycles)


def _sanitize(name: str) -> str:
    return name.replace(" ", "_")


class Observation:
    """One run's observability state: tracer + registry + profiler."""

    def __init__(self, tb, config: ObsConfig) -> None:
        self.tb = tb
        self.config = config
        self.tracer: Tracer | None = (
            Tracer(sample_rate=config.sample_rate, max_events=config.max_trace_events)
            if config.trace
            else None
        )
        self.registry: MetricsRegistry | None = MetricsRegistry() if config.metrics else None
        self.profiler: CycleProfiler | None = (
            CycleProfiler(switch=tb.switch.params.name, scenario=tb.scenario)
            if config.profile
            else None
        )
        self.flowstats: FlowStats | None = (
            FlowStats(top_k=config.top_k) if config.flowstats else None
        )
        self.sim_observer: SimObserver | None = None
        self._latency_hist = None
        self._wire()

    # -- wiring ------------------------------------------------------------

    def _wire(self) -> None:
        tb, registry, tracer = self.tb, self.registry, self.tracer
        if tracer is not None:
            self.sim_observer = SimObserver(tb.sim, tracer)
            tb.sim.set_observer(self.sim_observer)
            probe = CoreProbe(tracer)
            for node in tb.machine.nodes:
                for core in node.cores:
                    core.obs = probe

        batch_hist = service_hist = None
        if registry is not None:
            self._register_metrics()
            batch_hist = registry.histogram(
                f"switch.{tb.switch.params.name}.batch_size",
                bounds=hdr_bounds(max_value=512, subdivisions=4),
            )
            service_hist = registry.histogram(
                f"switch.{tb.switch.params.name}.cycles_per_packet",
                bounds=hdr_bounds(max_value=65536, subdivisions=8),
            )
        if self.flowstats is not None:
            wire_flowstats(tb, self.flowstats)
        if tracer is not None or self.profiler is not None or registry is not None:
            tb.switch.obs = SwitchProbe(
                tracer,
                self.profiler,
                batch_hist=batch_hist,
                service_hist=service_hist,
                freq_hz=tb.machine.freq_hz,
                flowstats=self.flowstats,
            )

    def _register_metrics(self) -> None:
        """The uniform series: one gauge per counter across every layer."""
        tb, registry = self.tb, self.registry
        assert registry is not None
        sim = tb.sim
        registry.gauge("sim.events_executed", lambda: float(sim.events_executed))
        registry.gauge("sim.pending", lambda: float(sim.pending()))
        registry.gauge("sim.now_ns", lambda: sim.now)

        for node in tb.machine.nodes:
            for core in node.cores:
                name = _sanitize(core.name)
                registry.gauge(f"cpu.core.{name}.busy_ns", lambda c=core: c.busy_ns)
            bus = node.bus
            registry.gauge(
                f"cpu.numa{node.index}.bus.bytes_copied",
                lambda b=bus: float(b.bytes_copied),
            )

        switch = tb.switch
        sw = _sanitize(switch.params.name)
        registry.gauge(
            f"switch.{sw}.forwarded", lambda s=switch: float(s.total_forwarded)
        )
        for index, path in enumerate(switch.paths):
            label = f"switch.{sw}.path.{index}"
            registry.gauge(f"{label}.forwarded", lambda p=path: float(p.forwarded))
            ring = path.input.input_ring
            registry.gauge(f"{label}.input.depth", ring.peek_len)
            registry.gauge(f"{label}.input.dropped", lambda r=ring: float(r.dropped))
            registry.gauge(f"{label}.input.enqueued", lambda r=ring: float(r.enqueued))

        if tb.extras.get("flow_population") is not None:
            # Flow-cache gauges exist only under a non-trivial population:
            # single-flow observed snapshots stay bit-identical to the
            # pre-flow-axis golden capture.
            for key in switch.cache_stats():
                registry.gauge(
                    f"switch.{sw}.cache.{key}",
                    lambda s=switch, k=key: float(s.cache_stats()[k]),
                )

        seen_ports: set[int] = set()
        for attachment in switch.attachments:
            port = getattr(attachment, "port", None)
            if port is not None and id(port) not in seen_ports:
                seen_ports.add(id(port))
                self._register_port(port)
            vif = getattr(attachment, "vif", None)
            if vif is not None:
                self._register_vif(vif)

    def _register_port(self, port) -> None:
        registry = self.registry
        assert registry is not None
        base = f"nic.{_sanitize(port.name)}"
        registry.gauge(f"{base}.tx_packets", lambda p=port: float(p.tx_packets))
        registry.gauge(f"{base}.rx_packets", lambda p=port: float(p.rx_packets))
        registry.gauge(f"{base}.tx_dropped", lambda p=port: float(p.tx_dropped))
        registry.gauge(f"{base}.driver_drops", lambda p=port: float(p.driver_drops))
        ring = port.rx_ring
        registry.gauge(f"{base}.rx_ring.depth", ring.peek_len)
        registry.gauge(f"{base}.rx_ring.dropped", lambda r=ring: float(r.dropped))
        registry.gauge(f"{base}.rx_ring.enqueued", lambda r=ring: float(r.enqueued))

    def _register_vif(self, vif) -> None:
        registry = self.registry
        assert registry is not None
        base = f"vif.{_sanitize(vif.name)}"
        for direction in ("to_guest", "to_host"):
            ring = getattr(vif, direction)
            registry.gauge(f"{base}.{direction}.depth", ring.peek_len)
            registry.gauge(
                f"{base}.{direction}.dropped", lambda r=ring: float(r.dropped)
            )
            registry.gauge(
                f"{base}.{direction}.enqueued", lambda r=ring: float(r.enqueued)
            )

    # -- end of run --------------------------------------------------------

    def finish(self, result=None) -> None:
        """Fold end-of-run data (latency samples) into the registry."""
        registry = self.registry
        if registry is None:
            return
        if self._latency_hist is None and any(
            len(meter.latency) for meter in self.tb.latency_meters
        ):
            hist = registry.histogram(
                "latency.rtt_us", bounds=hdr_bounds(max_value=16384, subdivisions=8)
            )
            for meter in self.tb.latency_meters:
                for sample_ns in meter.latency.samples_ns:
                    hist.observe(sample_ns / 1e3)
            self._latency_hist = hist
        if result is not None and "run.gbps" not in registry.names():
            registry.gauge("run.gbps").set(result.gbps)
            registry.gauge("run.mpps").set(result.mpps)
            registry.gauge("run.duration_ns").set(result.duration_ns)
        if self.flowstats is not None and "flow.tracked" not in registry.names():
            # Scalar ``flow.*`` series fold into the standard registry;
            # the labelled per-flow tables stay in the dedicated exporter
            # so cardinality in the main series is fixed.
            summary = self.flowstats.summary()
            totals = summary["totals"]
            fairness = summary["fairness"]
            registry.gauge("flow.tracked").set(summary["tracked"])
            registry.gauge("flow.evictions").set(summary["evictions"])
            registry.gauge("flow.total.tx_frames").set(totals["tx_frames"])
            registry.gauge("flow.total.rx_frames").set(totals["rx_frames"])
            registry.gauge("flow.total.drop_frames").set(totals["drop_frames"])
            registry.gauge("flow.total.cache_hit_rate").set(totals["cache_hit_rate"])
            registry.gauge("flow.fairness.jain").set(fairness["jain"])
            if fairness["skew"] is not None:
                registry.gauge("flow.fairness.skew").set(fairness["skew"])
            registry.gauge("flow.loss.p50").set(fairness["loss_p50"])
            registry.gauge("flow.loss.p90").set(fairness["loss_p90"])
            registry.gauge("flow.loss.p99").set(fairness["loss_p99"])

    # -- artifacts ---------------------------------------------------------

    def profile(self) -> ProfileReport | None:
        return self.profiler.report() if self.profiler is not None else None

    def metrics_snapshot(self) -> dict:
        """Compact JSON-safe snapshot: metrics + profile + trace digest.

        This is what campaign workers return across the process boundary
        and what the store persists alongside results.  Deterministic for
        a deterministic run.
        """
        snapshot: dict = {}
        if self.registry is not None:
            snapshot["metrics"] = self.registry.snapshot()
        if self.profiler is not None:
            snapshot["profile"] = self.profiler.report().to_dict()
        if self.tracer is not None:
            snapshot["trace"] = {
                "events": len(self.tracer),
                "dropped": self.tracer.dropped_events,
            }
        if self.flowstats is not None:
            snapshot["flowstats"] = self.flowstats.summary()
        return snapshot

    def trace_metadata(self) -> dict:
        tb = self.tb
        return {
            "switch": tb.switch.params.name,
            "scenario": tb.scenario,
            "frame_size": tb.frame_size,
            "sample_rate": self.config.sample_rate,
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        if self.tracer is None:
            raise ValueError("run was not traced (ObsConfig.trace=False)")
        document = chrome_trace_document(self.tracer.events, self.trace_metadata())
        return write_text(path, json.dumps(document))

    def write_events_jsonl(self, path: str | Path) -> Path:
        if self.tracer is None:
            raise ValueError("run was not traced (ObsConfig.trace=False)")
        return write_text(path, events_jsonl_text(self.tracer.events))

    def prometheus_text(self, labels: dict[str, str] | None = None) -> str:
        if self.registry is None:
            raise ValueError("run collected no metrics (ObsConfig.metrics=False)")
        return prometheus_text(self.registry, labels)

    def write_prometheus(self, path: str | Path, labels: dict[str, str] | None = None) -> Path:
        if self.registry is None:
            raise ValueError("run collected no metrics (ObsConfig.metrics=False)")
        return write_text(path, prometheus_text(self.registry, labels))

    def flow_summary(self) -> dict:
        if self.flowstats is None:
            raise ValueError("run collected no flow stats (ObsConfig.flowstats=False)")
        return self.flowstats.summary()

    def flow_prometheus_text(self, labels: dict[str, str] | None = None) -> str:
        if self.flowstats is None:
            raise ValueError("run collected no flow stats (ObsConfig.flowstats=False)")
        return flow_prometheus_text(self.flowstats.summary(), labels)

    def write_flow_prometheus(
        self, path: str | Path, labels: dict[str, str] | None = None
    ) -> Path:
        if self.flowstats is None:
            raise ValueError("run collected no flow stats (ObsConfig.flowstats=False)")
        return write_text(path, flow_prometheus_text(self.flowstats.summary(), labels))


def observe(tb, config: ObsConfig | None = None, **overrides) -> Observation:
    """Attach an observability session to a wired testbed.

    ``observe(tb)`` collects metrics + profile; ``observe(tb, trace=True)``
    adds the structured event trace.  Call before driving the testbed.
    """
    if config is None:
        config = ObsConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    return Observation(tb, config)
