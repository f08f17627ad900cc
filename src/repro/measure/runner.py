"""Experiment execution: warm-up, measurement window, result records.

:func:`drive` alone decides which fast-forward tiers run: it reads the
``REPRO_FLUID`` and ``REPRO_WARP`` switches (or its ``fluid``/``warp``
arguments) and tries fluid, then the replay, then the chain turbo, each
returning a :class:`~repro.core.warp.WarpReport`.

Setting ``REPRO_WATCHDOG=1`` in the environment attaches an
:class:`~repro.faults.watchdog.InvariantWatchdog` to every driven
testbed (``REPRO_WATCHDOG=strict`` raises on the first violation;
``REPRO_WATCHDOG_REPORT=path.jsonl`` appends one report row per run).
The watchdog is a read-only periodic scanner, so measured numbers are
unchanged -- it exists so CI can assert model invariants across the
whole tier-1 suite without instrumenting hot paths.  No tier runs under
it: its scans must see every intermediate state, so a watched run is
dispatched event by event and its reports decline as
``watchdog-active``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.core.fluid import fluid_enabled, try_fluid
from repro.core.stats import LatencySample
from repro.core.turbo import turbo_drive
from repro.core.warp import WarpReport, try_warp, warp_enabled
from repro.scenarios.base import Testbed

#: Default windows.  Throughput stabilises within a few hundred
#: microseconds of simulated time; the defaults trade precision against
#: wall-clock cost and are overridable everywhere.
DEFAULT_WARMUP_NS = 600_000.0
DEFAULT_MEASURE_NS = 3_000_000.0


def _env_watchdog(tb: Testbed):
    """Attach the opt-in invariant watchdog when the environment asks."""
    mode = os.environ.get("REPRO_WATCHDOG", "")
    if mode not in ("1", "true", "strict"):
        return None
    from repro.faults.watchdog import InvariantWatchdog

    watchdog = InvariantWatchdog(tb, strict=mode == "strict")
    watchdog.start()
    return watchdog


@dataclass
class RunResult:
    """Outcome of driving one testbed for one measurement window."""

    scenario: str
    switch: str
    frame_size: int
    bidirectional: bool
    duration_ns: float
    per_direction_gbps: list[float] = field(default_factory=list)
    per_direction_mpps: list[float] = field(default_factory=list)
    latency: LatencySample | None = None
    events: int = 0
    #: What the fast-forward tiers did: the engaged tier's report, else
    #: the turbo's decline (None when warp is off and fluid did not engage).
    warp: WarpReport | None = None
    #: What the fluid tier did (None when fluid mode is off).
    fluid: WarpReport | None = None

    @property
    def gbps(self) -> float:
        """Aggregate throughput (the paper sums directions for bidi)."""
        return sum(self.per_direction_gbps)

    @property
    def mpps(self) -> float:
        return sum(self.per_direction_mpps)


def drive(
    tb: Testbed,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    bidirectional: bool | None = None,
    warp: bool | None = None,
    fluid: bool | None = None,
) -> RunResult:
    """Run a wired testbed through warm-up + measurement; collect results.

    ``warp`` controls the exact fast-forward tiers (:mod:`repro.core.warp`
    steady-state replay, then the :mod:`repro.core.turbo` chain turbo):
    ``None`` follows the ``REPRO_WARP`` environment switch (default on).
    Results are bit-identical either way -- both tiers decline
    automatically whenever the run is not provably safe.

    ``fluid`` opts into the approximate tier (:mod:`repro.core.fluid`):
    ``None`` follows ``REPRO_FLUID`` (default off).  When fluid engages
    it supersedes the exact tiers for that run; when it declines, even
    mid-window, the run falls through to them from where it stands.
    """
    if warmup_ns < 0:
        raise ValueError("warmup_ns must be non-negative")
    if measure_ns <= 0:
        raise ValueError("measure_ns must be positive")
    t_open = warmup_ns
    t_close = warmup_ns + measure_ns
    for meter in tb.meters:
        meter.open_window(t_open)
        meter.close_window(t_close)
    watchdog = _env_watchdog(tb)
    use_fluid = fluid if fluid is not None else fluid_enabled()
    use_warp = warp if warp is not None else warp_enabled()
    warp_report: WarpReport | None = None
    fluid_report: WarpReport | None = None
    if watchdog is not None:
        if use_fluid:
            fluid_report = WarpReport(engaged=False, reason="watchdog-active", mode="fluid")
        if use_warp:
            warp_report = WarpReport(engaged=False, reason="watchdog-active", mode="turbo")
    else:
        if use_fluid:
            fluid_report = try_fluid(tb, t_open, t_close)
            if fluid_report.engaged:
                warp_report = fluid_report
        if use_warp and warp_report is None:
            # The replay warp handles clean unidirectional p2p; everything
            # else falls through to the chain turbo, which dispatches the
            # run itself (bit-identically) while bulk-advancing idle spans.
            warp_report = try_warp(tb, t_close)
            if not warp_report.engaged:
                warp_report = turbo_drive(tb, t_close)
    tb.sim.run_until(t_close)
    if watchdog is not None:
        watchdog.finalize()
        report_path = os.environ.get("REPRO_WATCHDOG_REPORT")
        if report_path:
            watchdog.append_report(
                report_path,
                label=f"{tb.scenario}/{tb.switch.params.name}/{tb.frame_size}B",
            )

    per_gbps = []
    per_mpps = []
    for meter in tb.meters:
        gbps = meter.gbps()
        per_gbps.append(0.0 if math.isnan(gbps) else gbps)
        pps = meter.pps
        per_mpps.append(0.0 if math.isnan(pps) else pps / 1e6)

    latency: LatencySample | None = None
    if tb.latency_meters:
        latency = LatencySample()
        for meter in tb.latency_meters:
            for sample in meter.latency.samples_ns:
                latency.add(sample)

    return RunResult(
        scenario=tb.scenario,
        switch=tb.switch.params.name,
        frame_size=tb.frame_size,
        bidirectional=bidirectional if bidirectional is not None else len(tb.meters) > 1,
        duration_ns=measure_ns,
        per_direction_gbps=per_gbps,
        per_direction_mpps=per_mpps,
        latency=latency,
        events=tb.sim.events_executed,
        warp=warp_report,
        fluid=fluid_report,
    )
