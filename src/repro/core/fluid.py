"""Fluid tier: rate-based counter extrapolation for long steady horizons.

The exact tiers (:mod:`repro.core.warp`, :mod:`repro.core.turbo`) are
bit-identical and always safe, but their cost still grows with the
number of *busy* events -- a saturating NDR probe over an hour-scale
horizon executes billions of switch breaths no matter how cleverly the
idle gaps are skipped.  The fluid tier trades bit-identity for a bounded
relative error: it runs the testbed exactly through warm-up plus a short
**calibration slice** of the measurement window, checks that the slice
is rate-stable (two halves agree within tolerance, and each holds enough
frames to tell), then evolves every meter's counters piecewise-linearly
to the window edge and discards the remaining events.  Flow-table
effects (EMC/MAC/flow-table hit rates) need no special casing: the
calibration slice executes them exactly, so their folded cost is
already inside the measured rate.

Fluid mode is **opt-in** (``REPRO_FLUID=1`` or ``--fluid``) and carries
its own validation: the differential oracle (``tools/oracle.py``)
A/B-compares fluid against exact mode on a switch grid, predicts its
decline reasons, and CI gates the relative error at the declared
tolerance (:data:`FLUID_TOLERANCE`, 5%).  When enabled it joins the
campaign cache fingerprint (via :func:`repro.core.warp.engine_features`)
so fluid rows can never collide with exact rows.  Probes and transients
stay exact: latency samples come from the calibration slice, and runs
with fault plans, churn, telemetry sessions or per-packet tracing
decline to the exact tiers.  Like them, :func:`try_fluid` reports a
:class:`~repro.core.warp.WarpReport` (mode ``"fluid"``);
:func:`repro.measure.runner.drive` decides whether it runs and what runs
after a decline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.warp import WarpReport, _Decline, _env_switch

if TYPE_CHECKING:
    from repro.scenarios.base import Testbed

#: Fluid algorithm revision; joins the campaign cache fingerprint
#: whenever fluid mode is enabled.
#: 2: a calibration half too short to resolve the tolerance declines.
FLUID_VERSION = 2

#: Fraction of the measurement window executed exactly for calibration,
#: and its clamps.  The cap is what buys hour-scale speedups: a 1-hour
#: window calibrates for 8 ms of simulated time (~450000x less event
#: work), a short CI window still calibrates over at least 1 ms.
CAL_FRACTION = 0.02
CAL_FLOOR_NS = 1_000_000.0
CAL_CAP_NS = 8_000_000.0

#: Declared max relative error of a fluid rate against exact mode: the
#: calibration slice's halves must agree within it, and the validation
#: tier gates on it.
FLUID_TOLERANCE = 0.05

#: Half-vs-half packet-count drift that burst quantisation alone can
#: cause (sources emit up to 32-frame bursts).  A half-slice holding
#: fewer than ``QUANT_SLACK_PACKETS / FLUID_TOLERANCE`` frames cannot
#: tell a drift within the tolerance from one beyond it.
QUANT_SLACK_PACKETS = 64


def fluid_enabled(default: bool = False) -> bool:
    """Whether the environment enables fluid mode (``REPRO_FLUID``)."""
    return _env_switch("REPRO_FLUID", default)


def _eligibility(tb: "Testbed") -> None:
    if tb.sim._observer is not None:
        raise _Decline("per-packet-tracing")
    if tb.switch.obs is not None:
        # Fluid extrapolates only the meters: registry gauges, histograms
        # and the profile would stop at the calibration edge.
        raise _Decline("observed")
    if tb.extras.get("fault_injector") is not None:
        # Faults are exactly the transients fluid cannot extrapolate
        # across; resilience runs stay on the exact tiers.
        raise _Decline("fault-plan-active")
    population = tb.extras.get("flow_population")
    if population is not None and population.churn_fps:
        raise _Decline("flow-churn")
    if tb.switch.flowstats is not None:
        # Per-flow telemetry counts events; extrapolated counters would
        # leave it silently truncated at the calibration edge.
        raise _Decline("flow-telemetry")


def try_fluid(tb: "Testbed", t_open: float, t_close: float) -> WarpReport:
    """Attempt the fluid fast-forward for the window ``[t_open, t_close]``.

    On engagement the meters hold extrapolated window counts, the event
    heap is empty, and the caller's ``run_until(t_close)`` merely clamps
    the clock.  On a pre-window decline the simulator is untouched; on a
    mid-window decline (``unstable-rate``) the run has simply executed
    exactly up to the calibration edge.
    """
    try:
        _eligibility(tb)
    except _Decline as decline:
        return WarpReport(engaged=False, reason=decline.reason, mode="fluid")

    span = t_close - t_open
    cal_ns = min(CAL_CAP_NS, max(CAL_FLOOR_NS, CAL_FRACTION * span))
    if span < 2.0 * cal_ns:
        return WarpReport(engaged=False, reason="span-too-short", mode="fluid")

    sim = tb.sim
    meters = list(tb.meters)
    sim.run_until(t_open)
    base = [(meter.packets, meter.bytes) for meter in meters]
    t_cal = t_open + cal_ns
    sim.run_until(t_open + cal_ns / 2.0)
    mid = [meter.packets for meter in meters]
    sim.run_until(t_cal)
    cal = [(meter.packets, meter.bytes) for meter in meters]

    for (packets0, _), packets_mid, (packets1, _) in zip(base, mid, cal):
        first = packets_mid - packets0
        second = packets1 - packets_mid
        peak = max(first, second)
        drift = abs(first - second)
        if max(drift, QUANT_SLACK_PACKETS) > FLUID_TOLERANCE * peak:
            return WarpReport(
                engaged=False, reason="unstable-rate", verify_ns=cal_ns, mode="fluid"
            )

    remaining = t_close - t_cal
    for meter, (packets0, bytes0), (packets1, bytes1) in zip(meters, base, cal):
        add_packets = int(round((packets1 - packets0) * remaining / cal_ns))
        add_bytes = int(round((bytes1 - bytes0) * remaining / cal_ns))
        meter.set_counts(
            packets1 + add_packets, bytes1 + add_bytes, meter.warmup_packets
        )
    sim._queue.clear()
    return WarpReport(engaged=True, warped_ns=remaining, verify_ns=cal_ns, mode="fluid")
