"""Differential oracle: every encoding and fast-forward tier against one reference.

A *draw* is one run configuration in the shape of a campaign
:class:`~repro.campaign.spec.RunSpec`: switch, scenario (p2p, p2v, v2v,
loopback with 1-5 VNFs, or v2v latency probes), direction, frame size
or IMIX, rate (saturating, or a fraction of the bottleneck model's
capacity), flow population (one flow, Zipf 1K-100K, or churn), fault
(none, or one fault of any kind on any valid target), trial and warm-up.
Each draw runs once as the *reference* -- block emission, every tier
off, no observers -- and once per encoding, and :func:`compare` holds
each encoding to the reference at one level:

* **strict** -- :func:`repro.core.warp.state_fingerprint` (every counter,
  float, RNG stream and pending event) plus the run statistics below,
  whose repr'd rates and event count are part of it.  Tiers on (replay
  or turbo), and tiers on with the draw's observers attached (metrics
  and profile, trace, or flowstats).
* **observable** -- ``golden_stats._run_stats`` plus the switch's cache
  counters, every core's busy time and a faulted draw's resilience
  report, and observed metric snapshots: per-packet emission (rings,
  buffers and pending closures hold frames instead of blocks, so only
  the fingerprint's representation differs), parking off and the strict
  invariant watchdog.  The event count is dropped only where the
  encoding changes it: parking and the watchdog.
* **fluid** -- when the fluid tier engages, its rate is within
  ``FLUID_TOLERANCE`` of the reference's; a declined fluid run falls
  through to the exact tiers and must leave no trace, so it is compared
  strictly.

:func:`expected_tier` predicts the tier report of every run: the engaged
mode, or the decline reason (fluid's included).  An engaged tier must
leave ``drive``'s closing ``run_until`` only the clock to advance.

The command line runs a fixed grid, then seeded random draws:

* 84 cells: 7 switches x 6 shapes (uni and bidi p2p, p2v, v2v, loopback
  with 2 and 3 VNFs) x saturating and sub-capacity input, tiers off
  against tiers on, with the engagement table, at least half the events
  advanced in bulk on every engaged sub-capacity cell, and every replay
  starting at the run's first event (``warped_ns == warmup + measure -
  verify_ns``).  The ``off=``/``on=`` columns are the per-tier speed
  record.
* Fluid against the exact tiers on a 200 ms window (the fastest and
  slowest exact switches and the mid-field DPDK reference), the fluid
  declines on a fault plan and on a short span, and with
  ``--hour-scale`` a one-hour fluid window that must run at least 50x
  faster than the exact tiers would.
* ``CLI_DRAWS`` random draws at the given window.

Usage: ``PYTHONPATH=src python tools/oracle.py [measure_ns] [--hour-scale]
[--out PATH]`` (default window 3 ms; the last line is ``failures: N``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Any
from unittest import mock

sys.path.insert(0, "src")

from golden_stats import BUILDERS, _run_stats

from repro.analysis.bottleneck import estimate
from repro.campaign.spec import RunSpec
from repro.core.fluid import CAL_CAP_NS, CAL_FLOOR_NS, CAL_FRACTION, FLUID_TOLERANCE
from repro.core.packet import per_packet_emission
from repro.core.warp import MIN_VERIFY_NS, state_fingerprint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, INSTANT_KINDS, FaultEvent, FaultPlan
from repro.flows import resolve_flow_population
from repro.flows.population import flow_axis_items
from repro.measure.resilience import measure_resilience
from repro.measure.runner import drive
from repro.obs import ObsConfig, observe
from repro.scenarios import v2v
from repro.switches.registry import params_for
from repro.traffic.guest import GuestMonitor

SWITCHES = ("bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s", "snabb", "vale")

#: Switches whose own core the turbo never profiles, with the reason it
#: declines where no other core is chain-eligible: every shape but
#: loopback, the v2v latency probes and VALE's bidirectional p2v and v2v,
#: whose guest cores are (VNFs, the probe's bounce, the in-VM VALE bridge
#: that pkt-gen's TX and RX share).
UNPROFILED = {"snabb": "pipeline-switch", "vale": "interrupt-driven"}

#: A random draw's window, and the warm-up that opens it after the
#: replay's verify slice (the others are none and 100 us, inside it).
DRAW_MEASURE_NS = 1_200_000.0
DRAW_WARMUP_NS = 400_000.0

#: Random draws the command line runs after the fixed grid, and their seed.
CLI_DRAWS = 12
CLI_SEED = 20261019

#: Least share of its events an engaged sub-capacity grid cell must
#: advance in bulk: idle polls that only wait on a timer (t4p4s's strict
#: batch, FastClick's and l2fwd's TX drains) must not fall back to
#: event-by-event dispatch.
MIN_BULK_FRAC = 0.5


@dataclass(frozen=True)
class Encoding:
    """How a draw runs: the tiers, the observers and the representation."""

    name: str
    level: str
    warp: bool = True
    fluid: bool = False
    observed: bool = False  # attach the draw's ObsConfig
    per_packet: bool = False
    parking: bool = True
    watchdog: bool = False
    events: bool = True  # the encoding keeps the event count


REFERENCE = Encoding("reference", "strict", warp=False)
TIERS = Encoding("tiers", "strict")
OBSERVED = Encoding("observed", "strict", observed=True)
PER_PACKET = Encoding("per-packet", "observable", per_packet=True, observed=True)
PARKING_OFF = Encoding("parking-off", "observable", parking=False, events=False)
WATCHDOG = Encoding("watchdog", "observable", watchdog=True, events=False)
FLUID = Encoding("fluid", "fluid", fluid=True)
ENCODINGS = (TIERS, OBSERVED, PER_PACKET, PARKING_OFF, WATCHDOG, FLUID)


# -- runs ---------------------------------------------------------------------


@dataclass
class Run:
    """What one drive leaves behind, in the forms the levels compare."""

    result: Any
    fingerprint: tuple
    stats: dict
    snapshot: dict | None = None
    wall_s: float = 0.0
    #: Events the drive's closing ``run_until`` dispatched.
    tail_events: int | None = None

    @classmethod
    def of(cls, tb, result, report=None, observation=None, wall_s=0.0) -> "Run":
        stats = _run_stats(tb, result)
        stats["cache"] = {name: repr(value) for name, value in tb.switch.cache_stats().items()}
        stats["busy_ns"] = [
            (core.name, repr(core.busy_ns)) for node in tb.machine.nodes for core in node.cores
        ]
        if report is not None:
            stats["resilience"] = report.to_dict()
        snapshot = None
        if observation is not None:
            observation.finish(result)
            snapshot = json.loads(
                json.dumps(observation.metrics_snapshot(), default=repr, sort_keys=True)
            )
        return cls(result, state_fingerprint(tb), stats, snapshot, wall_s)


_MONITOR_INIT = GuestMonitor.__init__


def _busy_monitor_init(self, *args, **kwargs):
    """Parking off: a guest monitor without the rings it parks on busy-polls."""
    _MONITOR_INIT(self, *args, **kwargs)
    del self.park_rings


def run(spec: RunSpec, encoding: Encoding = REFERENCE) -> Run:
    """Build and drive ``spec`` under ``encoding``."""
    kwargs = dict(spec.extra)
    if spec.trial:
        kwargs["trial"] = spec.trial
    if spec.scenario == "loopback":
        kwargs["n_vnfs"] = spec.n_vnfs
    config = ObsConfig.from_items(spec.obs) if encoding.observed and spec.obs else None
    built = []
    dispatched = []  # events per run_until call; drive's closing call is last

    def build(*args, **build_kwargs):
        builder = v2v.build_latency if spec.kind == "latency" else BUILDERS[spec.scenario]
        built.append(builder(*args, **build_kwargs))
        sim = built[-1].sim
        run_until = sim.run_until

        def logged_run_until(t_end_ns):
            before = sim.events_executed
            run_until(t_end_ns)
            dispatched.append(sim.events_executed - before)

        sim.run_until = logged_run_until
        return built[-1]

    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {
            "REPRO_WARP": "1" if encoding.warp else "0",
            "REPRO_FLUID": "1" if encoding.fluid else "0",
            "REPRO_WATCHDOG": "strict" if encoding.watchdog else "0",
        }))
        if encoding.per_packet:
            stack.enter_context(per_packet_emission())
        if not encoding.parking:
            stack.enter_context(mock.patch.object(GuestMonitor, "__init__", _busy_monitor_init))
        start = time.perf_counter()
        if spec.faults:
            result, report, observation = measure_resilience(
                build, spec.switch, spec.frame_size, spec.fault_plan,
                bidirectional=spec.bidirectional, warmup_ns=spec.warmup_ns,
                measure_ns=spec.measure_ns, seed=spec.seed,
                observe_config=config, **kwargs,
            )
        else:
            report = None
            if spec.kind != "latency":
                kwargs["bidirectional"] = spec.bidirectional
            tb = build(spec.switch, frame_size=spec.frame_size, seed=spec.seed, **kwargs)
            observation = observe(tb, config) if config is not None else None
            result = drive(tb, warmup_ns=spec.warmup_ns, measure_ns=spec.measure_ns)
        wall_s = time.perf_counter() - start
    got = Run.of(built[-1], result, report, observation, wall_s)
    got.tail_events = dispatched[-1]
    return got


# -- the comparison -----------------------------------------------------------


def _diff(a, b, path: str) -> list[str]:
    if a == b:
        return []
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)) and len(a) == len(b):
        return [line for i, (x, y) in enumerate(zip(a, b)) for line in _diff(x, y, f"{path}[{i}]")]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [line for key in a for line in _diff(a[key], b[key], f"{path}[{key!r}]")]
    return [f"{path}: reference {a!r}, got {b!r}"]


def compare(reference: Run, got: Run, level: str = "strict", events: bool = True) -> list[str]:
    """How ``got`` differs from ``reference`` at ``level``; [] when it agrees.

    ``strict`` compares the fingerprint and the run statistics (repr'd
    rates, event count, counters, latency, resilience report);
    ``observable`` the statistics, without the event count when
    ``events`` is false, and the metric snapshots of two observed runs;
    ``fluid`` holds an engaged fluid rate to the tolerance and a declined
    fluid run to ``strict``.
    """
    if level == "fluid":
        report = got.result.fluid
        if report is not None and report.engaged:
            exact, fluid = reference.result.mpps, got.result.mpps
            error = abs(fluid - exact) / exact if exact > 0 else 0.0
            if error > FLUID_TOLERANCE:
                return [
                    f"fluid {fluid!r} Mpps is {error:.4%} off the exact {exact!r} "
                    f"(tolerance {FLUID_TOLERANCE:.1%})"
                ]
            return []
        level = "strict"
    problems = []
    if level == "strict":
        problems += _diff(reference.fingerprint, got.fingerprint, "fingerprint")
    ref_stats, stats = reference.stats, got.stats
    if not events:
        ref_stats = {k: v for k, v in ref_stats.items() if k != "events"}
        stats = {k: v for k, v in stats.items() if k != "events"}
    problems += _diff(ref_stats, stats, "stats")
    if reference.snapshot is not None and got.snapshot is not None:
        problems += _diff(reference.snapshot, got.snapshot, "metrics")
    return problems


# -- the tier table -------------------------------------------------------------


def _label(report) -> str | None:
    if report is None:
        return None
    return report.mode if report.engaged else f"declined:{report.reason}"


def expected_tier(spec: RunSpec, encoding: Encoding = TIERS) -> str | None:
    """The tier report a drive of ``spec`` under ``encoding`` returns.

    The engaged mode (``replay``, ``turbo``, ``fluid``) or
    ``declined:<reason>``; for the fluid encoding, fluid's own report;
    None where no tier runs.  ``fluid`` means fluid is eligible: it
    still declines ``unstable-rate`` when its calibration slice is not
    rate-stable or too short to tell, which only the run can show.
    """
    extra = dict(spec.extra)
    flow_kwargs = {key: extra[key] for key in ("flows", "flow_dist", "churn", "size_mix") if key in extra}
    population = resolve_flow_population(**flow_kwargs)
    churn = population is not None and population.churn_fps
    if encoding.fluid:
        calibration = min(CAL_CAP_NS, max(CAL_FLOOR_NS, CAL_FRACTION * spec.measure_ns))
        if spec.faults:
            return "declined:fault-plan-active"
        if churn:
            return "declined:flow-churn"
        if spec.measure_ns < 2.0 * calibration:
            return "declined:span-too-short"
        return "fluid"
    if not encoding.warp:
        return None
    if encoding.watchdog:
        return "declined:watchdog-active"
    obs = ObsConfig.from_items(spec.obs) if encoding.observed and spec.obs else None
    if obs is not None and obs.trace:
        return "declined:per-packet-tracing"
    if population is not None:
        return "declined:flow-churn" if churn else "declined:multi-flow-traffic"
    verify_ns = max(MIN_VERIFY_NS, 2.5 * params_for(spec.switch).jitter_period_ns)
    if (
        spec.scenario == "p2p" and spec.kind != "latency" and not spec.bidirectional
        and spec.switch not in UNPROFILED and not spec.faults
        and "probe_interval_ns" not in extra and not encoding.per_packet
        and spec.warmup_ns + spec.measure_ns >= 2.0 * verify_ns
        # The replay never calls the probes; the turbo dispatches every
        # event they read.
        and not (obs is not None and obs.enabled)
    ):
        return "replay"
    if spec.switch in UNPROFILED and not (
        spec.scenario == "loopback" or spec.kind == "latency"
        or (spec.switch == "vale" and spec.bidirectional and spec.scenario in ("p2v", "v2v"))
    ):
        return f"declined:{UNPROFILED[spec.switch]}"
    return "turbo"


def tier_problems(spec: RunSpec, encoding: Encoding, got: Run) -> list[str]:
    """The run's tier report against :func:`expected_tier`; an engaged
    tier leaves the drive's closing ``run_until`` only the clock to
    advance; and a replay dispatches only its verify slice, at the run's
    first event, and replays the rest, warm-up included."""
    result = got.result
    report = result.fluid if encoding.fluid else result.warp
    label, want = _label(report), expected_tier(spec, encoding)
    problems = []
    if label != want and not (want == "fluid" and label == "declined:unstable-rate"):
        problems.append(f"tier report {label}, expected {want}")
    if report is not None and report.engaged and got.tail_events:
        problems.append(f"{report.mode} left {got.tail_events} events to run_until")
    if report is not None and report.engaged and report.mode == "replay":
        span = spec.warmup_ns + spec.measure_ns - report.verify_ns
        if report.warped_ns != span:
            problems.append(f"replayed {report.warped_ns!r} ns, expected {span!r} ns")
    return problems


def check(spec: RunSpec, encodings=ENCODINGS) -> list[str]:
    """Drive ``spec``'s reference and each encoding; every problem found."""
    reference = run(spec)
    observed = None  # the first observed run's snapshot stands in for the reference's
    problems = []
    for encoding in encodings:
        if encoding is OBSERVED and not spec.obs:
            continue
        got = run(spec, encoding)
        base = reference
        if got.snapshot is not None:
            if observed is None:
                observed = got.snapshot
            else:
                base = replace(reference, snapshot=observed)
        found = compare(base, got, encoding.level, encoding.events)
        found += tier_problems(spec, encoding, got)
        problems += [f"{encoding.name}: {problem}" for problem in found]
    return problems


# -- draws --------------------------------------------------------------------


def fault_targets(tb) -> dict[str, list[str]]:
    """Every fault kind's valid targets on a built testbed."""
    injector = FaultInjector(tb, FaultPlan.of())
    pools = {
        "nic-link-flap": injector._ports, "nic-pcie-stall": injector._ports,
        "vif-disconnect": injector._vifs, "vif-freeze": injector._vifs,
        "vnf-crash": injector._vms,
        "core-preempt": injector._cores, "core-throttle": injector._cores,
        "mem-contention": injector._buses,
    }
    targets = {kind: sorted(pool) for kind, pool in pools.items()}
    for kind, method in (
        ("switch-mac-flush", "flush_mac_table"),
        ("switch-emc-flush", "flush_emc"),
        ("switch-flow-reinstall", "begin_flow_reinstall"),
    ):
        targets[kind] = ["switch"] if hasattr(tb.switch, method) else []
    return {kind: targets[kind] for kind in FAULT_KINDS if targets[kind]}


def draw(rng: random.Random, measure_ns: float = DRAW_MEASURE_NS) -> RunSpec:
    """One random draw over every axis, from ``rng``'s choices.

    One draw in four takes the replay's shape (unidirectional p2p on an
    exact switch, one fixed-size flow, no probes, no fault); the others
    cross every axis.
    """
    replay_shape = rng.random() < 0.25
    switch = rng.choice(SWITCHES[:5] if replay_shape else SWITCHES)
    scenario = "p2p" if replay_shape else rng.choice(("p2p", "p2v", "v2v", "loopback", "v2v-latency"))
    frame_size = rng.choice((64, 128, 256, 512, 1024, 1518) + (() if replay_shape else ("imix",)))
    # No warm-up, the window opening inside the replay's verify slice,
    # or after it.
    warmup_ns = rng.choice((0.0, 100_000.0, DRAW_WARMUP_NS))
    trial = rng.choice((0, rng.randint(1, 9)))
    seed = rng.randint(1, 10_000)
    obs = rng.choice((None, ObsConfig(), ObsConfig(trace=True), ObsConfig(flowstats=True)))
    obs = obs.to_items() if obs else ()
    if scenario == "v2v-latency":
        return RunSpec(
            "v2v", switch, frame_size=64 if frame_size == "imix" else frame_size,
            kind="latency", seed=seed, warmup_ns=warmup_ns, measure_ns=measure_ns,
            obs=obs, trial=trial,
        )
    n_vnfs = rng.randint(1, 3 if switch == "bess" else 5) if scenario == "loopback" else 1
    bidirectional = not replay_shape and rng.random() < 0.5
    extra = {}
    if not replay_shape:
        extra.update(flow_axis_items(**rng.choice((
            {},
            {},
            {"flows": rng.choice((1_000, 10_000, 100_000)), "flow_dist": "zipf"},
            {"flows": 100, "churn": 2e5},
        ))))
        if scenario == "p2p" and rng.random() < 0.25:
            extra["probe_interval_ns"] = 40_000.0
    if frame_size == "imix":
        frame_size = 64
        extra["size_mix"] = "imix"
    if rng.random() < 0.5:
        # Sub-capacity: a fraction of the bottleneck model's per-direction rate.
        capacity = estimate(switch, scenario, frame_size, bidirectional, n_vnfs).predicted_pps
        extra["rate_pps"] = rng.uniform(0.05, 0.95) * capacity / (2 if bidirectional else 1)
    spec = RunSpec(
        scenario, switch, frame_size=frame_size, bidirectional=bidirectional,
        n_vnfs=n_vnfs, seed=seed, warmup_ns=warmup_ns, measure_ns=measure_ns,
        extra=tuple(extra.items()), obs=obs, trial=trial,
    )
    if replay_shape or rng.random() < 0.5:
        return spec
    kwargs = {"n_vnfs": n_vnfs} if scenario == "loopback" else {}
    tb = BUILDERS[scenario](switch, frame_size=frame_size, bidirectional=bidirectional, **kwargs)
    targets = fault_targets(tb)
    kind = rng.choice(sorted(targets))
    fault = FaultEvent(
        at_ns=warmup_ns + rng.uniform(0.1, 0.7) * measure_ns,
        kind=kind,
        target=rng.choice(targets[kind]),
        duration_ns=0.0 if kind in INSTANT_KINDS else rng.uniform(0.05, 0.4) * measure_ns,
    )
    return replace(spec, kind="resilience", faults=FaultPlan.of(fault).to_keys())


# -- the fixed grid -------------------------------------------------------------

#: (label, RunSpec fields, sub-capacity rate in pps).  Rates sit at
#: roughly 0.3x the slowest switch's capacity for the shape, so every
#: switch's sub-capacity cell is idle-dominated.  Three VNFs is the
#: longest chain BESS hosts.
SHAPES = (
    ("p2p", {"scenario": "p2p"}, 3_000_000.0),
    ("p2p-bidi", {"scenario": "p2p", "bidirectional": True}, 2_000_000.0),
    ("p2v", {"scenario": "p2v"}, 1_000_000.0),
    ("v2v", {"scenario": "v2v"}, 800_000.0),
    ("loopback", {"scenario": "loopback", "n_vnfs": 2}, 500_000.0),
    ("loopback-3", {"scenario": "loopback", "n_vnfs": 3}, 350_000.0),
)

#: Fluid against the exact tiers: the fastest and slowest exact switches
#: and the mid-field DPDK reference, on a window long enough to calibrate.
FLUID_MEASURE_NS = 2e8
FLUID_GRID = (
    ("vpp", "p2p", 3_000_000.0),
    ("vpp", "p2p", None),
    ("ovs-dpdk", "p2v", 1_000_000.0),
    ("fastclick", "v2v", 800_000.0),
)

#: Runs that must stay exact: fluid declines a fault plan and a span
#: shorter than two calibration slices.
FLUID_DECLINES = (
    RunSpec(
        "p2p", "vpp", kind="resilience", warmup_ns=600_000.0, measure_ns=3e6,
        faults=FaultPlan.of(FaultEvent(1.2e6, "nic-link-flap", "sut-nic.p1", 3e5)).to_keys(),
    ),
    RunSpec("p2p", "vpp", warmup_ns=600_000.0, measure_ns=900_000.0),
)

HOUR_NS = 3.6e12
HOUR_EXACT_NS = 5e8
MIN_HOUR_SPEEDUP = 50.0


def _rate(spec: RunSpec) -> float | None:
    return dict(spec.extra).get("rate_pps")


def warp_cell(spec: RunSpec, shape: str) -> dict:
    """Tiers off against tiers on, with the engagement, bulk and replay-span checks."""
    off, on = run(spec), run(spec, TIERS)
    problems = compare(off, on) + tier_problems(spec, TIERS, on)
    report = on.result.warp
    engaged = report is not None and report.engaged
    bulk = report.events_replayed / on.result.events if engaged else 0.0
    if engaged and _rate(spec) is not None and bulk < MIN_BULK_FRAC:
        problems.append(f"bulk-advanced {bulk:.2f} of events (< {MIN_BULK_FRAC})")
    rate = "saturating" if _rate(spec) is None else "sub-capacity"
    print(
        f"{'OK ' if not problems else 'FAIL'} {spec.switch:10s} {shape:10s} {rate:12s} "
        f"off={off.wall_s:6.3f}s on={on.wall_s:6.3f}s x{off.wall_s / on.wall_s:5.2f} "
        f"bulk={bulk:4.2f}  {report.describe() if report else 'none'}"
    )
    return {
        "cell": f"warp/{spec.switch}/{shape}/{rate}", "ok": not problems,
        "problems": problems, "tier": _label(report), "bulk": bulk,
        "wall_off_s": off.wall_s, "wall_on_s": on.wall_s,
    }


def fluid_cell(spec: RunSpec, name: str, min_speedup: float | None = None) -> dict:
    """Fluid against the exact tiers, which the warp grid holds to the
    reference; with ``min_speedup``, the exact run's window stands for
    ``spec``'s, and its wall time scales linearly (its event count grows
    linearly with the window at a fixed offered rate)."""
    exact_spec = replace(spec, measure_ns=HOUR_EXACT_NS) if min_speedup else spec
    exact, fluid = run(exact_spec, TIERS), run(spec, FLUID)
    report = fluid.result.fluid
    engaged = report is not None and report.engaged
    problems = compare(exact, fluid, "fluid") if engaged else [
        f"fluid did not engage: {report.describe() if report else 'no report'}"
    ]
    exact_wall = exact.wall_s * spec.measure_ns / exact_spec.measure_ns
    speedup = exact_wall / fluid.wall_s if fluid.wall_s > 0 else float("inf")
    if min_speedup and speedup < min_speedup:
        problems.append(f"x{speedup:.0f} is below the x{min_speedup:.0f} floor")
    error = abs(fluid.result.mpps - exact.result.mpps) / exact.result.mpps
    print(
        f"{'OK ' if not problems else 'FAIL'} {name:28s} exact={exact.result.mpps:.4f} "
        f"fluid={fluid.result.mpps:.4f} Mpps err={error:.4%} (tol {FLUID_TOLERANCE:.1%}) "
        f"x{speedup:.0f}"
    )
    return {
        "cell": name, "ok": not problems, "problems": problems, "engaged": engaged,
        "fluid": report.describe() if report else "none",
        "mpps_exact": exact.result.mpps, "mpps_fluid": fluid.result.mpps,
        "rel_error": error, "tolerance": FLUID_TOLERANCE,
        "wall_exact_s": exact_wall, "wall_fluid_s": fluid.wall_s, "speedup": speedup,
        "min_speedup": min_speedup,
    }


def draw_cell(spec: RunSpec, encodings=ENCODINGS) -> dict:
    start = time.perf_counter()
    problems = check(spec, encodings)
    wall_s = time.perf_counter() - start
    faults = "+".join(f"{key[1]}@{key[2]}" for key in spec.faults) or "no fault"
    print(
        f"{'OK ' if not problems else 'FAIL'} {spec.label} {faults} "
        f"[{expected_tier(spec)}] {wall_s:.2f}s"
    )
    return {"cell": f"{spec.label} {faults}", "ok": not problems, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("measure_ns", nargs="?", type=float, default=3_000_000.0)
    parser.add_argument("--hour-scale", action="store_true",
                        help=f"also gate a one-hour fluid window at x{MIN_HOUR_SPEEDUP:.0f}")
    parser.add_argument("--out", default=None, help="JSON artifact path")
    args = parser.parse_args(argv)

    cells = []
    for switch in SWITCHES:
        for shape, fields, sub_rate in SHAPES:
            for rate in (None, sub_rate):
                extra = (("rate_pps", rate),) if rate else ()
                spec = RunSpec(switch=switch, warmup_ns=600_000.0,
                               measure_ns=args.measure_ns, extra=extra, **fields)
                cells.append(warp_cell(spec, shape))
    for switch, scenario, rate in FLUID_GRID:
        spec = RunSpec(scenario, switch, measure_ns=FLUID_MEASURE_NS,
                       extra=(("rate_pps", rate),) if rate else ())
        name = f"{switch}/{scenario}/{'saturating' if rate is None else 'sub-capacity'}"
        cells.append(fluid_cell(spec, name))
    if args.hour_scale:
        spec = RunSpec("p2p", "vpp", measure_ns=HOUR_NS, extra=(("rate_pps", 3e6),))
        cells.append(fluid_cell(spec, "hour-scale/vpp/p2p", MIN_HOUR_SPEEDUP))
    cells += [draw_cell(spec, (FLUID,)) for spec in FLUID_DECLINES]
    rng = random.Random(CLI_SEED)
    cells += [draw_cell(draw(rng, args.measure_ns)) for _ in range(CLI_DRAWS)]

    failures = sum(not cell["ok"] for cell in cells)
    for cell in cells:
        for problem in cell["problems"][:10]:
            print(f"  {cell['cell']}: {problem}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"measure_ns": args.measure_ns, "cells": cells, "failures": failures},
                      fh, indent=2)
        print(f"wrote {args.out}")
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
