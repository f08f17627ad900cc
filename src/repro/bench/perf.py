"""Simulator micro-benchmarks: events/sec and simulated-Mpps per wall-second.

Two kinds of cases:

* **engine** -- a bare self-re-arming event loop, measuring raw dispatch
  throughput of :class:`~repro.core.engine.Simulator` (events per
  wall-second);
* **scenario** -- a tier-1 testbed (p2p / p2v / v2v / loopback) driven
  through the standard warm-up + measurement windows, measuring how many
  simulated packets the simulator moves per wall-second.

Each case is repeated ``repeat`` times and the *minimum* wall time is
reported (the minimum is the noise-free cost; everything above it is
scheduler jitter).  Same-process A/B pairs (``.nowarp``/``.warp``,
``.exact``/``.fluid``) interleave their repeats -- A, B, A, B, ... --
so both sides sample the same host-load conditions; minima taken
minutes apart let a transient spike land on one side only and skew the
reported ratio.  ``run_perf`` compares against a committed baseline
JSON (``benchmarks/perf/baseline_pr3.json`` holds the pre-flyweight seed
numbers) and reports per-case speedups; :func:`perf_regressions` turns
that comparison into a CI gate (``repro-bench perf --max-regress 20``
exits non-zero when any case runs >20% slower than its baseline).

``WARP_CASES`` are the long-horizon acceptance pairs for the
steady-state fast-forward (:mod:`repro.core.warp`): a 10x measurement
window at a paced sub-capacity load, driven once with warp pinned off
and once pinned on, reported as ``warp_speedup`` (the wall-clock ratio;
results are verified bit-identical elsewhere, this bench only times).

CLI entry point: ``repro-bench perf --json`` (writes ``BENCH_pr3.json``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.engine import Simulator
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, drive

#: Committed pre-change baseline (seed-era numbers) for speedup reporting.
DEFAULT_BASELINE = Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "baseline_pr3.json"


@dataclass(frozen=True)
class PerfCase:
    """One micro-benchmark: a bare engine loop or a tier-1 scenario."""

    name: str
    kind: str  # "engine" | "scenario" | "resilience"
    scenario: str = ""
    switch: str = ""
    frame_size: int = 64
    bidirectional: bool = False
    #: offered rate for paced sources (None = saturating input).
    rate_pps: float | None = None
    #: measurement-window multiplier (long-horizon cases use 10x).
    measure_scale: float = 1.0
    #: pin the steady-state fast-forward (None follows REPRO_WARP).
    warp: bool | None = None
    #: pin the fluid tier (None follows REPRO_FLUID, default off).
    fluid: bool | None = None
    #: extra build kwargs as sorted items (e.g. the repro.flows axis:
    #: ``(("flow_dist", "zipf"), ("flows", 100_000))``).
    extra: tuple = ()


#: The standard grid: engine dispatch plus the tier-1 scenario hot paths.
#: p2p and v2v at 64 B are the acceptance cases (saturating streams of
#: minimum-size frames -- the paper's hardest workload).
PERF_CASES: tuple[PerfCase, ...] = (
    PerfCase("engine.dispatch", "engine"),
    PerfCase("p2p.ovs-dpdk.64", "scenario", "p2p", "ovs-dpdk"),
    PerfCase("p2p.vpp.64", "scenario", "p2p", "vpp"),
    PerfCase("p2p.vale.64", "scenario", "p2p", "vale"),
    PerfCase("p2v.ovs-dpdk.64", "scenario", "p2v", "ovs-dpdk"),
    PerfCase("v2v.ovs-dpdk.64", "scenario", "v2v", "ovs-dpdk"),
    PerfCase("v2v.vale.64", "scenario", "v2v", "vale"),
    PerfCase("loopback.vpp.64", "scenario", "loopback", "vpp"),
    PerfCase(
        "p2p.ovs-dpdk.64.100kflows", "scenario", "p2p", "ovs-dpdk",
        extra=(("flow_dist", "zipf"), ("flows", 100_000)),
    ),
)

#: Long-horizon warp acceptance cases: a 10x measurement window at an
#: NDR-trial-style sub-capacity offered load (the workload class where a
#: rate search or latency sweep burns most of its wall clock).  Each
#: scenario appears twice -- warp pinned off (the event-by-event cost)
#: and warp pinned on -- so the report's ``warp_speedup`` section is a
#: same-process A/B, not a cross-machine comparison.
LONG_HORIZON_RATE_PPS = 3_000_000.0
LONG_HORIZON_SCALE = 10.0
WARP_CASES: tuple[PerfCase, ...] = (
    PerfCase(
        "longh.p2p.ovs-dpdk.nowarp", "scenario", "p2p", "ovs-dpdk",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.p2p.ovs-dpdk.warp", "scenario", "p2p", "ovs-dpdk",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.p2p.vpp.nowarp", "scenario", "p2p", "vpp",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.p2p.vpp.warp", "scenario", "p2p", "vpp",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    # Multi-hop shapes the chain turbo covers: bidirectional p2p, the
    # vring hops (p2v/v2v) and a loopback VNF chain, each at an NDR-style
    # sub-capacity load over the 10x window.
    PerfCase(
        "longh.p2p-bidi.vpp.nowarp", "scenario", "p2p", "vpp", bidirectional=True,
        rate_pps=2_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.p2p-bidi.vpp.warp", "scenario", "p2p", "vpp", bidirectional=True,
        rate_pps=2_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.p2v.ovs-dpdk.nowarp", "scenario", "p2v", "ovs-dpdk",
        rate_pps=1_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.p2v.ovs-dpdk.warp", "scenario", "p2v", "ovs-dpdk",
        rate_pps=1_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.v2v.vpp.nowarp", "scenario", "v2v", "vpp",
        rate_pps=800_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.v2v.vpp.warp", "scenario", "v2v", "vpp",
        rate_pps=800_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.loopback2.vpp.nowarp", "scenario", "loopback", "vpp",
        rate_pps=500_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
        extra=(("n_vnfs", 2),),
    ),
    PerfCase(
        "longh.loopback2.vpp.warp", "scenario", "loopback", "vpp",
        rate_pps=500_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
        extra=(("n_vnfs", 2),),
    ),
    # Polls that wait on a timer (t4p4s's strict batch, FastClick's vif
    # TX drain) and the VNF chain behind VALE's interrupt-driven core.
    PerfCase(
        "longh.p2v.t4p4s.nowarp", "scenario", "p2v", "t4p4s",
        rate_pps=1_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.p2v.t4p4s.warp", "scenario", "p2v", "t4p4s",
        rate_pps=1_000_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.v2v.fastclick.nowarp", "scenario", "v2v", "fastclick",
        rate_pps=800_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
    ),
    PerfCase(
        "longh.v2v.fastclick.warp", "scenario", "v2v", "fastclick",
        rate_pps=800_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
    ),
    PerfCase(
        "longh.loopback2.vale.nowarp", "scenario", "loopback", "vale",
        rate_pps=500_000.0, measure_scale=LONG_HORIZON_SCALE, warp=False,
        extra=(("n_vnfs", 2),),
    ),
    PerfCase(
        "longh.loopback2.vale.warp", "scenario", "loopback", "vale",
        rate_pps=500_000.0, measure_scale=LONG_HORIZON_SCALE, warp=True,
        extra=(("n_vnfs", 2),),
    ),
)

#: Between-fault warp acceptance: a resilience run (two NIC link flaps
#: over a 30x window) driven event-by-event and with the chain turbo
#: warping the idle stretches between fault instants.  The recovery
#: timeline is verified bit-identical elsewhere (property tests); this
#: bench only times the A/B.  The offered rate sits well under capacity
#: so the inter-fault spans are idle-poll-dominated -- the regime the
#: turbo exists for (fault soak tests trickle traffic while waiting).
RESILIENCE_SCALE = 30.0
RESILIENCE_RATE_PPS = 1_000_000.0
RESILIENCE_CASES: tuple[PerfCase, ...] = (
    PerfCase(
        "longh.resil.p2p.vpp.nowarp", "resilience", "p2p", "vpp",
        rate_pps=RESILIENCE_RATE_PPS, measure_scale=RESILIENCE_SCALE, warp=False,
    ),
    PerfCase(
        "longh.resil.p2p.vpp.warp", "resilience", "p2p", "vpp",
        rate_pps=RESILIENCE_RATE_PPS, measure_scale=RESILIENCE_SCALE, warp=True,
    ),
)

#: Fluid-tier acceptance: a 500x window (1.5 s simulated -- the regime
#: of hour-scale NDR trials, scaled to CI budgets) where the exact side
#: runs the best exact tier and the fluid side extrapolates past an
#: 8 ms calibration slice.  Reported as ``fluid_speedup``; the relative
#: error is gated by tools/fluid_check.py, this bench only times.
FLUID_SCALE = 500.0
FLUID_CASES: tuple[PerfCase, ...] = (
    PerfCase(
        "longh.fluid.p2p.vpp.exact", "scenario", "p2p", "vpp",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=FLUID_SCALE,
        warp=True, fluid=False,
    ),
    PerfCase(
        "longh.fluid.p2p.vpp.fluid", "scenario", "p2p", "vpp",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=FLUID_SCALE,
        warp=True, fluid=True,
    ),
)

#: Million-flow long-horizon datapoint: a Zipf population two orders of
#: magnitude past the EMC's 8K entries over a 10x window -- the flow-cache
#: thrash regime at the scale the subsystem is named for.  Warp correctly
#: declines multi-flow traffic, so this rides the event-by-event path;
#: the report row carries the switch's cache counters (hit rates).
FLOW_LONG_CASES: tuple[PerfCase, ...] = (
    PerfCase(
        "longh.p2p.ovs-dpdk.1mflows", "scenario", "p2p", "ovs-dpdk",
        rate_pps=LONG_HORIZON_RATE_PPS, measure_scale=LONG_HORIZON_SCALE,
        extra=(("flow_dist", "zipf"), ("flows", 1_000_000)),
    ),
)

#: Everything: the standard grid plus the long-horizon A/B pairs.
ALL_CASES: tuple[PerfCase, ...] = (
    PERF_CASES + WARP_CASES + RESILIENCE_CASES + FLUID_CASES + FLOW_LONG_CASES
)

#: Engine case: enough events that interpreter warm-up amortises away.
ENGINE_EVENTS = 100_000


def _bench_engine(n_events: int = ENGINE_EVENTS) -> dict[str, Any]:
    sim = Simulator()

    def rearm() -> None:
        if sim.events_executed < n_events:
            sim.after(1.0, rearm)

    sim.after(0.0, rearm)
    start = time.perf_counter()
    sim.run_until(float(n_events + 2))
    wall = time.perf_counter() - start
    return {
        "events": sim.events_executed,
        "wall_s": wall,
        "events_per_sec": sim.events_executed / wall if wall else float("inf"),
    }


def _build_testbed(case: PerfCase):
    from repro.scenarios import loopback, p2p, p2v, v2v

    builders = {"p2p": p2p.build, "p2v": p2v.build, "v2v": v2v.build, "loopback": loopback.build}
    kwargs: dict[str, Any] = dict(case.extra)
    if case.rate_pps is not None:
        kwargs["rate_pps"] = case.rate_pps
    return builders[case.scenario](
        case.switch, frame_size=case.frame_size, bidirectional=case.bidirectional, **kwargs
    )


def _bench_scenario(
    case: PerfCase,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
) -> dict[str, Any]:
    tb = _build_testbed(case)
    start = time.perf_counter()
    result = drive(
        tb,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns * case.measure_scale,
        warp=case.warp,
        fluid=case.fluid,
    )
    wall = time.perf_counter() - start
    # Simulated traffic actually moved end-to-end (warm-up included: the
    # simulator pays for those packets too).
    packets = sum(m.packets + m.warmup_packets for m in tb.meters)
    row: dict[str, Any] = {
        "wall_s": wall,
        "events": tb.sim.events_executed,
        "delivered_packets": packets,
        "sim_mpps_per_wall_s": packets / wall / 1e6 if wall else float("inf"),
        "gbps": result.gbps,
        "mpps": result.mpps,
    }
    cache = tb.switch.cache_stats()
    if cache:
        row["cache"] = cache
    return row


def _bench_resilience(
    case: PerfCase,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
) -> dict[str, Any]:
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.measure.resilience import measure_resilience
    from repro.scenarios import loopback, p2p, p2v, v2v

    builders = {"p2p": p2p.build, "p2v": p2v.build, "v2v": v2v.build, "loopback": loopback.build}
    window = measure_ns * case.measure_scale
    plan = FaultPlan.of(
        FaultEvent.from_dict(
            {"kind": "nic-link-flap", "target": "sut-nic.p1",
             "at_ns": warmup_ns + 0.25 * window, "duration_ns": 4e5}
        ),
        FaultEvent.from_dict(
            {"kind": "nic-link-flap", "target": "sut-nic.p1",
             "at_ns": warmup_ns + 0.65 * window, "duration_ns": 4e5}
        ),
    )
    kwargs: dict[str, Any] = dict(case.extra)
    if case.rate_pps is not None:
        kwargs["rate_pps"] = case.rate_pps
    start = time.perf_counter()
    result, report, _ = measure_resilience(
        builders[case.scenario],
        case.switch,
        case.frame_size,
        plan,
        bidirectional=case.bidirectional,
        warmup_ns=warmup_ns,
        measure_ns=window,
        warp=case.warp,
        **kwargs,
    )
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "events": result.events,
        "delivered_packets": int(result.mpps * 1e6 * window / 1e9),
        "sim_mpps_per_wall_s": result.mpps * window / 1e9 / wall if wall else float("inf"),
        "gbps": result.gbps,
        "mpps": result.mpps,
        "faults": len(report.fault_spans),
    }


_BENCH_KINDS = {
    "engine": lambda case: _bench_engine(),
    "scenario": lambda case: _bench_scenario(case),
    "resilience": lambda case: _bench_resilience(case),
}


def _finalize_case(case: PerfCase, runs: list[dict[str, Any]]) -> dict[str, Any]:
    best = min(runs, key=lambda s: s["wall_s"])
    best["kind"] = case.kind
    # Variance alongside the point estimate: wall_s stays the noise-free
    # minimum, but the trials summary (n, CI, instability verdict over
    # all repeats) is what the variance-aware gate compares against.
    best["samples"] = [s["wall_s"] for s in runs]
    from repro.measure.soundness import summarize_trials

    best["trials"] = summarize_trials(best["samples"], metric="wall_s").to_dict()
    return best


def _run_case(case: PerfCase, repeat: int) -> dict[str, Any]:
    runs = [_BENCH_KINDS[case.kind](case) for _ in range(max(1, repeat))]
    return _finalize_case(case, runs)


def _run_pair(
    case_a: PerfCase, case_b: PerfCase, repeat: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run an A/B pair with interleaved repeats (A, B, A, B, ...)."""
    runs_a: list[dict[str, Any]] = []
    runs_b: list[dict[str, Any]] = []
    for _ in range(max(1, repeat)):
        runs_a.append(_BENCH_KINDS[case_a.kind](case_a))
        runs_b.append(_BENCH_KINDS[case_b.kind](case_b))
    return _finalize_case(case_a, runs_a), _finalize_case(case_b, runs_b)


#: A/B suffix pairs whose repeats are interleaved when both cases are in
#: the selected grid.
_PAIR_SUFFIXES: tuple[tuple[str, str], ...] = (
    (".nowarp", ".warp"),
    (".exact", ".fluid"),
)


def _run_pair_isolated(
    case_a: PerfCase, case_b: PerfCase, repeat: int
) -> tuple[dict[str, Any], dict[str, Any]] | None:
    """Run an A/B pair in a fresh interpreter; None when that fails.

    A/B ratios are sensitive to interpreter state in a way absolute
    timings are not: twenty preceding grid cases warm the allocator free
    lists, which speeds the allocation-heavy event-by-event side more
    than the fast-forward side and deflates the reported ratio by tens
    of percent.  A fresh process (pyperf-style worker isolation) gives
    both sides the same cold start.
    """
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench.perf",
             case_a.name, case_b.name, str(repeat)],
            capture_output=True, text=True, env=env, timeout=1800,
        )
        if proc.returncode != 0:
            return None
        payload = json.loads(proc.stdout)
        return payload[case_a.name], payload[case_b.name]
    except (OSError, subprocess.SubprocessError, ValueError, KeyError):
        return None


def load_baseline(path: str | Path | None = None) -> dict[str, Any] | None:
    """Load the committed baseline JSON, or None if absent."""
    baseline_path = Path(path) if path is not None else DEFAULT_BASELINE
    if not baseline_path.exists():
        return None
    with open(baseline_path) as fh:
        return json.load(fh)


def run_perf(
    repeat: int = 3,
    cases: tuple[PerfCase, ...] = PERF_CASES,
    baseline_path: str | Path | None = None,
    progress=None,
) -> dict[str, Any]:
    """Run the grid; return the report dict (also used for BENCH_pr3.json)."""
    results: dict[str, Any] = {}
    case_by_name = {c.name: c for c in cases}
    for case in cases:
        if case.name in results:
            continue
        partner: PerfCase | None = None
        for a_sfx, b_sfx in _PAIR_SUFFIXES:
            if case.name.endswith(a_sfx):
                partner = case_by_name.get(case.name[: -len(a_sfx)] + b_sfx)
                break
        if partner is not None and partner.name not in results:
            if progress is not None:
                progress(f"bench {case.name} / {partner.name} (isolated A/B)")
            pair = _run_pair_isolated(case, partner, repeat)
            if pair is None:
                pair = _run_pair(case, partner, repeat)
            results[case.name], results[partner.name] = pair
        else:
            if progress is not None:
                progress(f"bench {case.name}")
            results[case.name] = _run_case(case, repeat)

    from repro.core.warp import engine_features

    report: dict[str, Any] = {
        "bench": "simulator-perf",
        "repeat": repeat,
        "engine": engine_features(),
        "cases": results,
    }
    baseline = load_baseline(baseline_path)
    if baseline is not None:
        base_cases = baseline.get("cases", baseline)
        speedups: dict[str, float] = {}
        for name, current in results.items():
            base = base_cases.get(name)
            if base and base.get("wall_s") and current.get("wall_s"):
                speedups[name] = base["wall_s"] / current["wall_s"]
        report["baseline"] = base_cases
        report["speedup"] = speedups
    # Same-process A/B pairs: "<key>.nowarp"/"<key>.warp" for the exact
    # fast-forward, "<key>.exact"/"<key>.fluid" for the fluid tier.
    warp_speedups: dict[str, float] = {}
    fluid_speedups: dict[str, float] = {}
    for name, row in results.items():
        if name.endswith(".nowarp"):
            key = name[: -len(".nowarp")]
            partner = results.get(key + ".warp")
            if partner and partner.get("wall_s") and row.get("wall_s"):
                warp_speedups[key] = row["wall_s"] / partner["wall_s"]
        elif name.endswith(".exact"):
            key = name[: -len(".exact")]
            partner = results.get(key + ".fluid")
            if partner and partner.get("wall_s") and row.get("wall_s"):
                fluid_speedups[key] = row["wall_s"] / partner["wall_s"]
    if warp_speedups:
        report["warp_speedup"] = warp_speedups
    if fluid_speedups:
        report["fluid_speedup"] = fluid_speedups
    return report


def perf_regressions(
    report: dict[str, Any], max_regress_pct: float
) -> list[tuple[str, float]] | None:
    """Cases slower than the baseline by more than ``max_regress_pct``.

    Returns None when the report carries no baseline comparison (nothing
    to gate against); otherwise the offending ``(case, speedup)`` pairs,
    empty when the gate passes.

    The comparison is variance-aware (``repro.measure.soundness``): when
    both sides carry a ``trials`` summary, the gated ratio is the most
    *optimistic* plausible speedup -- baseline CI high edge over current
    CI low edge -- so overlapping confidence intervals never fail the
    gate on sampling noise, while a genuine slowdown (disjoint CIs below
    the floor) still does.  A side without trial data degrades to its
    point ``wall_s``, which keeps old point-only baselines gateable --
    and the gate fail-closed.  A ratio below ``1 - pct/100`` is a
    regression: at ``--max-regress 10`` a case may run up to 10% slower
    than its committed baseline before CI fails.
    """
    speedups = report.get("speedup")
    if speedups is None:
        return None
    base_cases = report.get("baseline") or {}
    cases = report.get("cases") or {}
    floor = 1.0 - max_regress_pct / 100.0
    regressions: list[tuple[str, float]] = []
    for name, ratio in sorted(speedups.items()):
        base = base_cases.get(name) or {}
        current = cases.get(name) or {}
        base_high = (base.get("trials") or {}).get("ci_high") or base.get("wall_s")
        cur_low = (current.get("trials") or {}).get("ci_low") or current.get("wall_s")
        optimistic = base_high / cur_low if base_high and cur_low else ratio
        if optimistic < floor:
            regressions.append((name, optimistic))
    return regressions


def format_report(report: dict[str, Any]) -> str:
    """Human-readable table of the report."""
    lines = ["simulator perf bench"]
    speedups = report.get("speedup", {})
    for name, row in report["cases"].items():
        rate = (
            f"{row['events_per_sec'] / 1e6:8.2f} Mev/s"
            if row["kind"] == "engine"
            else f"{row['sim_mpps_per_wall_s']:8.2f} sim-Mpps/s"
        )
        extra = f"  x{speedups[name]:.2f} vs baseline" if name in speedups else ""
        trials = row.get("trials") or {}
        if trials.get("n", 0) > 1:
            half_ms = (trials["ci_high"] - trials["ci_low"]) / 2.0 * 1e3
            extra += f"  (n={trials['n']} +-{half_ms:.1f}ms {trials['verdict']})"
        lines.append(f"  {name:<26} {row['wall_s'] * 1e3:9.1f} ms  {rate}{extra}")
    warp_speedups = report.get("warp_speedup", {})
    if warp_speedups:
        lines.append("  warp fast-forward (interleaved A/B, bit-identical results):")
        for key, ratio in sorted(warp_speedups.items()):
            lines.append(f"    {key:<24} x{ratio:.2f} wall-clock")
    fluid_speedups = report.get("fluid_speedup", {})
    if fluid_speedups:
        lines.append("  fluid tier (interleaved A/B, tolerance-gated results):")
        for key, ratio in sorted(fluid_speedups.items()):
            lines.append(f"    {key:<24} x{ratio:.2f} wall-clock")
    return "\n".join(lines)


def _pair_worker(argv: list[str]) -> int:
    """``python -m repro.bench.perf A B N``: run one A/B pair, JSON out.

    The worker half of :func:`_run_pair_isolated` -- a fresh interpreter
    runs the interleaved pair and prints ``{name: result}`` on stdout.
    """
    if len(argv) != 3:
        print("usage: python -m repro.bench.perf CASE_A CASE_B REPEAT", file=sys.stderr)
        return 2
    by_name = {case.name: case for case in ALL_CASES}
    try:
        case_a, case_b = by_name[argv[0]], by_name[argv[1]]
    except KeyError as missing:
        print(f"unknown perf case {missing}", file=sys.stderr)
        return 2
    res_a, res_b = _run_pair(case_a, case_b, int(argv[2]))
    json.dump({case_a.name: res_a, case_b.name: res_b}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_pair_worker(sys.argv[1:]))
