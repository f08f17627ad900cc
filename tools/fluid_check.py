"""Fluid validation tier: A/B fluid vs exact, tolerance-gated.

Drives a switch grid twice over the same measurement window -- once
event-by-event (the exact tiers) and once with the fluid tier engaged --
and gates the per-cell relative throughput error at the declared fluid
tolerance (``FLUID_TOLERANCE``, 5%).  Also asserts the
engagement contract: every gated cell must actually engage the fluid
tier (a silent decline would A/B exact against exact and prove nothing),
and runs that must stay exact (fault plans, per-flow telemetry) must
decline with their stable reasons.

Writes a JSON artifact (``--out``) with per-cell errors and speedups for
the CI ``fluid-validation`` job.

Usage: ``PYTHONPATH=src python tools/fluid_check.py [--out fluid.json]
[--measure-ns 2e8]``
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from repro.core.fluid import FLUID_TOLERANCE, try_fluid
from repro.measure.runner import drive
from repro.scenarios import p2p, p2v, v2v

#: Three-switch grid spanning the cost model's extremes (fastest and
#: slowest exact switches plus the mid-field DPDK reference).
GRID = [
    ("vpp", "p2p", p2p.build, {}, 3_000_000.0),
    ("vpp", "p2p", p2p.build, {}, None),  # saturating
    ("ovs-dpdk", "p2v", p2v.build, {}, 1_000_000.0),
    ("fastclick", "v2v", v2v.build, {}, 800_000.0),
]


def run(build, switch, kwargs, rate, measure_ns, fluid):
    tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
    t0 = time.perf_counter()
    res = drive(tb, measure_ns=measure_ns, fluid=fluid)
    return res, time.perf_counter() - t0


def check_declines():
    """Runs that must stay exact decline with their stable reasons."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultPlan

    failures = []
    tb = p2p.build("vpp", frame_size=64)
    plan = FaultPlan.of(
        FaultEvent.from_dict(
            {"kind": "nic-link-flap", "target": "sut-nic.p1", "at_ns": 1.2e6,
             "duration_ns": 3e5}
        )
    )
    FaultInjector(tb, plan).arm()
    report = try_fluid(tb, 6e5, 6e7)
    if report.engaged or report.reason != "fault-plan-active":
        failures.append(f"fault plan: expected decline, got {report.describe()}")
    tb = p2p.build("vpp", frame_size=64)
    report = try_fluid(tb, 6e5, 1.5e6)
    if report.engaged or report.reason != "span-too-short":
        failures.append(f"short span: expected decline, got {report.describe()}")
    return failures


def check_hour_scale(min_speedup: float):
    """Hour-scale acceptance: fluid covers a 1-hour window >= 50x faster.

    The fluid side really simulates the hour (8 ms exact calibration +
    extrapolation); the exact comparator runs a 0.5 s window and its
    wall-clock extrapolates linearly to the hour -- honest for this
    workload, whose event count is linear in the window at a fixed
    offered rate.  The rates must agree within tolerance (both estimate
    the same stationary throughput).
    """
    HOUR_NS = 3.6e12
    EXACT_NS = 5e8
    r_ex, w_ex = run(p2p.build, "vpp", {}, 3_000_000.0, EXACT_NS, fluid=False)
    r_fl, w_fl = run(p2p.build, "vpp", {}, 3_000_000.0, HOUR_NS, fluid=True)
    engaged = r_fl.fluid is not None and r_fl.fluid.engaged
    rel_err = abs(r_fl.mpps - r_ex.mpps) / r_ex.mpps if r_ex.mpps > 0 else 0.0
    est_exact_wall = w_ex * (HOUR_NS / EXACT_NS)
    speedup = est_exact_wall / w_fl if w_fl > 0 else float("inf")
    ok = engaged and rel_err <= FLUID_TOLERANCE and speedup >= min_speedup
    print(
        f"{'OK ' if ok else 'FAIL'} hour-scale vpp/p2p: fluid_wall={w_fl:.2f}s "
        f"est_exact_wall={est_exact_wall:.0f}s x{speedup:.0f} "
        f"(floor x{min_speedup:.0f}) err={rel_err:.4%} (tol {FLUID_TOLERANCE:.1%})"
    )
    cell = {
        "cell": "hour-scale/vpp/p2p",
        "engaged": engaged,
        "fluid": r_fl.fluid.describe() if r_fl.fluid else "none",
        "mpps_exact": r_ex.mpps,
        "mpps_fluid": r_fl.mpps,
        "rel_error": rel_err,
        "tolerance": FLUID_TOLERANCE,
        "wall_exact_s": est_exact_wall,
        "wall_fluid_s": w_fl,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "ok": ok,
    }
    return cell, (0 if ok else 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="JSON artifact path")
    parser.add_argument("--measure-ns", type=float, default=2e8)
    parser.add_argument(
        "--hour-scale", action="store_true",
        help="also gate the hour-scale speedup (>= --min-speedup)",
    )
    parser.add_argument("--min-speedup", type=float, default=50.0)
    args = parser.parse_args()

    cells = []
    failures = 0
    for switch, scenario, build, kwargs, rate in GRID:
        label = f"{switch}/{scenario}/{'saturating' if rate is None else 'sub-capacity'}"
        r_ex, w_ex = run(build, switch, kwargs, rate, args.measure_ns, fluid=False)
        r_fl, w_fl = run(build, switch, kwargs, rate, args.measure_ns, fluid=True)
        engaged = r_fl.fluid is not None and r_fl.fluid.engaged
        rel_err = (
            abs(r_fl.mpps - r_ex.mpps) / r_ex.mpps if r_ex.mpps > 0 else 0.0
        )
        speedup = w_ex / w_fl if w_fl > 0 else float("inf")
        ok = engaged and rel_err <= FLUID_TOLERANCE
        if not ok:
            failures += 1
        cells.append(
            {
                "cell": label,
                "engaged": engaged,
                "fluid": r_fl.fluid.describe() if r_fl.fluid else "none",
                "mpps_exact": r_ex.mpps,
                "mpps_fluid": r_fl.mpps,
                "rel_error": rel_err,
                "tolerance": FLUID_TOLERANCE,
                "wall_exact_s": w_ex,
                "wall_fluid_s": w_fl,
                "speedup": speedup,
                "ok": ok,
            }
        )
        print(
            f"{'OK ' if ok else 'FAIL'} {label:28s} exact={r_ex.mpps:.4f} "
            f"fluid={r_fl.mpps:.4f} Mpps err={rel_err:.4%} "
            f"(tol {FLUID_TOLERANCE:.1%}) x{speedup:.0f}"
        )
        if not engaged:
            print(f"  fluid did not engage: {r_fl.fluid.describe() if r_fl.fluid else 'no report'}")

    if args.hour_scale:
        cell, failed = check_hour_scale(args.min_speedup)
        cells.append(cell)
        failures += failed

    decline_failures = check_declines()
    for failure in decline_failures:
        print(f"FAIL decline contract: {failure}")
    failures += len(decline_failures)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "measure_ns": args.measure_ns,
                    "tolerance": FLUID_TOLERANCE,
                    "cells": cells,
                    "decline_failures": decline_failures,
                    "failures": failures,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.out}")
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
