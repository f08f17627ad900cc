"""Dev harness: warp-on vs warp-off bit-identity across the shape matrix.

Sweeps every switch over the fast-forward-eligible scenario shapes --
unidirectional and bidirectional p2p, p2v, v2v and loopback VNF chains
of 2 and 3 VNFs -- under saturating and sub-capacity input (84 cells:
7 switches x 6 shapes x 2 rates), and asserts per cell that

* the end-state fingerprint (every counter, timestamp, stats accumulator,
  RNG stream and pending event; :func:`repro.core.warp.state_fingerprint`)
  and the measured results are bit-identical between warp-off and
  warp-on runs;
* the engine's engage/decline decision matches the contract: exact
  switches engage everywhere (replay on clean uni p2p, the chain turbo
  elsewhere); Snabb and VALE engage the turbo on loopback, through the
  VNF chain cores behind their unprofiled switch core, and decline
  everywhere else as ``pipeline-switch`` and ``interrupt-driven`` (no
  chain-eligible core);
* every engaged sub-capacity cell bulk-advances at least half its
  events (``events_replayed / events >= 0.5``): idle polls that only
  wait on a timer (t4p4s's strict batch, FastClick's and l2fwd's TX
  drains) must not fall back to event-by-event dispatch;
* every cell that engages the replay starts it at the run's first
  event: it dispatches only its verify slice and replays the warm-up
  too, so ``warped_ns == (warmup + measure) - verify_ns``.

Usage: ``PYTHONPATH=src python tools/warp_check.py [measure_ns]``
(default 3 ms; CI also runs paper-grid's 0.6 ms window, where
verification spans and the turbo's table hand-offs are a large share of
each run, and the 10x window where warp covers most of the simulated
horizon).
"""

import sys
import time

sys.path.insert(0, "src")

from repro.core.warp import state_fingerprint
from repro.measure.runner import drive
from repro.scenarios import loopback, p2p, p2v, v2v

SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s", "snabb", "vale"]

#: Expected decline reasons per (switch, shape); every other cell must
#: engage.  Snabb's and VALE's own cores are never profiled, so only
#: shapes with a VNF chain core (loopback) engage on them.
_UNPROFILED = {"snabb": "pipeline-switch", "vale": "interrupt-driven"}
EXPECTED_DECLINE = {
    (switch, shape): reason
    for switch, reason in _UNPROFILED.items()
    for shape in ("p2p", "p2p-bidi", "p2v", "v2v")
}

#: Least share of its events an engaged sub-capacity cell must advance
#: in bulk.
MIN_BULK_FRAC = 0.5

#: (label, builder, build kwargs, sub-capacity rate in pps).  Rates sit
#: at roughly 0.3x the slowest switch's capacity for the shape so the
#: sub-capacity cell is idle-dominated for every switch.  Three VNFs is
#: the longest chain BESS hosts: four chains whose VNF cores share one
#: poll grid.
SHAPES = [
    ("p2p", p2p.build, {}, 3_000_000.0),
    ("p2p-bidi", p2p.build, {"bidirectional": True}, 2_000_000.0),
    ("p2v", p2v.build, {}, 1_000_000.0),
    ("v2v", v2v.build, {}, 800_000.0),
    ("loopback", loopback.build, {"n_vnfs": 2}, 500_000.0),
    ("loopback-3", loopback.build, {"n_vnfs": 3}, 350_000.0),
]


def run(build, switch, warp, warmup, measure, rate, kwargs):
    tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
    t0 = time.perf_counter()
    res = drive(tb, warmup_ns=warmup, measure_ns=measure, warp=warp)
    wall = time.perf_counter() - t0
    return res, state_fingerprint(tb), wall


def diff(a, b, path="root"):
    if a == b:
        return
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]")
    else:
        print(f"  MISMATCH at {path}:\n    off: {a!r}\n    on:  {b!r}")


def check_engagement(switch, shape, report):
    """The engage/decline contract for one cell; returns an error or None."""
    if report is None:
        return "no warp report"
    expected = EXPECTED_DECLINE.get((switch, shape))
    if expected is None:
        if not report.engaged:
            return f"expected engagement, got {report.describe()}"
        return None
    if report.engaged:
        return f"expected decline ({expected}), got {report.describe()}"
    if report.reason != expected:
        return f"expected decline reason {expected!r}, got {report.reason!r}"
    return None


def check_replay_start(report, warmup, measure):
    """A replay must cover everything after its verify slice; returns an
    error or None."""
    if report is None or not report.engaged or report.mode != "replay":
        return None
    expected = (warmup + measure) - report.verify_ns
    if report.warped_ns != expected:
        return (
            f"replayed {report.warped_ns!r} ns, expected {expected!r} ns "
            f"(warm-up + window - verify slice)"
        )
    return None


def main():
    measure = float(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000.0
    warmup = 600_000.0
    failures = 0
    for switch in SWITCHES:
        for shape, build, kwargs, sub_rate in SHAPES:
            for label, rate in [("saturating", None), ("sub-capacity", sub_rate)]:
                r_off, f_off, w_off = run(
                    build, switch, False, warmup, measure, rate, kwargs
                )
                r_on, f_on, w_on = run(
                    build, switch, True, warmup, measure, rate, kwargs
                )
                ident = f_off == f_on
                same_res = (
                    [repr(v) for v in r_off.per_direction_gbps]
                    == [repr(v) for v in r_on.per_direction_gbps]
                    and r_off.events == r_on.events
                )
                engage_err = check_engagement(switch, shape, r_on.warp)
                engaged = r_on.warp is not None and r_on.warp.engaged
                frac = r_on.warp.events_replayed / r_on.events if engaged else 0.0
                bulk_err = None
                if engaged and rate is not None and frac < MIN_BULK_FRAC:
                    bulk_err = f"bulk-advanced {frac:.2f} of events (< {MIN_BULK_FRAC})"
                start_err = check_replay_start(r_on.warp, warmup, measure)
                ok = (
                    ident and same_res and engage_err is None
                    and bulk_err is None and start_err is None
                )
                if not ok:
                    failures += 1
                wr = r_on.warp.describe() if r_on.warp else "none"
                print(
                    f"{'OK ' if ok else 'FAIL'} {switch:10s} {shape:10s} "
                    f"{label:12s} off={w_off:6.3f}s on={w_on:6.3f}s "
                    f"x{w_off / w_on:5.2f} bulk={frac:4.2f}  {wr}"
                )
                if engage_err is not None:
                    print(f"  ENGAGEMENT: {engage_err}")
                if bulk_err is not None:
                    print(f"  BULK: {bulk_err}")
                if start_err is not None:
                    print(f"  REPLAY START: {start_err}")
                if not ident:
                    diff(f_off, f_on)
                if not same_res:
                    print(f"  result off={r_off.per_direction_gbps} ev={r_off.events}")
                    print(f"  result on ={r_on.per_direction_gbps} ev={r_on.events}")
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
