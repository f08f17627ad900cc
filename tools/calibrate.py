"""Calibration harness: run the full measurement grid, print measured vs
paper-reported values.

Usage::

    python tools/calibrate.py [--throughput] [--latency] [--loopback]
        [--loopback-latency]

Used during development to tune repro.switches.params; the benches reuse
the same code paths.
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, "src")

from repro.analysis.paper_values import (
    FIG4A_P2P_UNI_64B,
    FIG4B_P2V_UNI_64B,
    FIG4C_V2V_UNI_64B,
    TABLE3,
    TABLE4,
    VPP_P2V_REVERSED_64B,
)
from repro.analysis.tables import format_table
from repro.measure.latency import latency_sweep
from repro.measure.throughput import measure_throughput
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.switches.registry import ALL_SWITCHES
from repro.vm.machine import QemuCompatibilityError


def paper(value):
    """A paper cell: the reported number, or "n/a" where the paper gives
    none (a range, a plot only, or no run)."""
    return "n/a" if value is None else value


def paper_rtts(name, key):
    """Table 3's (0.10, 0.50, 0.99) x R+ RTTs for one switch and key
    ("p2p" or a chain length); "n/a" where the paper has no run."""
    return TABLE3[name][key] or ("n/a",) * 3


def throughput_grid() -> None:
    for scenario, build, paper_uni in (
        ("p2p", p2p.build, FIG4A_P2P_UNI_64B),
        ("p2v", p2v.build, FIG4B_P2V_UNI_64B),
        ("v2v", v2v.build, FIG4C_V2V_UNI_64B),
    ):
        rows = []
        for name in ALL_SWITCHES:
            row = [name]
            for size in (64, 256, 1024):
                for bidi in (False, True):
                    r = measure_throughput(build, name, size, bidirectional=bidi)
                    row.append(r.gbps)
            row.append(paper(paper_uni[name]))
            rows.append(row)
        print(
            format_table(
                ["switch", "64u", "64b", "256u", "256b", "1024u", "1024b", "paper64u"],
                rows,
                title=f"== {scenario} throughput (Gbps) ==",
            )
        )
        print()
    # VPP reversed-path probe
    r = measure_throughput(p2v.build, "vpp", 64, reversed_path=True)
    print(f"VPP p2v reversed 64B: {r.gbps:.2f} Gbps (paper: {VPP_P2V_REVERSED_64B})\n")


def loopback_grid() -> None:
    for size in (64, 256, 1024):
        for bidi in (False, True):
            rows = []
            for name in ALL_SWITCHES:
                row = [name]
                for n in range(1, 6):
                    try:
                        r = measure_throughput(loopback.build, name, size, bidirectional=bidi, n_vnfs=n)
                        row.append(r.gbps)
                    except QemuCompatibilityError:
                        row.append(None)
                rows.append(row)
            direction = "bidi" if bidi else "uni"
            print(
                format_table(
                    ["switch", "1", "2", "3", "4", "5"],
                    rows,
                    title=f"== loopback {direction} {size}B (Gbps) ==",
                )
            )
            print()


def latency_grid() -> None:
    rows = []
    for name in ALL_SWITCHES:
        points = latency_sweep(p2p.build, name, 64)
        low, mid, high = paper_rtts(name, "p2p")
        rows.append(
            [
                name,
                points[0.10].mean_us, low,
                points[0.50].mean_us, mid,
                points[0.99].mean_us, high,
            ]
        )
    print(
        format_table(
            ["switch", "0.1R+", "paper", "0.5R+", "paper", "0.99R+", "paper"],
            rows,
            title="== p2p latency (us) vs Table 3 ==",
        )
    )
    print()
    from repro.measure.runner import drive

    rows = []
    for name in ALL_SWITCHES:
        tb = v2v.build_latency(name)
        result = drive(tb, measure_ns=4_000_000.0)
        mean = result.latency.mean_us if result.latency and len(result.latency) else None
        rows.append([name, mean, TABLE4[name]])
    print(format_table(["switch", "RTT", "paper"], rows, title="== v2v latency (us) vs Table 4 =="))


def loopback_latency_grid() -> None:
    for n in (1, 2, 3, 4):
        rows = []
        for name in ALL_SWITCHES:
            low, mid, high = paper_rtts(name, n)
            try:
                points = latency_sweep(loopback.build, name, 64, n_vnfs=n)
                measured = [points[fraction].mean_us for fraction in (0.10, 0.50, 0.99)]
            except QemuCompatibilityError:
                measured = [None, None, None]
            rows.append([name, measured[0], low, measured[1], mid, measured[2], high])
        print(
            format_table(
                ["switch", "0.1R+", "paper", "0.5R+", "paper", "0.99R+", "paper"],
                rows,
                title=f"== loopback-{n} latency (us) vs Table 3 ==",
            )
        )
        print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--throughput", action="store_true")
    parser.add_argument("--loopback", action="store_true")
    parser.add_argument("--latency", action="store_true")
    parser.add_argument("--loopback-latency", action="store_true")
    args = parser.parse_args()
    run_all = not any(vars(args).values())
    t0 = time.time()
    if args.throughput or run_all:
        throughput_grid()
    if args.loopback or run_all:
        loopback_grid()
    if args.latency or run_all:
        latency_grid()
    if args.loopback_latency or run_all:
        loopback_latency_grid()
    print(f"[calibrate] total wall time: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
