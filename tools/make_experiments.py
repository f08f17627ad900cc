"""Generate EXPERIMENTS.md: paper-reported vs harness-measured values for
every table and figure in the paper's evaluation section.

Usage::

    python tools/make_experiments.py [output_path]

Runs the complete measurement grid (several minutes of wall clock) with
the production windows and writes a markdown report.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analysis.paper_values import (
    BESS_P2V_BIDI_64B,
    FIG4A_P2P_UNI_64B,
    FIG4B_P2V_UNI_64B,
    FIG4C_V2V_UNI_64B,
    TABLE3,
    TABLE4,
    VALE_V2V_BIDI_1024B,
    VPP_P2V_BIDI_64B,
    VPP_P2V_REVERSED_64B,
)
from repro.core.units import PAPER_FRAME_SIZES
from repro.measure.latency import LOAD_FRACTIONS, latency_sweep, measure_latency_at
from repro.measure.runner import drive
from repro.measure.throughput import measure_throughput
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.switches.registry import ALL_SWITCHES, params_for
from repro.vm.machine import QemuCompatibilityError


def fmt(value, digits=2):
    if value is None:
        return "-"
    if isinstance(value, float) and value != value:
        return "-"
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        out.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(out)


def display(name):
    return params_for(name).display_name


def fig1_section():
    rows = []
    for name in ALL_SWITCHES:
        max_tput = measure_throughput(p2p.build, name, 64, bidirectional=True)
        point = measure_latency_at(
            p2p.build, name, 64,
            rate_pps=0.95 * max_tput.mpps * 1e6 / 2, fraction=0.95,
            bidirectional=True,
        )
        rows.append([display(name), max_tput.gbps, point.mean_us, point.std_us])
    corr = float(np.corrcoef(
        [r[1] for r in rows], [r[2] for r in rows]
    )[0, 1])
    return (
        "## Fig. 1 — motivating scatter (bidirectional p2p, 64 B, latency @0.95×max)\n\n"
        + md_table(["switch", "max throughput (Gbps)", "mean RTT (µs)", "std RTT (µs)"], rows)
        + f"\n\nThroughput/latency correlation: **{corr:.2f}** "
        "(paper: negatively correlated — the fastest switch is also the lowest-latency one). "
        "The std-vs-mean panel shows no single pattern, as in the paper.\n"
    )


def throughput_grid_section(title, build, paper_uni, extra=""):
    rows = []
    for name in ALL_SWITCHES:
        row = [display(name)]
        for size in PAPER_FRAME_SIZES:
            for bidi in (False, True):
                row.append(measure_throughput(build, name, size, bidirectional=bidi).gbps)
        row.append(paper_uni.get(name))
        rows.append(row)
    headers = ["switch", "64u", "64b", "256u", "256b", "1024u", "1024b", "paper 64u"]
    return f"## {title}\n\n" + md_table(headers, rows) + "\n" + extra


def fig4b_extra():
    reversed_vpp = measure_throughput(p2v.build, "vpp", 64, reversed_path=True).gbps
    bess_bidi = measure_throughput(p2v.build, "bess", 64, bidirectional=True).gbps
    vpp_bidi = measure_throughput(p2v.build, "vpp", 64, bidirectional=True).gbps
    return (
        "\nAdditional Sec. 5.2 anchors: "
        f"VPP reversed path (VM→NIC, 64 B) measured **{reversed_vpp:.2f}** vs paper {VPP_P2V_REVERSED_64B}; "
        f"BESS bidi 64 B measured **{bess_bidi:.2f}** vs paper {BESS_P2V_BIDI_64B}; "
        f"VPP bidi 64 B measured **{vpp_bidi:.2f}** vs paper {VPP_P2V_BIDI_64B}.\n"
    )


def fig4c_extra():
    uni = measure_throughput(v2v.build, "vale", 1024).gbps
    bidi = measure_throughput(v2v.build, "vale", 1024, bidirectional=True).gbps
    return (
        f"\nVALE 1024 B v2v: uni **{uni:.1f}** Gbps, bidi **{bidi:.1f}** Gbps "
        f"(ratio {bidi / uni:.2f}; paper: bidi 35 Gbps = 64% of uni — "
        f"paper bidi value {VALE_V2V_BIDI_1024B}).\n"
    )


def loopback_section(bidirectional):
    chains = (1, 2, 3, 4, 5)
    parts = []
    for size in PAPER_FRAME_SIZES:
        rows = []
        for name in ALL_SWITCHES:
            row = [display(name)]
            for n in chains:
                try:
                    row.append(
                        measure_throughput(
                            loopback.build, name, size,
                            bidirectional=bidirectional, n_vnfs=n,
                        ).gbps
                    )
                except QemuCompatibilityError:
                    row.append(None)
            rows.append(row)
        parts.append(f"### {size} B\n\n" + md_table(
            ["switch"] + [f"{n} VNF" for n in chains], rows
        ))
    label = "Fig. 6 — loopback bidirectional" if bidirectional else "Fig. 5 — loopback unidirectional"
    return f"## {label} throughput (Gbps)\n\n" + "\n\n".join(parts) + "\n"


def table3_section():
    parts = []
    for scenario in ("p2p", 1, 2, 3, 4):
        rows = []
        for name in ALL_SWITCHES:
            paper = TABLE3[name][scenario]
            if scenario == "p2p":
                points = latency_sweep(p2p.build, name, 64)
            else:
                try:
                    points = latency_sweep(loopback.build, name, 64, n_vnfs=scenario)
                except QemuCompatibilityError:
                    points = None
            measured = (
                [points[f].mean_us for f in LOAD_FRACTIONS] if points else [None] * 3
            )
            paper_cells = list(paper) if paper else [None] * 3
            rows.append([display(name), *measured, *paper_cells])
        label = "p2p" if scenario == "p2p" else f"{scenario}-VNF loopback"
        parts.append(
            f"### {label}\n\n"
            + md_table(
                ["switch", "0.1R⁺", "0.5R⁺", "0.99R⁺", "paper 0.1", "paper 0.5", "paper 0.99"],
                rows,
            )
        )
    return "## Table 3 — RTT latency (µs) at fractions of R⁺\n\n" + "\n\n".join(parts) + "\n"


def table4_section():
    rows = []
    for name in ALL_SWITCHES:
        tb = v2v.build_latency(name)
        result = drive(tb, measure_ns=4_000_000.0)
        rows.append([display(name), result.latency.mean_us, TABLE4[name]])
    return (
        "## Table 4 — v2v RTT latency (µs), 1 Mpps, software timestamping\n\n"
        + md_table(["switch", "measured", "paper"], rows)
        + "\n"
    )


HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of *Comparing the Performance of State-of-the-Art
Software Switches for NFV* (CoNEXT 2019), regenerated on the simulated
testbed.  Generated by `python tools/make_experiments.py`; the same code
paths run under `pytest benchmarks/ --benchmark-only`.

Absolute numbers are calibrated against the paper's platform (Sec. 5.1);
the claim being validated is the *shape*: per-scenario orderings,
saturation points, crossovers and collapse points.  The paper itself
stresses its numbers are "only indicative" of its hardware/software
versions.

"""

DEVIATIONS = """## Known deviations from the paper

1. **p2p bidirectional at 1024 B (Fig. 4a)** — the paper shows VALE and
   t4p4s below 20 Gbps even at 1024 B; our models saturate (VALE ≈ 20,
   t4p4s ≈ 18-20).  Matching this would require per-byte NIC costs that
   contradict VALE's flat 10 Gbps loopback chains at 1024 B (Fig. 5c),
   which we weighted higher.
2. **p2v bidirectional at 1024 B (Fig. 4b)** — VPP/Snabb saturate 20 Gbps
   in our runs; the paper reports they fall slightly short.  They do fail
   at 256 B, which the text emphasises.
3. **BESS p2v bidirectional 64 B** — measured ≈ 9.5-10 vs paper 11.38.
   The gap traces to the tension between BESS's v2v ceiling (< 7.4 Gbps)
   and its p2v aggregate; both cannot be hit exactly with one vhost cost.
4. **VALE v2v** — uni at 1024 B measures ≈ 65-80 Gbps vs the paper's
   implied ≈ 55; bidi ≈ 21 vs 35.  The in-VM pkt-gen bridge workaround
   dominates bidi in our model (the paper calls its own bidi numbers "a
   lower bound" for the same reason).
5. **OvS-DPDK / t4p4s 0.99 R⁺ loopback tails** — reproduced direction and
   ordering (hundreds of µs, t4p4s worst) but smaller magnitude than the
   paper's extremes (t4p4s up to 7275 µs); matching those tails exactly
   would require second-scale instability episodes that our measurement
   windows (milliseconds) cannot average.
6. **Driver drops are single frames, but every run reads the same
   schedule** — the paper attributes strict-NDR unreliability to
   sporadic driver-level loss (footnote 3).  Each NIC port
   (`repro.nic.port`, `DRIVER_DROP_PROB` = 1e-4 per frame) keeps a drop
   schedule: geometric gaps between dropped frames, drawn from a
   counter-based hash of the port name, the trial salt and the drop
   number.  Measured with `REPRO_WARP=0` over one perfbench
   `rate-search` pass: 328 drop events (one event = the frames one
   `send_batch` call lost to driver drops), each of one frame, out of
   4.62 M offered frames at seed 1 and 4.82 M at seed 7.  The per-frame
   hash this replaced dropped 605 frames in 21 events at seed 1, 18 of
   them 29–32 frames each.  Independent 1e-4 drops would give ≈ 460
   events at seed 1 and ≈ 480 at seed 7.  Both seeds give 328, below
   that, because the schedule depends only on the port name and the
   trial salt: every run starts each port at ordinal 0, so `gen-nic.p0`
   drops its 0-based frames 1,988, 4,048 and 27,490 in every run, and
   the pass's runs repeat one realisation of the loss, a sparse one,
   instead of averaging many.  Trial replicas (`--seed-policy trial`)
   each draw their own schedule through the salt; a run's seed does not
   change it.  One single-frame drop can move a saturating cell by a
   whole batch: Fig. 4a's t4p4s p2p 1024 B bidirectional cell (seed 1,
   default windows) meters 3,551 frames per direction (19.77 Gbps) with
   drops on and 3,584 (19.96) with `DRIVER_DROP_PROB = 0`.  The run
   loses 4 single frames to driver drops (`gen-nic.p0` twice,
   `sut-nic.p0`, `sut-nic.p1`) and none to a ring or the tx backlog; a
   drop shifts the phase of the batches, so the 3 ms window's edge cuts
   about one batch earlier per direction.

"""


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    t0 = time.time()
    sections = [
        HEADER,
        fig1_section(),
        throughput_grid_section("Fig. 4a — p2p throughput (Gbps)", p2p.build, FIG4A_P2P_UNI_64B),
        throughput_grid_section(
            "Fig. 4b — p2v throughput (Gbps)", p2v.build, FIG4B_P2V_UNI_64B, fig4b_extra()
        ),
        throughput_grid_section(
            "Fig. 4c — v2v throughput (Gbps)", v2v.build, FIG4C_V2V_UNI_64B, fig4c_extra()
        ),
        loopback_section(bidirectional=False),
        loopback_section(bidirectional=True),
        table3_section(),
        table4_section(),
        DEVIATIONS,
    ]
    content = "\n".join(sections)
    content += f"\n*Generated in {time.time() - t0:.0f} s of wall time.*\n"
    with open(out_path, "w") as f:
        f.write(content)
    print(f"wrote {out_path} in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
