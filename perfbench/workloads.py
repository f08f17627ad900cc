"""The benchmark's workloads: fixed lists of calls into ``repro``'s public API.

Each workload is derived from traffic the repository already runs, and
is sized so that one *pass* over it takes 1-5 s of host time on a
2-core x86 container; a run repeats the pass for ``--seconds`` (at
least twice).  Every op is one measurement run, timed from the scenario
``build`` call to the return of ``drive``.

Measurement windows, as multiples of the defaults (3 ms throughput,
4 ms latency): paper-grid 0.2x (its fault runs 1x), rate-search 0.5x,
flow-zipf 0.5x.  They are shorter than in the sizing runs (1x, 30x, 10x,
10x) so that a run repeats every op several times, and they keep each
workload's fast-forward tier mix (``expected_tiers``): the replay tier
needs a window of at least 0.5 ms, which paper-grid's 0.2x (0.6 ms)
still gives it.

The simulation seed of every op is the benchmark's ``--seed``; the
program receives nothing else from the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign import CampaignSpec, CampaignStore, ResultCache, RunSpec, executor, from_suite
from repro.faults.plan import FaultPlan, parse_fault
from repro.measure import latency, ndr, runner
from repro.measure.latency import DEFAULT_LATENCY_MEASURE_NS
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS
from repro.scenarios import p2p, p2v
from repro.switches.registry import ALL_SWITCHES

# Every call below goes through a module attribute (``p2p.build``,
# ``runner.drive``, ``ndr.ndr_search`` ...) resolved at call time, so the
# harness's op recorder and the traced pass's span wrappers see it.


@dataclass
class UnitOutcome:
    """What one unit (one public-API call) produced.

    ``digest`` holds the unit-level simulated observables not already
    covered by the per-op digests (NDR rate and visited points, latency
    statistics, resilience reports, campaign statuses); ``counts`` its
    deterministic per-layer counters; ``failures`` the runs that raised
    without reaching ``drive`` (campaign ``RunFailure`` rows).
    """

    digest: object = ()
    counts: dict[str, int] = field(default_factory=dict)
    failures: int = 0


#: One public-API call; it gets a scratch directory inside the checkout.
Unit = Callable[[Path], UnitOutcome]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists and which layer it stresses or bypasses.
    why: str
    make_units: Callable[[int, bool], list[Unit]]
    #: Per-pass tier mix at full size: {tier label: ops}.
    expected_tiers: dict[str, int]


def _latency_digest(sample) -> tuple:
    if not len(sample):
        return (0,)
    return (
        len(sample), repr(sample.mean_us), repr(sample.std_us),
        repr(sample.min_us), repr(sample.max_us), repr(sample.percentile_us(99)),
    )


# -- paper-grid ---------------------------------------------------------------
# Why: the main user job, the repro-bench campaign --suite paper --cache
# --store path, plus the CI fault-smoke resilience grid that campaigns
# run the same way; stresses every switch model, the vif/vm hops, the
# chain turbo (busy cores, and idle spans between faults), repro.faults
# and the campaign layer's per-run overhead.

def _fault_runs(seed: int) -> tuple[RunSpec, ...]:
    """Two NIC link flaps on p2p (vpp, ovs-dpdk, snabb -- snabb stays on
    the event-by-event path) and a VNF crash on p2v (ovs-dpdk, vpp) and
    loopback-2 (vpp), at 1 Mpps over the default windows."""
    warmup = DEFAULT_WARMUP_NS
    span = DEFAULT_MEASURE_NS

    def flap(at_ns: float):
        return parse_fault(f"nic-link-flap@sut-nic.p1:at_ns={at_ns},duration_ns=300000")

    two_flaps = FaultPlan.of(flap(warmup + 0.25 * span), flap(warmup + 0.6 * span)).to_keys()
    crash = FaultPlan.of(
        parse_fault(f"vnf-crash@vm1:at_ns={warmup + 0.3 * span},duration_ns=400000")
    ).to_keys()
    common = dict(seed=seed, kind="resilience", warmup_ns=warmup, measure_ns=span)
    # The CI fault-smoke job's 0.3 epsilon keeps VNF-crash recovery
    # detection deterministic under OvS-DPDK's modelled rate jitter.
    crash_extra = (("epsilon", 0.3), ("rate_pps", 1e6))
    runs = [
        RunSpec("p2p", switch, faults=two_flaps, extra=(("rate_pps", 1e6),), **common)
        for switch in ("vpp", "ovs-dpdk", "snabb")
    ]
    runs += [
        RunSpec("p2v", switch, faults=crash, extra=crash_extra, **common)
        for switch in ("ovs-dpdk", "vpp")
    ]
    runs.append(RunSpec("loopback", "vpp", n_vnfs=2, faults=crash, extra=crash_extra, **common))
    return tuple(runs)


def _paper_grid(seed: int, smoke: bool) -> list[Unit]:
    scale = 0.05 if smoke else 0.2
    switches = ("vpp", "snabb") if smoke else ALL_SWITCHES
    suite = from_suite(
        "paper", switches, seeds=(seed,),
        warmup_ns=DEFAULT_WARMUP_NS * scale, measure_ns=DEFAULT_MEASURE_NS * scale,
    )
    campaign = CampaignSpec(suite.name, suite.runs + _fault_runs(seed))

    def run(workdir: Path) -> UnitOutcome:
        result = executor.run_campaign(
            campaign,
            workers=1,
            cache=ResultCache(workdir / "cache"),
            store=CampaignStore(workdir / "campaign.jsonl"),
        )
        rows = []
        injected = 0
        for _, outcome in result.outcomes:
            if outcome.status == "failed":
                rows.append((outcome.spec.label, "failed", outcome.error))
                continue
            rows.append((
                outcome.spec.label, outcome.status, outcome.detail,
                tuple(map(repr, outcome.per_direction_gbps)),
                tuple(map(repr, outcome.per_direction_mpps)),
                repr(outcome.latency_mean_us), outcome.latency_samples,
                json.dumps(outcome.resilience, sort_keys=True),
            ))
            if outcome.resilience is not None:
                injected += len(outcome.resilience["fault_spans"])
        return UnitOutcome(
            digest=(len(campaign), tuple(rows)),
            counts={"faults.injected": injected},
            failures=len(result.failures) + len(campaign) - len(result.outcomes),
        )

    return [run]


# -- rate-search --------------------------------------------------------------
# Why: rate searches are where long windows burn wall-clock; sub-capacity
# paced trials are the replay tier's workload (footnote 3 NDR + Table 3).

def _rate_search(seed: int, smoke: bool) -> list[Unit]:
    scale = 0.2 if smoke else 0.5
    iterations = 3 if smoke else 10
    switches = ("vpp", "bess", "snabb") if smoke else ALL_SWITCHES

    def ndr_unit(switch: str) -> Unit:
        def run(workdir: Path) -> UnitOutcome:
            found = ndr.ndr_search(
                p2p.build, switch, 64, iterations=iterations, tolerance_packets=64,
                warmup_ns=DEFAULT_WARMUP_NS, measure_ns=DEFAULT_MEASURE_NS * scale,
                seed=seed,
            )
            visited = tuple((repr(rate), repr(loss)) for rate, loss in found.trials)
            return UnitOutcome(
                digest=(repr(found.ndr_pps), visited),
                counts={"ndr.trials": len(found.trials)},
            )

        return run

    def latency_unit(switch: str) -> Unit:
        def run(workdir: Path) -> UnitOutcome:
            points = latency.latency_sweep(
                p2p.build, switch, 64,
                warmup_ns=DEFAULT_WARMUP_NS,
                measure_ns=DEFAULT_LATENCY_MEASURE_NS * scale,
                seed=seed,
            )
            digest = tuple(
                (repr(fraction), repr(point.offered_pps), _latency_digest(point.sample))
                for fraction, point in points.items()
            )
            samples = sum(len(point.sample) for point in points.values())
            return UnitOutcome(digest=digest, counts={"latency.probe_samples": samples})

        return run

    return [unit(switch) for switch in switches for unit in (ndr_unit, latency_unit)]


# -- flow-zipf ----------------------------------------------------------------
# Why: every fast-forward tier declines (multi-flow-traffic), so this is
# the bypass workload -- event-by-event dispatch of run-length flow blocks
# through the NIC, traffic generator and flow caches; 1K Zipf flows fit
# the 8K-entry OvS EMC, 10K, 100K and 1M do not.

def _flow_zipf(seed: int, smoke: bool) -> list[Unit]:
    scale = 0.2 if smoke else 0.5
    switches = ("ovs-dpdk", "vale", "t4p4s")
    scenarios = (p2p, p2v)
    populations = (
        (1_000, 3_000, 10_000, 100_000) if smoke else (1_000, 10_000, 100_000, 1_000_000)
    )

    def op(module, switch: str, flows: int) -> Unit:
        def run(workdir: Path) -> UnitOutcome:
            tb = module.build(switch, 64, flows=flows, flow_dist="zipf", seed=seed)
            runner.drive(
                tb, warmup_ns=DEFAULT_WARMUP_NS, measure_ns=DEFAULT_MEASURE_NS * scale
            )
            return UnitOutcome()

        return run

    return [
        op(module, switch, flows)
        for switch in switches
        for module in scenarios
        for flows in populations
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-grid",
            "PAPER_SUITE over all 7 switches plus the fault-smoke resilience grid via "
            "run_campaign with cache and store; every switch model, vif/vm hops, turbo, "
            "faults and campaign overhead",
            _paper_grid,
            {"turbo": 103, "declined[turbo]:pipeline-switch": 24,
             "declined[turbo]:interrupt-driven": 23, "replay": 15},
        ),
        Workload(
            "rate-search",
            "tolerant NDR search plus Table 3 latency sweep per switch; "
            "sub-capacity paced trials that the replay tier fast-forwards",
            _rate_search,
            {"replay": 55, "turbo": 15, "declined[turbo]:pipeline-switch": 14,
             "declined[turbo]:interrupt-driven": 14},
        ),
        Workload(
            "flow-zipf",
            "Zipf 1K/10K/100K/1M flows on ovs-dpdk, vale and t4p4s; every fast-forward "
            "tier declines, so it stresses dispatch, NIC, traffic and flow caches",
            _flow_zipf,
            {"declined[turbo]:multi-flow-traffic": 24},
        ),
    )
}
