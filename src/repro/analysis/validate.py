"""Reproduction validation: grade the simulation against the paper.

Runs the quantitatively-anchored experiments (the numbers the paper's
text states explicitly) and the qualitative orderings, and grades each
as pass/fail with a tolerance.  This is the library's self-check --
``repro-bench validate`` -- and the programmatic answer to "does this
reproduction still hold after my change?".

The measurement battery itself is expressed as a campaign
(:mod:`repro.campaign`): every anchor becomes a declarative
:class:`~repro.campaign.spec.RunSpec`, executed serially or across
worker processes (``workers``) with optional on-disk memoisation
(``cache``) -- results are identical either way, because each run is a
pure function of its spec and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from repro.analysis.paper_values import (
    FIG4A_P2P_UNI_64B,
    FIG4B_P2V_UNI_64B,
    TABLE4,
    VPP_P2V_REVERSED_64B,
)
from repro.campaign.executor import run_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, RunRecord, RunSpec

#: Relative tolerance for explicit paper values (the paper calls its own
#: numbers "only indicative"; our calibration targets +-20%).
VALUE_TOLERANCE = 0.25


@dataclass(frozen=True)
class Check:
    """One graded comparison against the paper."""

    artifact: str
    name: str
    measured: float
    expected: float | None
    passed: bool
    detail: str = ""


def _value_check(artifact: str, name: str, measured: float, expected: float, tolerance: float = VALUE_TOLERANCE) -> Check:
    passed = abs(measured - expected) <= tolerance * expected
    return Check(artifact, name, measured, expected, passed, f"±{int(tolerance * 100)}%")


def _ordering_check(artifact: str, name: str, condition: bool, measured: float, detail: str) -> Check:
    return Check(artifact, name, measured, None, condition, detail)


def _battery(warmup_ns: float, measure_ns: float, seed: int) -> list[RunSpec]:
    """Every simulation the validation criteria consume, as one grid."""
    windows = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    specs: list[RunSpec] = []
    # Fig. 4a anchors: p2p unidirectional, plus the BESS bidirectional probe.
    specs += [RunSpec("p2p", name, **windows) for name in FIG4A_P2P_UNI_64B]
    specs.append(RunSpec("p2p", "bess", bidirectional=True, **windows))
    # Fig. 4b anchors, plus VPP's reversed-path probe.
    specs += [
        RunSpec("p2v", name, **windows)
        for name, expected in FIG4B_P2V_UNI_64B.items()
        if expected is not None
    ]
    specs.append(RunSpec("p2v", "vpp", extra=(("reversed_path", True),), **windows))
    # Fig. 4c orderings.
    specs += [RunSpec("v2v", "vale", **windows), RunSpec("v2v", "snabb", **windows)]
    specs.append(RunSpec("p2v", "snabb", **windows))
    # Fig. 5 orderings.
    specs += [
        RunSpec("loopback", name, n_vnfs=1, **windows)
        for name in ("bess", "vpp", "vale", "t4p4s", "snabb")
    ]
    specs += [
        RunSpec("loopback", "snabb", n_vnfs=n, **windows) for n in (3, 4)
    ]
    # Table 4: v2v RTT drives (longer window so probes accumulate).
    specs += [
        RunSpec(
            "v2v",
            name,
            kind="latency",
            warmup_ns=warmup_ns,
            measure_ns=max(measure_ns, 2_000_000.0),
            seed=seed,
        )
        for name in TABLE4
    ]
    return specs


def validate(
    warmup_ns: float = 300_000.0,
    measure_ns: float = 1_500_000.0,
    seed: int = 1,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    cache=None,
    obs=None,
    metrics_sink: dict | None = None,
    repeat: int = 1,
    seed_policy: str | None = None,
) -> list[Check]:
    """Run the validation battery; returns one Check per criterion.

    ``workers`` fans the battery out over processes; ``cache`` (a
    :class:`~repro.campaign.cache.ResultCache`) memoises runs on disk.
    Both leave every measured value bit-identical to serial, uncached
    execution -- as does observing the battery with ``obs`` (an
    :class:`~repro.obs.session.ObsConfig`), which additionally fills
    ``metrics_sink`` (if given) with ``{run label: metrics snapshot}``.

    ``repeat > 1`` measures every anchor that many times and grades each
    criterion on the *mean* across replicas.  It requires an explicit
    ``seed_policy`` (``"trial"`` for soundness trials that perturb only
    measurement phases, ``"reseed"`` for whole-workload reseeding) --
    repeating without stating how replicas differ would silently grade
    one arbitrary interpretation, so that is an error.  ``repeat=1``
    (the default) is bit-identical to the pre-soundness battery.
    """
    from repro.measure.soundness import SEED_POLICIES, trial_specs

    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if repeat > 1 and seed_policy is None:
        raise ValueError(
            "repeat > 1 requires an explicit seed_policy "
            f"(one of {SEED_POLICIES}): replicas must state whether they "
            "are soundness trials or whole-workload reseeds"
        )

    def replicas(spec: RunSpec) -> list[RunSpec]:
        return [spec] if seed_policy is None else trial_specs(spec, repeat, seed_policy)

    windows = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    specs = [rep for spec in _battery(warmup_ns, measure_ns, seed) for rep in replicas(spec)]
    # Anchors shared between criteria (e.g. snabb p2v feeds both Fig. 4b
    # and the Fig. 4c ordering) are simulated once.
    campaign = CampaignSpec(name="validate", runs=tuple(specs)).deduplicated()
    obs_items: tuple = ()
    if obs is not None:
        campaign = campaign.with_obs(obs)
        obs_items = campaign.runs[0].obs if campaign.runs else ()
    reporter = ProgressReporter(total=len(campaign), emit=progress)
    result = run_campaign(campaign, workers=workers, cache=cache, progress=reporter)

    failures = result.failures
    if failures:
        labels = ", ".join(f.spec.label for f in failures)
        raise RuntimeError(f"validation runs failed: {labels}")

    if metrics_sink is not None:
        for _, outcome in result.outcomes:
            if isinstance(outcome, RunRecord) and outcome.metrics is not None:
                metrics_sink[outcome.spec.label] = outcome.metrics

    def replicas_of(spec: RunSpec) -> list[RunSpec]:
        return [replace(rep, obs=obs_items) for rep in replicas(spec)]

    def gbps(spec: RunSpec) -> float:
        values = []
        for rep in replicas_of(spec):
            outcome = result.outcome_for(rep)
            if isinstance(outcome, RunRecord) and outcome.status == "ok":
                values.append(outcome.gbps)
        if not values:
            return math.nan
        return sum(values) / len(values)

    checks: list[Check] = []

    # --- Fig. 4a anchors -------------------------------------------------
    for name, expected in FIG4A_P2P_UNI_64B.items():
        measured = gbps(RunSpec("p2p", name, **windows))
        checks.append(_value_check("fig4a", f"{name} p2p uni 64B", measured, expected))
    bess_bidi = gbps(RunSpec("p2p", "bess", bidirectional=True, **windows))
    checks.append(_value_check("fig4a", "bess p2p bidi 64B", bess_bidi, 16.0))

    # --- Fig. 4b anchors -------------------------------------------------
    for name, expected in FIG4B_P2V_UNI_64B.items():
        if expected is None:
            continue
        measured = gbps(RunSpec("p2v", name, **windows))
        checks.append(_value_check("fig4b", f"{name} p2v uni 64B", measured, expected))
    reversed_vpp = gbps(RunSpec("p2v", "vpp", extra=(("reversed_path", True),), **windows))
    checks.append(_value_check("fig4b", "vpp p2v reversed 64B", reversed_vpp, VPP_P2V_REVERSED_64B))

    # --- Fig. 4c orderings -----------------------------------------------
    vale_v2v = gbps(RunSpec("v2v", "vale", **windows))
    snabb_v2v = gbps(RunSpec("v2v", "snabb", **windows))
    snabb_p2v = gbps(RunSpec("p2v", "snabb", **windows))
    checks.append(_value_check("fig4c", "vale v2v uni 64B", vale_v2v, 10.5))
    checks.append(
        _ordering_check(
            "fig4c", "snabb v2v > p2v", snabb_v2v > 0.95 * snabb_p2v, snabb_v2v,
            "the only switch improving into v2v",
        )
    )

    # --- Fig. 5 orderings ------------------------------------------------
    loop1 = {
        name: gbps(RunSpec("loopback", name, n_vnfs=1, **windows))
        for name in ("bess", "vpp", "vale", "t4p4s", "snabb")
    }
    checks.append(
        _ordering_check(
            "fig5", "bess wins 1-VNF", loop1["bess"] == max(loop1.values()), loop1["bess"],
            "highest 1-VNF throughput",
        )
    )
    checks.append(
        _ordering_check(
            "fig5", "t4p4s worst 1-VNF", loop1["t4p4s"] == min(loop1.values()), loop1["t4p4s"],
            "lowest 1-VNF throughput",
        )
    )
    snabb3 = gbps(RunSpec("loopback", "snabb", n_vnfs=3, **windows))
    snabb4 = gbps(RunSpec("loopback", "snabb", n_vnfs=4, **windows))
    checks.append(
        _ordering_check(
            "fig5", "snabb collapses at 4 VNFs", snabb4 < snabb3 / 3, snabb4,
            "throughput plummets (Sec. 5.2)",
        )
    )

    # --- Table 4 ----------------------------------------------------------
    rtts = {}
    for name in TABLE4:
        spec = RunSpec(
            "v2v",
            name,
            kind="latency",
            warmup_ns=warmup_ns,
            measure_ns=max(measure_ns, 2_000_000.0),
            seed=seed,
        )
        values = []
        for rep in replicas_of(spec):
            outcome = result.outcome_for(rep)
            if isinstance(outcome, RunRecord) and outcome.latency_mean_us is not None:
                values.append(outcome.latency_mean_us)
        rtts[name] = sum(values) / len(values) if values else math.nan
    checks.append(
        _ordering_check(
            "table4", "vale lowest v2v RTT", rtts["vale"] == min(rtts.values()), rtts["vale"],
            "ping over ptnet",
        )
    )
    checks.append(
        _ordering_check(
            "table4", "t4p4s/snabb highest v2v RTT",
            sorted(rtts, key=rtts.get)[-2:] in (["snabb", "t4p4s"], ["t4p4s", "snabb"]),
            rtts["t4p4s"],
            "worst two pipelines",
        )
    )
    return checks


def summarize(checks: list[Check]) -> tuple[int, int]:
    """(passed, total)."""
    return sum(1 for c in checks if c.passed), len(checks)
