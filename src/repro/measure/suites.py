"""Named test suites, in the spirit of FD.io CSIT and OPNFV VSperf.

The paper positions its methodology against those two projects ("Our
work covers all the test scenarios defined by the two projects",
Sec. 2.2).  A :class:`TestSuite` bundles a set of experiment
specifications that can be run for any switch with one call -- the shape
a CI pipeline would consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, RunResult
from repro.measure.throughput import measure_throughput
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.vm.machine import QemuCompatibilityError


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment in a suite."""

    name: str
    build: Callable
    frame_size: int = 64
    bidirectional: bool = False
    kwargs: tuple = ()

    def run(self, switch_name: str, warmup_ns: float, measure_ns: float, seed: int) -> RunResult | None:
        try:
            return measure_throughput(
                self.build,
                switch_name,
                self.frame_size,
                bidirectional=self.bidirectional,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                seed=seed,
                **dict(self.kwargs),
            )
        except QemuCompatibilityError:
            return None


@dataclass
class ExperimentOutcome:
    """One experiment's suite-level verdict, over its seed replicas.

    ``status`` separates the three cases a results table must not
    conflate: ``ok`` (measured), ``inapplicable`` (the configuration
    cannot exist -- e.g. BESS past 3 VMs, footnote 5) and ``failed``
    (the run errored out).
    """

    name: str
    status: str  # "ok" | "inapplicable" | "failed"
    records: list = field(default_factory=list)  # RunRecord replicas
    detail: str = ""

    @property
    def gbps(self) -> float | None:
        """Mean aggregate Gbps across seed replicas (None unless ok)."""
        if self.status != "ok" or not self.records:
            return None
        return sum(r.gbps for r in self.records) / len(self.records)

    @property
    def mpps(self) -> float | None:
        if self.status != "ok" or not self.records:
            return None
        return sum(r.mpps for r in self.records) / len(self.records)

    def _flow_summaries(self) -> list[dict]:
        if self.status != "ok":
            return []
        return [
            record.flowstats
            for record in self.records
            if getattr(record, "flowstats", None)
        ]

    @property
    def cache_hit_rate(self) -> float | None:
        """Mean flow-cache hit rate across replicas (flow telemetry runs)."""
        rates = [
            summary["totals"]["cache_hit_rate"]
            for summary in self._flow_summaries()
            if summary["totals"].get("cache_hit_rate") is not None
        ]
        return sum(rates) / len(rates) if rates else None

    @property
    def jain(self) -> float | None:
        """Mean Jain's fairness index across replicas (flow telemetry runs)."""
        values = [
            summary["fairness"]["jain"]
            for summary in self._flow_summaries()
            if summary.get("fairness", {}).get("jain") is not None
        ]
        return sum(values) / len(values) if values else None

    def trial_summary(self, policy=None):
        """:class:`~repro.measure.soundness.TrialSummary` across replicas.

        None unless the experiment is ok with at least 2 replicas --
        a single record has no variance to summarise.
        """
        if self.status != "ok" or len(self.records) < 2:
            return None
        from repro.measure.soundness import DEFAULT_POLICY, summarize_trials

        return summarize_trials(
            [r.gbps for r in self.records], policy or DEFAULT_POLICY, metric="gbps"
        )


@dataclass(frozen=True)
class TestSuite:
    """A named collection of experiments."""

    __test__ = False  # not a pytest class

    name: str
    description: str
    experiments: tuple[ExperimentSpec, ...] = field(default_factory=tuple)

    def run(
        self,
        switch_name: str,
        warmup_ns: float = DEFAULT_WARMUP_NS,
        measure_ns: float = DEFAULT_MEASURE_NS,
        seed: int = 1,
        workers: int = 1,
        cache=None,
    ):
        """Run every experiment for one switch; None marks inapplicable.

        Returns ``{experiment: RunRecord | None}``; a record mirrors
        :class:`~repro.measure.runner.RunResult` (``gbps``/``mpps``/
        ``switch``/``frame_size``).  A failed run raises -- callers that
        need failures *recorded* use :meth:`run_outcomes`.
        """
        outcomes = self.run_outcomes(
            switch_name,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            seed=seed,
            workers=workers,
            cache=cache,
        )
        results = {}
        for name, outcome in outcomes.items():
            if outcome.status == "failed":
                raise RuntimeError(f"experiment {name!r} failed: {outcome.detail}")
            results[name] = outcome.records[0] if outcome.status == "ok" else None
        return results

    def run_outcomes(
        self,
        switch_name: str,
        warmup_ns: float = DEFAULT_WARMUP_NS,
        measure_ns: float = DEFAULT_MEASURE_NS,
        seed: int = 1,
        repeat: int = 1,
        seed_policy: str | None = None,
        workers: int = 1,
        cache=None,
        progress=None,
        obs=None,
        flows: int = 1,
        flow_dist: str = "uniform",
        churn: float = 0.0,
        size_mix: str | None = None,
    ) -> dict[str, ExperimentOutcome]:
        """Run the suite through the campaign executor.

        This is the suite entry point the CLI consumes: parallelisable
        (``workers``), memoisable (``cache`` is a
        :class:`~repro.campaign.cache.ResultCache`), replicable
        (``repeat`` seed replicas per experiment) and failure-tolerant
        (a crashed experiment becomes ``status="failed"`` instead of
        sinking the suite).  ``obs`` (an
        :class:`~repro.obs.session.ObsConfig`) runs every experiment
        observed; each ok record then carries a ``metrics`` snapshot.
        ``flows``/``flow_dist``/``churn``/``size_mix`` offer every
        experiment a flow population (``repro.flows``); combined with an
        ``obs`` that enables ``flowstats``, each ok record also carries
        a per-flow telemetry summary.

        ``seed_policy`` chooses how replicas differ: ``"trial"`` runs
        soundness trials (same workload, perturbed measurement phases --
        ``repro.measure.soundness``), ``"reseed"`` (or None, the default)
        keeps the legacy consecutive-seed replicas that reseed the whole
        workload.
        """
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import CampaignSpec, RunFailure, runspec_from_experiment
        from repro.measure.soundness import trial_specs

        spec_map: dict[str, list] = {}
        runs = []
        for experiment in self.experiments:
            spec = runspec_from_experiment(
                experiment, switch_name, warmup_ns, measure_ns, seed
            )
            if spec is None:
                raise ValueError(
                    f"experiment {experiment.name!r} uses a custom builder; "
                    "run it via ExperimentSpec.run instead"
                )
            spec_map[experiment.name] = trial_specs(spec, repeat, seed_policy or "reseed")
            runs += spec_map[experiment.name]

        campaign = CampaignSpec(name=f"suite:{self.name}/{switch_name}", runs=tuple(runs))
        if flows != 1 or flow_dist != "uniform" or churn or size_mix is not None:
            campaign = campaign.with_flows(
                flows, flow_dist=flow_dist, churn=churn, size_mix=size_mix
            )
        if obs is not None:
            campaign = campaign.with_obs(obs)
        if campaign.runs != tuple(runs):
            # Both transforms preserve run order; re-map each experiment's
            # specs to their transformed counterparts so outcome_for()
            # keys match.
            transformed = iter(campaign.runs)
            for name in spec_map:
                spec_map[name] = [next(transformed) for _ in spec_map[name]]
        result = run_campaign(
            campaign, workers=workers, cache=cache, progress=progress
        )

        outcomes: dict[str, ExperimentOutcome] = {}
        for experiment in self.experiments:
            replicas = [result.outcome_for(spec) for spec in spec_map[experiment.name]]
            failures = [r for r in replicas if isinstance(r, RunFailure)]
            if failures:
                outcomes[experiment.name] = ExperimentOutcome(
                    name=experiment.name,
                    status="failed",
                    detail="; ".join(f"{f.error}: {f.message}" for f in failures),
                )
            elif any(r is None or r.status == "inapplicable" for r in replicas):
                detail = next(
                    (r.detail for r in replicas if r is not None and r.status == "inapplicable"),
                    "",
                )
                outcomes[experiment.name] = ExperimentOutcome(
                    name=experiment.name, status="inapplicable", detail=detail
                )
            else:
                outcomes[experiment.name] = ExperimentOutcome(
                    name=experiment.name, status="ok", records=replicas
                )
        return outcomes


def _spec(name, build, size=64, bidi=False, **kwargs):
    return ExperimentSpec(name, build, frame_size=size, bidirectional=bidi, kwargs=tuple(kwargs.items()))


#: The paper's own grid: every scenario at every size, both directions.
PAPER_SUITE = TestSuite(
    name="paper",
    description="The CoNEXT'19 evaluation grid (Figs. 4-6)",
    experiments=tuple(
        _spec(f"{scenario}-{size}B-{'bidi' if bidi else 'uni'}", build, size, bidi)
        for scenario, build in (("p2p", p2p.build), ("p2v", p2v.build), ("v2v", v2v.build))
        for size in (64, 256, 1024)
        for bidi in (False, True)
    )
    + tuple(
        _spec(f"loopback{n}-64B-uni", loopback.build, 64, False, n_vnfs=n)
        for n in (1, 2, 3, 4, 5)
    ),
)

#: A CSIT-style smoke suite: the cheapest experiment per scenario.
SMOKE_SUITE = TestSuite(
    name="smoke",
    description="One quick experiment per scenario (CI smoke test)",
    experiments=(
        _spec("p2p-64B", p2p.build),
        _spec("p2v-64B", p2v.build),
        _spec("v2v-64B", v2v.build),
        _spec("loopback1-64B", loopback.build, n_vnfs=1),
    ),
)

#: A VSperf-style virtual-switch suite: the virtualised scenarios only.
NFV_SUITE = TestSuite(
    name="nfv",
    description="Virtualised scenarios (OPNFV VSperf focus)",
    experiments=(
        _spec("p2v-64B-uni", p2v.build),
        _spec("p2v-64B-bidi", p2v.build, bidi=True),
        _spec("v2v-64B-uni", v2v.build),
        _spec("loopback2-64B", loopback.build, n_vnfs=2),
        _spec("loopback2-1024B", loopback.build, size=1024, n_vnfs=2),
    ),
)

SUITES = {suite.name: suite for suite in (PAPER_SUITE, SMOKE_SUITE, NFV_SUITE)}
