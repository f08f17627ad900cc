"""Declarative experiment specifications and their execution.

A :class:`RunSpec` names one simulation -- (scenario, switch, frame size,
direction, chain length, seed, metric kind, windows) -- without holding
any live object, so it can cross a process boundary, key a cache entry
and round-trip through JSON.  A :class:`CampaignSpec` is an ordered grid
of them.  :func:`execute_run` is the single choke point that turns a
spec into a :class:`RunRecord`; serial and process-pool executors both
call it, which is what makes their results bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Sequence

from repro.faults.plan import FaultEvent, FaultPlan
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS

#: Scenarios a RunSpec may name (the paper's Fig. 2 plus the Table 4
#: latency variant of v2v).
SCENARIOS = ("p2p", "p2v", "v2v", "loopback")
KINDS = ("throughput", "latency", "resilience")


def _canonical_fault_key(item) -> tuple:
    """Normalise one fault description (event, dict or key tuple) to a
    validated canonical key (see :meth:`FaultEvent.to_key`)."""
    if isinstance(item, FaultEvent):
        return item.to_key()
    if isinstance(item, dict):
        return FaultEvent.from_dict(item).to_key()
    return FaultEvent.from_key(item).to_key()


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described by plain data."""

    scenario: str
    switch: str
    frame_size: int = 64
    bidirectional: bool = False
    n_vnfs: int = 1
    seed: int = 1
    kind: str = "throughput"
    warmup_ns: float = DEFAULT_WARMUP_NS
    measure_ns: float = DEFAULT_MEASURE_NS
    #: extra builder kwargs (e.g. ``reversed_path`` for p2v), kept as a
    #: sorted tuple of items so the spec stays hashable and canonical.
    extra: tuple[tuple[str, Any], ...] = ()
    #: observability configuration (:meth:`repro.obs.ObsConfig.to_items`);
    #: empty means "run unobserved" and is omitted from :meth:`to_dict`
    #: so pre-observability cache keys and stored records stay valid.
    obs: tuple[tuple[str, Any], ...] = ()
    #: fault schedule (:meth:`repro.faults.FaultPlan.to_keys` canonical
    #: tuples); empty means "no faults" and is omitted from
    #: :meth:`to_dict` so pre-fault cache keys and stored records stay
    #: valid.  Non-empty requires ``kind='resilience'``.
    faults: tuple[tuple, ...] = ()
    #: trial index on the soundness repeat axis (``repro.measure.
    #: soundness``): 0 is the unperturbed base run; k > 0 perturbs
    #: traffic phase / driver-drop schedule / churn offset through
    #: ``trial.*`` RNG streams while keeping the workload identical.  0 is omitted
    #: from :meth:`to_dict` so single-trial cache keys and stored
    #: records stay valid.
    trial: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; known: {SCENARIOS}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; known: {KINDS}")
        if self.kind == "latency" and self.scenario != "v2v":
            raise ValueError("kind='latency' is the Table 4 RTT drive; only scenario 'v2v' supports it")
        object.__setattr__(self, "extra", tuple(sorted(self.extra)))
        object.__setattr__(self, "obs", tuple(sorted(self.obs)))
        object.__setattr__(
            self,
            "faults",
            tuple(sorted(_canonical_fault_key(item) for item in self.faults)),
        )
        if self.kind == "resilience" and not self.faults:
            raise ValueError("kind='resilience' needs a non-empty fault schedule")
        if self.faults and self.kind != "resilience":
            raise ValueError(
                f"fault schedules require kind='resilience', got kind={self.kind!r}"
            )
        if self.trial < 0:
            raise ValueError(f"trial must be >= 0, got {self.trial}")

    @property
    def fault_plan(self) -> FaultPlan:
        """The spec's fault schedule as a live :class:`FaultPlan`."""
        return FaultPlan.from_keys(self.faults)

    @property
    def label(self) -> str:
        """Human-readable run name, e.g. ``loopback3-64B-uni/vale#s1``."""
        scenario = f"loopback{self.n_vnfs}" if self.scenario == "loopback" else self.scenario
        direction = "bidi" if self.bidirectional else "uni"
        kind = "" if self.kind == "throughput" else f"+{self.kind}"
        extra = dict(self.extra)
        flows = extra.get("flows", 1)
        flow_part = f"+{flows}flows" if flows != 1 else ""
        trial = f"+t{self.trial}" if self.trial else ""
        return f"{scenario}-{self.frame_size}B-{direction}{kind}{flow_part}/{self.switch}#s{self.seed}{trial}"

    def to_dict(self) -> dict:
        data = {
            "scenario": self.scenario,
            "switch": self.switch,
            "frame_size": self.frame_size,
            "bidirectional": self.bidirectional,
            "n_vnfs": self.n_vnfs,
            "seed": self.seed,
            "kind": self.kind,
            "warmup_ns": self.warmup_ns,
            "measure_ns": self.measure_ns,
            "extra": [list(item) for item in self.extra],
        }
        if self.obs:
            # Only when observed: keeps unobserved cache keys / stored
            # records byte-identical to pre-observability versions.
            data["obs"] = [list(item) for item in self.obs]
        if self.faults:
            # Only when faulted, for the same cache-key stability reason.
            data["faults"] = self.fault_plan.to_items()
        if self.trial:
            # Only for trial replicas, for the same cache-key stability
            # reason: trial 0 *is* the pre-soundness run.
            data["trial"] = self.trial
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        payload = dict(data)
        payload["extra"] = tuple((key, value) for key, value in payload.get("extra", ()))
        payload["obs"] = tuple((key, value) for key, value in payload.get("obs", ()))
        payload["faults"] = tuple(payload.get("faults", ()))
        return cls(**payload)


@dataclass
class RunRecord:
    """Outcome of one completed (or inapplicable) run -- plain data."""

    spec: RunSpec
    status: str = "ok"  # "ok" | "inapplicable"
    per_direction_gbps: list[float] = field(default_factory=list)
    per_direction_mpps: list[float] = field(default_factory=list)
    latency_mean_us: float | None = None
    latency_std_us: float | None = None
    latency_samples: int = 0
    events: int = 0
    duration_ns: float = 0.0
    wall_clock_s: float = 0.0
    cached: bool = False
    detail: str = ""
    #: Compact observability snapshot (metrics + profile + trace digest)
    #: from :meth:`repro.obs.session.Observation.metrics_snapshot`; None
    #: for unobserved runs and omitted from :meth:`to_dict`.
    metrics: dict | None = None
    #: Resilience report (:meth:`repro.measure.resilience.ResilienceReport.to_dict`);
    #: None for non-resilience runs and omitted from :meth:`to_dict`.
    resilience: dict | None = None
    #: Per-flow telemetry summary (:meth:`repro.obs.flowstats.FlowStats.summary`);
    #: None unless the run was observed with ``flowstats=True`` and
    #: omitted from :meth:`to_dict` so older stored records stay valid.
    flowstats: dict | None = None
    #: Multi-trial summary (:meth:`repro.measure.soundness.TrialSummary.
    #: to_dict` plus point status/reason), attached by the repeat
    #: scheduler to a point's first trial record; None for single-trial
    #: runs and omitted from :meth:`to_dict` so older stored records
    #: stay valid.
    trials: dict | None = None
    #: Which fast-forward tier handled the run: an engaged mode
    #: (``"replay"``, ``"turbo"``, ``"fluid"``) or ``"declined:<reason>"``.
    #: None when the engine reported nothing (warp disabled, latency
    #: kinds) and omitted from :meth:`to_dict` so older stored records
    #: stay valid.
    warp: str | None = None

    # Convenience mirrors of RunResult so suite/table code can treat a
    # record like a measurement.
    @property
    def gbps(self) -> float:
        return sum(self.per_direction_gbps)

    @property
    def mpps(self) -> float:
        return sum(self.per_direction_mpps)

    @property
    def scenario(self) -> str:
        return self.spec.scenario

    @property
    def switch(self) -> str:
        return self.spec.switch

    @property
    def frame_size(self) -> int:
        return self.spec.frame_size

    @property
    def bidirectional(self) -> bool:
        return self.spec.bidirectional

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        data = {
            "record": "result",
            "spec": self.spec.to_dict(),
            "status": self.status,
            "per_direction_gbps": self.per_direction_gbps,
            "per_direction_mpps": self.per_direction_mpps,
            "latency_mean_us": self.latency_mean_us,
            "latency_std_us": self.latency_std_us,
            "latency_samples": self.latency_samples,
            "events": self.events,
            "duration_ns": self.duration_ns,
            "wall_clock_s": self.wall_clock_s,
            "detail": self.detail,
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics
        if self.resilience is not None:
            data["resilience"] = self.resilience
        if self.flowstats is not None:
            data["flowstats"] = self.flowstats
        if self.trials is not None:
            data["trials"] = self.trials
        if self.warp is not None:
            data["warp"] = self.warp
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        payload = {k: v for k, v in data.items() if k != "record"}
        payload["spec"] = RunSpec.from_dict(payload["spec"])
        return cls(**payload)


@dataclass
class RunFailure:
    """A run that errored out; recorded instead of sinking the campaign."""

    spec: RunSpec
    error: str
    message: str
    attempts: int = 1
    wall_clock_s: float = 0.0
    status: str = "failed"

    @property
    def ok(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return {
            "record": "failure",
            "spec": self.spec.to_dict(),
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        payload = {k: v for k, v in data.items() if k != "record"}
        payload["spec"] = RunSpec.from_dict(payload["spec"])
        return cls(**payload)


def outcome_from_dict(data: dict) -> RunRecord | RunFailure:
    """Revive either record kind from its JSON form."""
    if data.get("record") == "failure":
        return RunFailure.from_dict(data)
    return RunRecord.from_dict(data)


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered, named collection of runs."""

    name: str
    runs: tuple[RunSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.runs)

    def deduplicated(self) -> "CampaignSpec":
        """Drop exact-duplicate runs, keeping first-occurrence order."""
        return CampaignSpec(name=self.name, runs=tuple(dict.fromkeys(self.runs)))

    def with_repeats(self, repeat: int) -> "CampaignSpec":
        """Replicate every run over ``repeat`` consecutive seeds.

        This is the legacy ``reseed`` policy: every replica re-derives
        *all* RNG streams, changing the workload itself.  For sound
        repeats of an identical workload use :meth:`with_trials`.
        """
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat == 1:
            return self
        runs = tuple(
            replace(spec, seed=spec.seed + i) for spec in self.runs for i in range(repeat)
        )
        return CampaignSpec(name=self.name, runs=runs)

    def with_trials(self, repeat: int, seed_policy: str = "trial") -> "CampaignSpec":
        """Replicate every run over ``repeat`` trials on the soundness axis.

        ``trial`` replicas keep the workload definition identical and
        perturb only measurement-irrelevant phases (traffic start phase,
        driver-drop schedule, churn offset) through dedicated ``trial.*``
        RNG streams -- the distribution they produce is measurement
        noise, not workload variation.  ``seed_policy="reseed"`` falls
        back to :meth:`with_repeats`.
        """
        from repro.measure.soundness import trial_specs

        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat == 1:
            return self
        runs = tuple(
            trial
            for spec in self.runs
            for trial in trial_specs(spec, repeat, seed_policy)
        )
        return CampaignSpec(name=self.name, runs=runs)

    def with_obs(self, config=None, **overrides) -> "CampaignSpec":
        """Run every spec observed (``repro.obs``), collecting per-run
        metric snapshots.

        Accepts an :class:`~repro.obs.session.ObsConfig` or its keyword
        overrides (``with_obs(trace=True)``).  A disabled config (all
        collection off) clears the ``obs`` field instead, restoring the
        unobserved cache keys.
        """
        from repro.obs import ObsConfig

        if config is None:
            config = ObsConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides, not both")
        items = config.to_items() if config.enabled else ()
        runs = tuple(replace(spec, obs=items) for spec in self.runs)
        return CampaignSpec(name=self.name, runs=runs)

    def with_flows(
        self,
        flows: int,
        flow_dist: str = "uniform",
        churn: float = 0.0,
        size_mix: str | None = None,
    ) -> "CampaignSpec":
        """Offer every run a flow population (``repro.flows``).

        ``flows=1`` with defaults clears the flow axis instead, restoring
        the single-flow cache keys (flow keys are omitted entirely from
        trivial specs, so pre-flow-axis stored records stay valid).
        """
        from repro.flows import flow_axis_items

        items = flow_axis_items(
            flows=flows, flow_dist=flow_dist, churn=churn, size_mix=size_mix
        )
        flow_keys = ("flows", "flow_dist", "churn", "size_mix")
        runs = tuple(
            replace(
                spec,
                extra=tuple(
                    item for item in spec.extra if item[0] not in flow_keys
                ) + items,
            )
            for spec in self.runs
        )
        return CampaignSpec(name=self.name, runs=runs)

    def with_faults(self, plan: FaultPlan) -> "CampaignSpec":
        """Turn every run into a resilience run under ``plan``.

        An empty plan clears the fault axis instead, restoring throughput
        runs with their pre-fault cache keys.
        """
        if not plan:
            runs = tuple(
                replace(spec, kind="throughput", faults=()) for spec in self.runs
            )
        else:
            runs = tuple(
                replace(spec, kind="resilience", faults=plan.to_keys())
                for spec in self.runs
            )
        return CampaignSpec(name=self.name, runs=runs)


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------

def grid(
    name: str,
    switches: Sequence[str],
    scenarios: Sequence[str] = ("p2p", "p2v", "v2v"),
    frame_sizes: Sequence[int] = (64, 256, 1024),
    directions: Sequence[bool] = (False, True),
    vnfs: Sequence[int] = (1,),
    seeds: Sequence[int] = (1,),
    kind: str = "throughput",
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    fault_plans: Sequence[FaultPlan] = (),
    flows: Sequence[int] = (1,),
    flow_dist: str = "uniform",
    churn: float = 0.0,
    size_mix: str | None = None,
) -> CampaignSpec:
    """Cartesian campaign over the paper's axes.

    ``vnfs`` only applies to the loopback scenario; other scenarios get a
    single entry per (size, direction, seed) regardless of ``vnfs``.
    ``fault_plans`` adds a fault axis: every grid point is crossed with
    every plan (and the runs become ``kind='resilience'``).
    ``flows`` adds the flow-population axis (``repro.flows``): every grid
    point is crossed with every flow count, sharing one distribution/
    churn/size-mix configuration; ``flows=(1,)`` with defaults is the
    seed workload with unchanged cache keys.
    """
    if fault_plans and kind not in ("throughput", "resilience"):
        raise ValueError(f"fault_plans cannot combine with kind={kind!r}")
    plan_keys: tuple[tuple[tuple, ...], ...] = tuple(
        plan.to_keys() for plan in fault_plans if plan
    )
    if fault_plans and not plan_keys:
        raise ValueError("fault_plans given but every plan is empty")
    from repro.flows import flow_axis_items

    flow_extras = tuple(
        flow_axis_items(
            flows=count, flow_dist=flow_dist, churn=churn, size_mix=size_mix
        )
        for count in (flows or (1,))
    )
    runs: list[RunSpec] = []
    for switch in switches:
        for scenario in scenarios:
            chain_lengths: Iterable[int] = vnfs if scenario == "loopback" else (1,)
            for n in chain_lengths:
                for size in frame_sizes:
                    for bidi in directions:
                        for seed in seeds:
                            for faults in plan_keys or ((),):
                                for extra in flow_extras:
                                    runs.append(
                                        RunSpec(
                                            scenario=scenario,
                                            switch=switch,
                                            frame_size=size,
                                            bidirectional=bidi,
                                            n_vnfs=n,
                                            seed=seed,
                                            kind="resilience" if faults else kind,
                                            warmup_ns=warmup_ns,
                                            measure_ns=measure_ns,
                                            faults=faults,
                                            extra=extra,
                                        )
                                    )
    return CampaignSpec(name=name, runs=tuple(runs))


def runspec_from_experiment(
    experiment,
    switch: str,
    warmup_ns: float,
    measure_ns: float,
    seed: int,
) -> RunSpec | None:
    """Map a suite :class:`~repro.measure.suites.ExperimentSpec` to a RunSpec.

    Returns None when the experiment's builder is not one of the stock
    scenario modules (a custom callable cannot be named declaratively, so
    it cannot cross a process boundary or key a cache entry).
    """
    module = getattr(experiment.build, "__module__", "") or ""
    if not module.startswith("repro.scenarios."):
        return None
    scenario = module.rsplit(".", 1)[-1]
    if scenario not in SCENARIOS:
        return None
    kwargs = dict(experiment.kwargs)
    n_vnfs = kwargs.pop("n_vnfs", 1)
    return RunSpec(
        scenario=scenario,
        switch=switch,
        frame_size=experiment.frame_size,
        bidirectional=experiment.bidirectional,
        n_vnfs=n_vnfs,
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        extra=tuple(sorted(kwargs.items())),
    )


def from_suite(
    suite,
    switches: Sequence[str],
    seeds: Sequence[int] = (1,),
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
) -> CampaignSpec:
    """Expand a named :class:`~repro.measure.suites.TestSuite` (or its
    name) over switches and seed replicas."""
    if isinstance(suite, str):
        from repro.measure.suites import SUITES

        try:
            suite = SUITES[suite]
        except KeyError:
            raise KeyError(f"unknown suite {suite!r}; known: {sorted(SUITES)}") from None
    runs: list[RunSpec] = []
    for switch in switches:
        for experiment in suite.experiments:
            for seed in seeds:
                spec = runspec_from_experiment(experiment, switch, warmup_ns, measure_ns, seed)
                if spec is None:
                    raise ValueError(
                        f"experiment {experiment.name!r} uses a custom builder and "
                        "cannot be expressed as a campaign RunSpec"
                    )
                runs.append(spec)
    return CampaignSpec(name=f"suite:{suite.name}", runs=tuple(runs))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_run(spec: RunSpec) -> RunRecord:
    """Run one spec in-process and return its plain-data record.

    This is the only function that touches live simulator objects; both
    executors call it, so a spec+seed maps to exactly one result no
    matter where it runs.  A :class:`QemuCompatibilityError` is an
    *inapplicable* configuration (the paper's footnote 5), not a
    failure.
    """
    import time

    from repro.measure.runner import drive
    from repro.measure.throughput import measure_throughput
    from repro.scenarios import loopback, p2p, p2v, v2v
    from repro.vm.machine import QemuCompatibilityError

    builders = {"p2p": p2p.build, "p2v": p2v.build, "v2v": v2v.build, "loopback": loopback.build}
    started = time.monotonic()
    kwargs = dict(spec.extra)
    # Sanctioned fault-injection hook (tests, CI smoke): "error" poisons
    # this run; "worker-death" is handled one level up by the pool worker.
    if kwargs.pop("_inject", None) is not None:
        raise RuntimeError(f"injected fault in {spec.label}")
    if spec.scenario == "loopback":
        kwargs["n_vnfs"] = spec.n_vnfs
    if spec.trial:
        # Trial 0 never passes the kwarg, so the base run reaches the
        # builders with the exact pre-soundness signature (bit-identity).
        kwargs["trial"] = spec.trial
    observation = None
    resilience = None
    try:
        if spec.kind == "latency":
            tb = v2v.build_latency(spec.switch, frame_size=spec.frame_size, seed=spec.seed, **kwargs)
            observation = _observe_for_spec(tb, spec)
            result = drive(tb, warmup_ns=spec.warmup_ns, measure_ns=spec.measure_ns)
        elif spec.kind == "resilience":
            from repro.measure.resilience import (
                DEFAULT_BIN_NS,
                DEFAULT_EPSILON,
                measure_resilience,
            )

            result, report, observation = measure_resilience(
                builders[spec.scenario],
                spec.switch,
                spec.frame_size,
                spec.fault_plan,
                bidirectional=spec.bidirectional,
                epsilon=kwargs.pop("epsilon", DEFAULT_EPSILON),
                bin_ns=kwargs.pop("bin_ns", DEFAULT_BIN_NS),
                warmup_ns=spec.warmup_ns,
                measure_ns=spec.measure_ns,
                seed=spec.seed,
                observe_config=_obs_config_for_spec(spec),
                **kwargs,
            )
            resilience = report.to_dict()
        elif spec.obs:
            # Observed runs build the testbed here so probes attach before
            # the drive; measurements stay bit-identical to the unobserved
            # path (probes only read).
            tb = builders[spec.scenario](
                spec.switch,
                frame_size=spec.frame_size,
                bidirectional=spec.bidirectional,
                seed=spec.seed,
                **kwargs,
            )
            observation = _observe_for_spec(tb, spec)
            result = drive(
                tb,
                warmup_ns=spec.warmup_ns,
                measure_ns=spec.measure_ns,
                bidirectional=spec.bidirectional,
            )
        else:
            result = measure_throughput(
                builders[spec.scenario],
                spec.switch,
                spec.frame_size,
                bidirectional=spec.bidirectional,
                warmup_ns=spec.warmup_ns,
                measure_ns=spec.measure_ns,
                seed=spec.seed,
                **kwargs,
            )
    except QemuCompatibilityError as exc:
        return RunRecord(
            spec=spec,
            status="inapplicable",
            detail=f"qemu: {exc}",
            wall_clock_s=time.monotonic() - started,
        )

    metrics = None
    flowstats = None
    if observation is not None:
        observation.finish(result)
        metrics = observation.metrics_snapshot()
        # Flow telemetry is its own record column, not a metrics blob.
        flowstats = metrics.pop("flowstats", None)

    latency = result.latency
    has_latency = latency is not None and len(latency)
    mean_us = latency.mean_us if has_latency else None
    std_us = latency.std_us if has_latency else None
    if mean_us is not None and math.isnan(mean_us):
        mean_us = None
    if std_us is not None and math.isnan(std_us):
        std_us = None
    return RunRecord(
        spec=spec,
        status="ok",
        per_direction_gbps=list(result.per_direction_gbps),
        per_direction_mpps=list(result.per_direction_mpps),
        latency_mean_us=mean_us,
        latency_std_us=std_us,
        latency_samples=len(latency) if latency is not None else 0,
        events=result.events,
        duration_ns=result.duration_ns,
        wall_clock_s=time.monotonic() - started,
        metrics=metrics,
        resilience=resilience,
        flowstats=flowstats,
        warp=_warp_label(result),
    )


def _warp_label(result) -> str | None:
    """Compact record column for what the fast-forward engine did."""
    report = getattr(result, "warp", None)
    if report is None:
        return None
    if report.engaged:
        return report.mode
    return f"declined:{report.reason}"


def _obs_config_for_spec(spec: RunSpec):
    """The spec's ObsConfig, or None when it runs unobserved."""
    if not spec.obs:
        return None
    from repro.obs import ObsConfig

    config = ObsConfig.from_items(spec.obs)
    return config if config.enabled else None


def _observe_for_spec(tb, spec: RunSpec):
    """Attach an observation session when the spec asks for one."""
    config = _obs_config_for_spec(spec)
    if config is None:
        return None
    from repro.obs import observe

    return observe(tb, config)
