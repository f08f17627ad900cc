"""Statistical soundness layer: multi-trial measurement methodology.

PASTRAMI (Brun et al., see PAPERS.md) shows software-switch throughput
is unstable enough that single-trial NDR values are unsound.  This
module supplies the machinery that turns the simulator's point estimates
into defensible statistics:

- :func:`bootstrap_ci` -- deterministic percentile-bootstrap confidence
  interval for the mean of a small trial sample;
- :func:`classify_trials` -- the instability taxonomy (``stable`` /
  ``bimodal`` / ``drifting`` / ``inconclusive``), each verdict paired
  with a stable, documented reason string;
- :class:`TrialSummary` -- the (n, mean, p5/p50/p95, CI, verdict) record
  persisted into :class:`~repro.campaign.spec.RunRecord`, CSV exports,
  BENCH_*.json and Prometheus;
- :func:`run_trial_campaign` -- the repeat scheduler: runs trials per
  grid point through the ordinary campaign executor (parallel, cached,
  resumable), early-stops a point once its CI half-width converges below
  the policy target, and quarantines points the classifier refuses to
  average.

Trials are genuine re-measurements, not reseeds: each trial ``k > 0``
perturbs the base run through dedicated ``trial.*`` RNG streams (traffic
phase, driver-drop schedule salt, churn offset -- see
:func:`repro.scenarios.base.trial_axis`) while keeping the workload
definition identical.  Trial 0 is the unperturbed base run, bit-identical
to a single-trial measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.rng import _stable_hash

#: Seed policies a repeat axis may use.  ``trial`` keeps the workload
#: fixed and perturbs only measurement-irrelevant phases (sound repeats);
#: ``reseed`` re-derives every RNG stream from ``seed + k`` (the legacy
#: behaviour, which changes the workload itself).
SEED_POLICIES = ("trial", "reseed")

VERDICTS = ("stable", "bimodal", "drifting", "inconclusive")


@dataclass(frozen=True)
class TrialPolicy:
    """How many trials to run and when to stop or quarantine."""

    n_min: int = 3
    n_max: int = 10
    ci_level: float = 0.95
    #: Converged when the CI half-width is below this fraction of |mean|.
    rel_ci_target: float = 0.05
    bootstrap_resamples: int = 300
    seed_policy: str = "trial"
    #: Coefficient of variation at or below which a sample is ``stable``.
    cv_stable: float = 0.05
    #: A sorted sample splits into two clusters when the largest gap
    #: exceeds this multiple of the larger intra-cluster spread.
    bimodal_gap: float = 4.0
    #: Drifting when the fitted total drift exceeds this multiple of the
    #: residual standard deviation.
    drift_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(
                f"unknown seed policy {self.seed_policy!r}; known: {SEED_POLICIES}"
            )


DEFAULT_POLICY = TrialPolicy()


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method), pure."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * (p / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def _values_rng(tag: str, values: Sequence[float]) -> np.random.Generator:
    """Deterministic bootstrap generator keyed by the sample itself.

    Re-running the same trials yields the same interval; no global RNG
    state is consumed (bootstrap must never perturb simulation streams).
    """
    key = tag + ":" + ",".join(f"{v:.12e}" for v in values)
    return np.random.default_rng(np.random.SeedSequence(_stable_hash(key)))


def bootstrap_ci(
    values: Sequence[float],
    level: float = 0.95,
    resamples: int = 300,
) -> tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``.

    Small-n friendly (no normality assumption) and deterministic: the
    resampling RNG is seeded from a stable hash of the sample, so the
    interval is a pure function of the data.  A single-value sample
    degenerates to a zero-width interval at that value.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("bootstrap_ci of an empty sample")
    if len(data) == 1 or max(data) == min(data):
        return (data[0], data[0])
    rng = _values_rng("bootstrap", data)
    arr = np.asarray(data)
    indices = rng.integers(0, len(arr), size=(resamples, len(arr)))
    means = arr[indices].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(low), float(high))


def classify_trials(
    values: Sequence[float], policy: TrialPolicy = DEFAULT_POLICY
) -> tuple[str, str]:
    """(verdict, reason) for a trial sample.

    Verdicts, checked in order (each reason string is stable -- tests and
    quarantine reports match on them):

    - ``inconclusive`` -- fewer than 3 trials, or any non-finite value:
      not enough evidence to call the point anything.
    - ``stable`` -- coefficient of variation <= ``cv_stable`` (or an
      exactly constant sample).  Checked *before* the structure tests:
      simulated rates are quantised to whole batches per window, so two
      adjacent quanta form textbook "clusters" with zero intra-cluster
      spread -- but when the whole sample sits within the stability
      band, averaging is sound and micro-structure is noise.
    - ``bimodal`` -- the sorted sample splits into two separated clusters
      (largest gap > ``bimodal_gap`` x the larger intra-cluster spread,
      both clusters with >= 2 members).  Averaging would report a rate
      the switch never actually sustains.
    - ``drifting`` -- a least-squares trend over the trial index explains
      more than ``drift_ratio`` x the residual spread: the point moves
      with time (warm-up leak, cache pollution), so the mean depends on
      when you stop.
    - ``inconclusive`` -- everything else: too noisy to certify stable,
      no structure to blame.
    """
    data = [float(v) for v in values]
    if len(data) < 3:
        return ("inconclusive", f"n={len(data)} < 3 trials")
    if any(not math.isfinite(v) for v in data):
        return ("inconclusive", "non-finite trial values")
    mean = sum(data) / len(data)
    var = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
    std = math.sqrt(var)
    if std == 0.0:
        return ("stable", "zero variance across trials")
    cv = std / abs(mean) if mean else math.inf
    if cv <= policy.cv_stable:
        return ("stable", f"cv={cv:.4f} <= {policy.cv_stable:g}")

    # Bimodality: largest gap in the sorted sample vs intra-cluster spread.
    ordered = sorted(data)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    split = max(range(len(gaps)), key=gaps.__getitem__)
    gap = gaps[split]
    lower, upper = ordered[: split + 1], ordered[split + 1 :]
    if len(lower) >= 2 and len(upper) >= 2:
        spread = max(lower[-1] - lower[0], upper[-1] - upper[0])
        if gap > policy.bimodal_gap * max(spread, 1e-12 * abs(mean), 1e-300):
            return (
                "bimodal",
                f"two clusters separated by {gap:.4g} "
                f"({len(lower)}+{len(upper)} trials)",
            )

    # Drift: least-squares slope over trial index vs residual spread.
    n = len(data)
    xs = range(n)
    x_mean = (n - 1) / 2.0
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (v - mean) for x, v in zip(xs, data)) / sxx
    residuals = [v - (mean + slope * (x - x_mean)) for x, v in zip(xs, data)]
    resid_std = math.sqrt(sum(r * r for r in residuals) / max(n - 2, 1))
    total_drift = abs(slope) * (n - 1)
    if total_drift > policy.drift_ratio * max(resid_std, 1e-12 * abs(mean), 1e-300):
        return (
            "drifting",
            f"monotone trend {total_drift:.4g} over {n} trials "
            f"exceeds {policy.drift_ratio:g}x residual spread",
        )

    return ("inconclusive", f"cv={cv:.4f} > {policy.cv_stable:g}, no structure")


@dataclass(frozen=True)
class TrialSummary:
    """The statistics a multi-trial point persists alongside its mean."""

    metric: str
    n: int
    mean: float
    std: float
    cv: float
    p5: float
    p50: float
    p95: float
    ci_low: float
    ci_high: float
    ci_level: float
    verdict: str
    reason: str
    values: tuple[float, ...] = ()

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def rel_half_width(self) -> float:
        """CI half-width as a fraction of |mean| (inf for a zero mean)."""
        if self.mean == 0.0:
            return 0.0 if self.half_width == 0.0 else math.inf
        return self.half_width / abs(self.mean)

    def converged(self, policy: TrialPolicy = DEFAULT_POLICY) -> bool:
        return self.n >= policy.n_min and self.rel_half_width <= policy.rel_ci_target

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "cv": self.cv,
            "p5": self.p5,
            "p50": self.p50,
            "p95": self.p95,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_level": self.ci_level,
            "verdict": self.verdict,
            "reason": self.reason,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSummary":
        payload = dict(data)
        payload["values"] = tuple(payload.get("values", ()))
        return cls(**payload)


def summarize_trials(
    values: Sequence[float],
    policy: TrialPolicy = DEFAULT_POLICY,
    metric: str = "gbps",
) -> TrialSummary:
    """Summarise a trial sample into a :class:`TrialSummary`."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("summarize_trials of an empty sample")
    n = len(data)
    # The true mean lies in [min, max]; float summation can round just
    # outside (e.g. sum([1.9]*3)/3 < 1.9), so clamp it back in.
    mean = min(max(sum(data) / n, min(data)), max(data))
    var = sum((v - mean) ** 2 for v in data) / (n - 1) if n > 1 else 0.0
    std = math.sqrt(var)
    cv = std / abs(mean) if mean else (0.0 if std == 0.0 else math.inf)
    ci_low, ci_high = bootstrap_ci(
        data, level=policy.ci_level, resamples=policy.bootstrap_resamples
    )
    verdict, reason = classify_trials(data, policy)
    return TrialSummary(
        metric=metric,
        n=n,
        mean=mean,
        std=std,
        cv=cv,
        p5=percentile(data, 5.0),
        p50=percentile(data, 50.0),
        p95=percentile(data, 95.0),
        ci_low=ci_low,
        ci_high=ci_high,
        ci_level=policy.ci_level,
        verdict=verdict,
        reason=reason,
        values=tuple(data),
    )


# ---------------------------------------------------------------------------
# Repeat scheduler
# ---------------------------------------------------------------------------

def trial_specs(spec, n: int, seed_policy: str = "trial") -> list:
    """The ``n`` per-trial RunSpecs for a base spec under a seed policy."""
    if seed_policy not in SEED_POLICIES:
        raise ValueError(
            f"unknown seed policy {seed_policy!r}; known: {SEED_POLICIES}"
        )
    if seed_policy == "reseed":
        return [replace(spec, seed=spec.seed + k) for k in range(n)]
    return [spec if k == 0 else replace(spec, trial=k) for k in range(n)]


def _metric_name(spec) -> str:
    return "latency_mean_us" if spec.kind == "latency" else "gbps"


def _metric_of(record, name: str) -> float:
    value = getattr(record, name)
    return math.nan if value is None else float(value)


@dataclass
class TrialPoint:
    """One grid point's multi-trial outcome."""

    spec: object  # base RunSpec (trial 0)
    status: str = "ok"  # "ok" | "quarantined" | "failed" | "inapplicable"
    records: list = field(default_factory=list)  # per-trial RunRecords, in order
    failures: list = field(default_factory=list)  # RunFailures, if any
    summary: TrialSummary | None = None
    reason: str = ""

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def quarantined(self) -> bool:
        return self.status == "quarantined"


@dataclass
class TrialCampaignResult:
    """All points of a repeat-scheduled campaign."""

    name: str
    points: list[TrialPoint] = field(default_factory=list)
    policy: TrialPolicy = DEFAULT_POLICY

    @property
    def quarantined(self) -> list[TrialPoint]:
        return [p for p in self.points if p.quarantined]

    @property
    def failures(self) -> list:
        return [f for p in self.points for f in p.failures]

    @property
    def outcomes(self) -> list:
        """(key, outcome) pairs for every trial, CSV-export ready."""
        from repro.campaign.cache import run_key

        pairs = []
        for point in self.points:
            for record in point.records:
                pairs.append((run_key(record.spec), record))
            for failure in point.failures:
                pairs.append((run_key(failure.spec), failure))
        return pairs

    def summary_dict(self) -> dict:
        """{label: trial summary + status} -- the trial-summary artifact."""
        out = {}
        for point in self.points:
            entry: dict = {"status": point.status, "reason": point.reason}
            if point.summary is not None:
                entry.update(point.summary.to_dict())
            out[point.label] = entry
        return out


class _RoundProgress:
    """Adapter handed to the inner :func:`run_campaign` calls.

    The executor clobbers ``progress.total`` and calls ``start()`` on
    every invocation; the scheduler owns the real totals (one unit per
    *potential* trial, retired on early convergence), so this proxy
    forwards only per-run ``update`` events to the outer reporter.
    """

    def __init__(self, outer) -> None:
        self._outer = outer
        self.total = 0  # written (and ignored) by run_campaign

    def start(self) -> None:
        pass

    def update(self, outcome, source: str = "executed") -> None:
        if self._outer is not None:
            self._outer.update(outcome, source=source)


def run_trial_campaign(
    runs,
    policy: TrialPolicy = DEFAULT_POLICY,
    name: str = "trials",
    workers: int = 1,
    cache=None,
    store=None,
    progress=None,
    timeout_s: float | None = None,
) -> TrialCampaignResult:
    """Run each base spec ``n_min``..``n_max`` trials with early stopping.

    Round-based: the first round runs ``n_min`` trials for every point
    through the ordinary campaign executor (so trials are embarrassingly
    parallel across the worker pool and individually result-cached per
    trial spec); each later round adds one trial to every point whose CI
    has not yet converged.  A point stops as soon as
    :meth:`TrialSummary.converged` holds -- its unused trial budget is
    retired from the progress total so the ETA shrinks -- and a point
    still unstable at ``n_max`` is quarantined with the classifier's
    reason instead of being silently averaged.

    Each point's final summary is attached to its first trial record
    (``record.trials``) and, when a ``store`` is given, re-appended so
    the JSONL log's later-lines-win rule updates the stored record in
    place.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, RunFailure, RunRecord

    base_specs = list(runs)
    points = [TrialPoint(spec=spec) for spec in base_specs]
    if progress is not None:
        progress.total = len(points) * policy.n_max
        progress.start()
    inner_progress = _RoundProgress(progress)

    active: dict[int, int] = {i: policy.n_min for i in range(len(points))}
    done: dict[int, int] = {i: 0 for i in range(len(points))}

    def retire(index: int) -> None:
        unused = policy.n_max - done[index]
        if progress is not None and unused > 0:
            progress.retire(unused)

    while active:
        batch: list[tuple[int, object]] = []
        for index, target in active.items():
            point = points[index]
            specs = trial_specs(point.spec, target, policy.seed_policy)
            for spec in specs[done[index]:]:
                batch.append((index, spec))
        campaign = CampaignSpec(
            name=name, runs=tuple(spec for _, spec in batch)
        )
        result = run_campaign(
            campaign,
            workers=workers,
            cache=cache,
            store=store,
            progress=inner_progress,
            timeout_s=timeout_s,
        )
        for index, spec in batch:
            outcome = result.outcome_for(spec)
            point = points[index]
            done[index] += 1
            if isinstance(outcome, RunFailure) or outcome is None:
                if outcome is not None:
                    point.failures.append(outcome)
                point.status = "failed"
                point.reason = (
                    f"trial failed: {outcome.error}: {outcome.message}"
                    if outcome is not None
                    else "trial produced no outcome"
                )
            elif outcome.status == "inapplicable":
                point.records.append(outcome)
                point.status = "inapplicable"
                point.reason = outcome.detail
            else:
                point.records.append(outcome)

        next_active: dict[int, int] = {}
        for index in active:
            point = points[index]
            if point.status in ("failed", "inapplicable"):
                retire(index)
                continue
            metric = _metric_name(point.spec)
            values = [_metric_of(r, metric) for r in point.records]
            point.summary = summarize_trials(values, policy, metric=metric)
            # Early stop needs *both* a converged CI and a stable verdict:
            # a bimodal or drifting sample can have a deceptively tight
            # interval, and stopping there would launder instability
            # through the mean.
            if point.summary.converged(policy) and point.summary.verdict == "stable":
                point.status = "ok"
                retire(index)
            elif done[index] >= policy.n_max:
                verdict = point.summary.verdict
                if verdict == "stable":
                    # Stable shape but a CI wider than the target: report
                    # it, don't hide it -- the summary carries the width.
                    point.status = "ok"
                    point.reason = "stable but CI wider than target"
                else:
                    point.status = "quarantined"
                    point.reason = point.summary.reason
            else:
                next_active[index] = done[index] + 1
        active = next_active

    # Attach each point's summary to its first trial record and update
    # the store in place (JSONL later-lines-win).
    from repro.campaign.cache import run_key

    for point in points:
        if point.summary is None or not point.records:
            continue
        first = point.records[0]
        if isinstance(first, RunRecord):
            payload = point.summary.to_dict()
            payload["status"] = point.status
            if point.reason:
                payload["reason"] = point.reason
            first.trials = payload
            if store is not None:
                store.append(run_key(first.spec), first)

    return TrialCampaignResult(name=name, points=points, policy=policy)
