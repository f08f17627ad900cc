"""Latency methodology (Sec. 5.3).

RTT is measured with PTP probes injected into background traffic offered
at a *fraction* of R+: 0.10 (batch-formation effects), 0.50 (normal
load) and 0.99 (near-congestion).  R+ itself comes from the throughput
test (:func:`repro.measure.throughput.estimate_r_plus`).

Because the R+ run is exactly the unidirectional saturating-throughput
run a campaign would execute, :func:`latency_sweep` can reuse a
:class:`~repro.campaign.cache.ResultCache` entry instead of re-measuring:
pass ``cache=`` and the sweep keys the R+ run by the same
``(RunSpec, params fingerprint)`` hash the campaign machinery uses, so a
prior throughput campaign over the same grid point makes the estimate
free (and a miss populates the cache for the next caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.stats import LatencySample
from repro.measure.runner import DEFAULT_WARMUP_NS, drive
from repro.measure.throughput import estimate_r_plus
from repro.scenarios.base import Testbed

if TYPE_CHECKING:
    from repro.campaign.cache import ResultCache

#: The paper's load points.
LOAD_FRACTIONS = (0.10, 0.50, 0.99)

#: Latency windows are longer than throughput windows: at 0.10 R+ the
#: probe stream needs time to accumulate samples.
DEFAULT_LATENCY_MEASURE_NS = 4_000_000.0
DEFAULT_PROBE_INTERVAL_NS = 20_000.0


@dataclass
class LatencyPoint:
    """RTT statistics at one load fraction.

    Multi-trial sweeps (``latency_sweep(trials=n)``) keep the trial-0
    sample as the point estimate and attach the per-trial mean RTTs plus
    a :class:`~repro.measure.soundness.TrialSummary` dict; single-trial
    sweeps leave both fields at their defaults.
    """

    fraction: float
    offered_pps: float
    sample: LatencySample
    #: Per-trial mean RTTs in trial order (multi-trial sweeps only).
    trial_means_us: tuple[float, ...] = ()
    #: :meth:`repro.measure.soundness.TrialSummary.to_dict` over the
    #: trial means (multi-trial sweeps only).
    trials: dict | None = None

    @property
    def mean_us(self) -> float:
        return self.sample.mean_us

    @property
    def std_us(self) -> float:
        return self.sample.std_us


def measure_latency_at(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    rate_pps: float,
    fraction: float,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_LATENCY_MEASURE_NS,
    probe_interval_ns: float = DEFAULT_PROBE_INTERVAL_NS,
    seed: int = 1,
    trial: int = 0,
    **build_kwargs,
) -> LatencyPoint:
    """RTT at one offered load (probes woven into background traffic)."""
    if trial:
        build_kwargs = dict(build_kwargs, trial=trial)
    tb = build(
        switch_name,
        frame_size=frame_size,
        rate_pps=rate_pps,
        probe_interval_ns=probe_interval_ns,
        seed=seed,
        **build_kwargs,
    )
    result = drive(tb, warmup_ns=warmup_ns, measure_ns=measure_ns)
    sample = result.latency if result.latency is not None else LatencySample()
    return LatencyPoint(fraction=fraction, offered_pps=rate_pps, sample=sample)


def cached_r_plus(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    cache: "ResultCache",
    seed: int = 1,
    **build_kwargs,
) -> float:
    """R+ in pps, served from (and stored to) a campaign result cache.

    The R+ run *is* the unidirectional saturating-throughput run, so its
    cache key is the ordinary campaign key for that grid point: a prior
    throughput campaign supplies the number for free, and a miss executes
    the run through :func:`repro.campaign.spec.execute_run` (the same
    choke point campaigns use) and persists the record.
    """
    from repro.campaign.spec import runspec_for_build

    try:
        spec = runspec_for_build(build, switch_name, frame_size, build_kwargs, seed=seed)
    except (TypeError, ValueError):
        # Kwargs a RunSpec cannot carry: measure instead of sharing a key.
        spec = None
    if spec is None:
        return estimate_r_plus(
            build, switch_name, frame_size, seed=seed, **build_kwargs
        )
    record = cache.get(spec)
    if record is None or not record.ok:
        from repro.campaign.spec import execute_run

        record = execute_run(spec)
        if record.ok:
            cache.put(spec, record)
    return record.mpps * 1e6


def latency_sweep(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int = 64,
    fractions: tuple[float, ...] = LOAD_FRACTIONS,
    r_plus_pps: float | None = None,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_LATENCY_MEASURE_NS,
    probe_interval_ns: float = DEFAULT_PROBE_INTERVAL_NS,
    seed: int = 1,
    cache: "ResultCache | None" = None,
    trials: int = 1,
    **build_kwargs,
) -> dict[float, LatencyPoint]:
    """The Table 3 per-switch procedure: estimate R+, probe at fractions.

    ``cache`` (a :class:`~repro.campaign.cache.ResultCache`) lets the R+
    estimate reuse a cached campaign throughput record for the same grid
    point instead of re-driving the saturating run.

    ``trials > 1`` measures every load fraction once per soundness trial
    (``repro.measure.soundness``): the returned point keeps the trial-0
    sample (bit-identical to a single-trial sweep) and carries the
    per-trial mean RTTs plus their :class:`TrialSummary` dict.  R+ is
    estimated once, at trial 0 -- the load grid must be common to all
    trials or their RTTs are not comparable.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r_plus_pps is None:
        if cache is not None:
            r_plus_pps = cached_r_plus(
                build, switch_name, frame_size, cache, seed=seed, **build_kwargs
            )
        else:
            r_plus_pps = estimate_r_plus(
                build, switch_name, frame_size, seed=seed, **build_kwargs
            )
    points = {}
    for fraction in fractions:
        point = measure_latency_at(
            build,
            switch_name,
            frame_size,
            rate_pps=max(1.0, fraction * r_plus_pps),
            fraction=fraction,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            probe_interval_ns=probe_interval_ns,
            seed=seed,
            **build_kwargs,
        )
        if trials > 1:
            from repro.measure.soundness import summarize_trials

            means = [point.mean_us]
            for k in range(1, trials):
                replica = measure_latency_at(
                    build,
                    switch_name,
                    frame_size,
                    rate_pps=max(1.0, fraction * r_plus_pps),
                    fraction=fraction,
                    warmup_ns=warmup_ns,
                    measure_ns=measure_ns,
                    probe_interval_ns=probe_interval_ns,
                    seed=seed,
                    trial=k,
                    **build_kwargs,
                )
                means.append(replica.mean_us)
            point.trial_means_us = tuple(means)
            finite = [m for m in means if not math.isnan(m)]
            if finite:
                point.trials = summarize_trials(
                    finite, metric="latency_mean_us"
                ).to_dict()
        points[fraction] = point
    return points
