"""RFC 2544 Non-Drop-Rate search -- the methodology the paper rejects.

Footnote 3: "a binary search for the NDR is not suited for evaluating
software solutions as it may converge to unreliable points due to even a
single packet drop caused at the driver level."  This module implements
the classic binary search so that claim is testable: for jittery switches
the strict-NDR estimate sits far below the average forwarding rate R+
and varies wildly across seeds, while R+ (the paper's choice) is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.units import line_rate_pps
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, drive
from repro.scenarios.base import Testbed


@dataclass(frozen=True)
class NdrResult:
    """Outcome of an RFC 2544 binary search.

    Multi-trial searches (``ndr_search(trials=n)`` with n > 1, the
    percentile-PDR mode of ``repro.measure.soundness``) additionally
    carry the per-trial loss records at every visited rate and a
    bootstrap confidence interval for the NDR itself; single-trial
    searches leave those fields at their defaults.
    """

    switch: str
    frame_size: int
    ndr_pps: float
    loss_threshold: float
    iterations: int
    trials: tuple[tuple[float, float], ...]  # (offered_pps, loss_fraction)
    #: Trials per visited rate (1 = classic single-trial search).
    trials_per_point: int = 1
    #: Which loss percentile the search criterion used (None for n=1).
    loss_percentile: float | None = None
    #: (offered_pps, per-trial losses) for every visited rate (n > 1).
    trial_records: tuple[tuple[float, tuple[float, ...]], ...] = ()
    #: Bootstrap CI for the NDR over trial resamples (n > 1).
    ci: tuple[float, float] | None = None

    @property
    def ndr_mpps(self) -> float:
        return self.ndr_pps / 1e6


def measure_loss(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    rate_pps: float,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    seed: int = 1,
    trial: int = 0,
    **build_kwargs,
) -> float:
    """Loss fraction at one offered rate (received vs offered in-window).

    ``trial`` selects a soundness-trial replica; 0 never reaches the
    builder, so the single-trial path keeps the pre-soundness call
    signature exactly.
    """
    if trial:
        build_kwargs = dict(build_kwargs, trial=trial)
    tb = build(switch_name, frame_size=frame_size, rate_pps=rate_pps, seed=seed, **build_kwargs)
    result = drive(tb, warmup_ns=warmup_ns, measure_ns=measure_ns)
    received = result.mpps * 1e6
    offered = rate_pps
    if offered <= 0:
        return 0.0
    return max(0.0, 1.0 - received / offered)


def _bootstrap_ndr_ci(
    trial_records: list[tuple[float, tuple[float, ...]]],
    loss_threshold: float,
    tolerance_packets: float,
    measure_ns: float,
    loss_percentile: float,
    level: float,
    resamples: int,
) -> tuple[float, float]:
    """Bootstrap CI for a percentile-PDR NDR over trial resamples.

    Resamples trial *indices* (with replacement) and replays the carry
    decision at every visited rate: each resample's NDR is the highest
    visited rate whose resampled percentile loss stays under tolerance.
    Deterministic: the resampling RNG is seeded from a stable hash of
    the trial records themselves (see :mod:`repro.measure.soundness`).
    """
    from repro.measure.soundness import _values_rng, percentile

    n_trials = len(trial_records[0][1])
    key_values = [loss for _, losses in trial_records for loss in losses]
    rng = _values_rng("ndr-ci", key_values)
    indices = rng.integers(0, n_trials, size=(resamples, n_trials))
    ndrs = []
    for row in indices:
        best = 0.0
        for rate, losses in trial_records:
            loss = percentile([losses[i] for i in row], loss_percentile)
            allowance = tolerance_packets / (rate * measure_ns / 1e9)
            if loss <= loss_threshold + allowance and rate > best:
                best = rate
        ndrs.append(best)
    alpha = (1.0 - level) / 2.0
    return (
        percentile(ndrs, alpha * 100.0),
        percentile(ndrs, (1.0 - alpha) * 100.0),
    )


def ndr_search(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int = 64,
    loss_threshold: float = 0.0,
    tolerance_packets: float = 0.0,
    iterations: int = 10,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    seed: int = 1,
    trials: int = 1,
    loss_percentile: float = 50.0,
    ci_level: float = 0.95,
    bootstrap_resamples: int = 200,
    **build_kwargs,
) -> NdrResult:
    """RFC 2544 binary search for the highest rate with loss <= threshold.

    ``loss_threshold`` of 0.0 is the strict RFC 2544 criterion; small
    positive thresholds (e.g. 1e-3) give the "partial drop rate" variants
    used by CSIT.  ``tolerance_packets`` forgives that many packets of
    apparent loss per trial -- with the strict default of 0, measurement
    edge effects (batches straddling the window boundary) register as
    loss, which is precisely the non-determinism the paper's footnote 3
    blames for NDR's unreliability on software testbeds.

    ``trials > 1`` enables the percentile-PDR mode (PASTRAMI-style,
    ``repro.measure.soundness``): every visited rate is measured once
    per soundness trial and carries when the ``loss_percentile``-th
    percentile of its per-trial losses stays under tolerance, making the
    NDR a statement about the loss *distribution* instead of one lucky
    draw.  The result carries per-rate trial records plus a bootstrap CI
    for the NDR.  ``trials=1`` is the
    classic search, bit-identical to the pre-soundness implementation.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 <= loss_threshold < 1.0:
        raise ValueError("loss threshold must be in [0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= loss_percentile <= 100.0:
        raise ValueError("loss_percentile must be in [0, 100]")
    from repro.measure.soundness import percentile

    line = line_rate_pps(frame_size)
    visited: list[tuple[float, float]] = []
    trial_records: list[tuple[float, tuple[float, ...]]] = []

    def carries(rate: float) -> bool:
        # Trial 0 reaches the builder without a ``trial`` kwarg, and the
        # percentile of one loss is that loss.
        losses = tuple(
            measure_loss(
                build, switch_name, frame_size, rate,
                warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed,
                trial=k, **build_kwargs,
            )
            for k in range(trials)
        )
        loss = percentile(losses, loss_percentile)
        allowance = tolerance_packets / (rate * measure_ns / 1e9)
        visited.append((rate, loss))
        trial_records.append((rate, losses))
        return loss <= loss_threshold + allowance

    def refine(low: float, high: float, best: float, steps: int) -> float:
        for _ in range(steps):
            mid = (low + high) / 2
            if mid <= 0:
                break
            if carries(mid):
                best = mid
                low = mid
            else:
                high = mid
        return best

    best = refine(0.0, line, 0.0, iterations)
    ci = None
    if trials > 1 and trial_records:
        ci = _bootstrap_ndr_ci(
            trial_records, loss_threshold, tolerance_packets, measure_ns,
            loss_percentile, ci_level, bootstrap_resamples,
        )
    return NdrResult(
        switch=switch_name,
        frame_size=frame_size,
        ndr_pps=best,
        loss_threshold=loss_threshold,
        iterations=iterations,
        trials=tuple(visited),
        trials_per_point=trials,
        loss_percentile=loss_percentile if trials > 1 else None,
        trial_records=tuple(trial_records) if trials > 1 else (),
        ci=ci,
    )
