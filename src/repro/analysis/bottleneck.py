"""Closed-form capacity model.

The single-core methodology makes throughput predictable: a switch
forwarding over hops with per-packet cycle costs c_1..c_k on one core of
frequency f sustains at most f / sum(c_i) packets per second, further
clipped by the 10 Gbps wire (scenarios with NICs) and the generator's
ceiling.  This module evaluates that bound from the same
:class:`~repro.switches.params.SwitchParams` the simulator uses -- an
independent implementation that tests compare against the discrete-event
results (they must agree within queueing noise), and that the ablation
benches use for fast parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.cores import DEFAULT_FREQ_HZ
from repro.switches.params import SwitchParams
from repro.switches.registry import params_for
from repro.switches.taxonomy import TAXONOMY
from repro.core.units import line_rate_pps, pps_to_gbps


@dataclass(frozen=True)
class CapacityEstimate:
    """Predicted sustained rate for one scenario configuration."""

    switch: str
    scenario: str
    frame_size: int
    bidirectional: bool
    core_capacity_pps: float
    offered_pps: float
    predicted_pps: float

    @property
    def predicted_gbps(self) -> float:
        return pps_to_gbps(self.predicted_pps, self.frame_size)


def _hop_stage_costs(
    params: SwitchParams, kind: str, frame_size: int, bidir: bool
) -> tuple[float, float, float]:
    """Per-packet (rx, proc, tx) cycles for one forwarding hop of a given kind."""
    batch = params.batch_size
    proc = params.proc.cycles_per_packet(frame_size, batch)
    nic_rx = params.nic_rx.cycles_per_packet(frame_size, batch)
    nic_tx = params.nic_tx.cycles_per_packet(frame_size, batch)
    vif_tx = params.vif_costs.host_tx.cycles_per_packet(frame_size, batch)
    vif_rx = params.vif_costs.host_rx.cycles_per_packet(frame_size, batch)
    if bidir:
        vif_tx *= params.bidir_vif_penalty
        vif_rx *= params.bidir_vif_penalty
    if kind == "p2p":
        return nic_rx, proc, nic_tx
    if kind == "p2v":
        return nic_rx, proc, vif_tx
    if kind == "v2p":
        return vif_rx, proc, nic_tx
    if kind == "v2v":
        return vif_rx, proc, vif_tx
    raise ValueError(f"unknown hop kind {kind!r}")


def _thrash(params: SwitchParams, attachments: int) -> float:
    if params.thrash_attachments is not None and attachments >= params.thrash_attachments:
        return params.thrash_factor
    return 1.0


def _scenario_hops(scenario: str, n_vnfs: int) -> tuple[list[str], int]:
    """Hop kinds along one direction, plus attachment count."""
    if scenario == "p2p":
        return ["p2p"], 2
    if scenario == "p2v":
        return ["p2v"], 2
    if scenario == "v2v":
        return ["v2v"], 2
    if scenario == "loopback":
        hops = ["p2v"] + ["v2v"] * (n_vnfs - 1) + ["v2p"]
        return hops, 2 + 2 * n_vnfs
    raise ValueError(f"unknown scenario {scenario!r}")


#: Stage keys of :func:`stage_breakdown`, matching the observed profiler's
#: :data:`repro.obs.profiler.STAGES`.
STAGES = ("rx", "proc", "tx", "overhead")


def stage_breakdown(
    switch_name: str,
    scenario: str,
    frame_size: int = 64,
    bidirectional: bool = False,
    n_vnfs: int = 1,
    params: SwitchParams | None = None,
) -> dict[str, float]:
    """Closed-form per-stage cycles/packet along one direction of the chain.

    The counterpart of the observed
    :meth:`repro.obs.profiler.ProfileReport.chain_cycles_per_packet`:
    ``rx``/``proc``/``tx`` are the raw attachment + switching costs summed
    over the chain's hops, and ``overhead`` holds everything the stability
    model layers on top -- pipeline app overhead (amortised over a full
    batch) and the thrash-cliff inflation -- mirroring how the profiler
    attributes the (jittered - raw) residue.  ``sum(values())`` is exactly
    the per-packet cost :func:`estimate` divides the core frequency by.

    Note the observed report for a *bidirectional* run sums both symmetric
    directions; this returns one direction (halve the observed figures, or
    compare per-path, when diffing bidirectional runs).
    """
    if params is None:
        params = params_for(switch_name)
    hops, attachments = _scenario_hops(scenario, n_vnfs)
    stages = {stage: 0.0 for stage in STAGES}
    for hop in hops:
        rx, proc, tx = _hop_stage_costs(params, hop, frame_size, bidirectional)
        stages["rx"] += rx
        stages["proc"] += proc
        stages["tx"] += tx
        if params.pipeline:
            stages["overhead"] += params.app_overhead_cycles / max(1, params.batch_size)
    thrash = _thrash(params, attachments)
    if thrash != 1.0:
        stages["overhead"] += (thrash - 1.0) * sum(stages.values())
    return stages


def diff_attribution(
    observed: dict[str, float], predicted: dict[str, float]
) -> dict[str, dict[str, float]]:
    """Diff an observed cycles/packet breakdown against the closed form.

    Both arguments map stage name -> cycles/packet (e.g. the observed
    :meth:`~repro.obs.profiler.ProfileReport.chain_cycles_per_packet` and
    :func:`stage_breakdown`).  Returns, per stage plus a ``"total"`` row:
    ``observed``, ``predicted``, ``delta`` (observed - predicted) and
    ``ratio`` (observed / predicted; ``inf`` when predicting zero but
    observing some, 1.0 when both are zero).
    """
    def row(obs: float, pred: float) -> dict[str, float]:
        if pred:
            ratio = obs / pred
        else:
            ratio = 1.0 if not obs else float("inf")
        return {"observed": obs, "predicted": pred, "delta": obs - pred, "ratio": ratio}

    seen = set(observed) | set(predicted)
    ordered = [s for s in STAGES if s in seen] + sorted(seen - set(STAGES))
    out = {
        stage: row(observed.get(stage, 0.0), predicted.get(stage, 0.0))
        for stage in ordered
    }
    out["total"] = row(sum(observed.values()), sum(predicted.values()))
    return out


def estimate(
    switch_name: str,
    scenario: str,
    frame_size: int = 64,
    bidirectional: bool = False,
    n_vnfs: int = 1,
    offered_pps: float | None = None,
    freq_hz: float = DEFAULT_FREQ_HZ,
    params: SwitchParams | None = None,
) -> CapacityEstimate:
    """Bottleneck throughput prediction for one configuration.

    For bidirectional runs the estimate is the *aggregate* over both
    directions (the paper's reporting convention).
    """
    if params is None:
        params = params_for(switch_name)
    _, attachments = _scenario_hops(scenario, n_vnfs)
    stages = stage_breakdown(
        switch_name, scenario, frame_size, bidirectional, n_vnfs, params=params
    )
    per_packet = sum(stages.values())
    core_capacity = freq_hz / per_packet  # pps through the whole chain

    line = line_rate_pps(frame_size)
    if offered_pps is None:
        if scenario == "v2v" and TAXONOMY[switch_name].virtual_interface == "ptnet":
            # pkt-gen over ptnet is not bound to a 10G vNIC.
            offered_pps = 60e6
        else:
            offered_pps = line
    directions = 2 if bidirectional else 1
    demand = offered_pps * directions
    predicted = min(demand, core_capacity)
    if scenario != "v2v":
        predicted = min(predicted, line * directions)
    return CapacityEstimate(
        switch=params.name,
        scenario=scenario,
        frame_size=frame_size,
        bidirectional=bidirectional,
        core_capacity_pps=core_capacity,
        offered_pps=offered_pps,
        predicted_pps=predicted,
    )
