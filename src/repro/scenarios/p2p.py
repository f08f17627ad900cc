"""p2p (physical-to-physical) scenario -- Fig. 2a / Fig. 3a.

MoonGen on NUMA node 1 saturates one (or both) 10 Gbps wires; the SUT on
node 0 forwards between its two physical ports; throughput is counted at
MoonGen's receive port(s), RTT from hardware-timestamped PTP probes.
"""

from __future__ import annotations

from repro.nic.port import NicPort
from repro.scenarios.base import (
    Testbed,
    apply_flow_axis,
    connect_ports,
    flow_source_kwargs,
    new_testbed_parts,
    trial_axis,
)
from repro.traffic.moongen import MoonGenRx, MoonGenTx, saturating_rate


def build(
    switch_name: str,
    frame_size: int = 64,
    bidirectional: bool = False,
    rate_pps: float | None = None,
    probe_interval_ns: float | None = None,
    seed: int = 1,
    flows: int = 1,
    flow_dist: str = "uniform",
    churn: float = 0.0,
    size_mix: str | None = None,
    trial: int = 0,
) -> Testbed:
    """Wire the p2p testbed for one switch.

    ``rate_pps`` is the offered load per direction; None means saturating
    input (the throughput methodology).  ``probe_interval_ns`` enables
    PTP latency probes (the latency methodology).  ``trial`` selects a
    soundness-trial replica (``repro.measure.soundness``): same workload,
    perturbed traffic phase / driver-drop schedule / churn clock.
    """
    sim, machine, rngs, switch, sut_core = new_testbed_parts(switch_name, seed)

    # NUMA node 1: the generator NIC; node 0: the SUT NIC (Fig. 3a).
    gen0 = NicPort(sim, "gen-nic.p0")
    gen1 = NicPort(sim, "gen-nic.p1")
    sut0 = NicPort(sim, "sut-nic.p0")
    sut1 = NicPort(sim, "sut-nic.p1")
    connect_ports(gen0, sut0)
    connect_ports(gen1, sut1)

    att0 = switch.attach_phy(sut0)
    att1 = switch.attach_phy(sut1)
    switch.add_path(att0, att1)
    if bidirectional:
        switch.add_path(att1, att0)
    switch.bind_core(sut_core)

    rate = rate_pps if rate_pps is not None else saturating_rate(frame_size)
    tb = Testbed(sim, machine, rngs, switch, sut_core, frame_size, scenario="p2p")
    apply_flow_axis(tb, flows=flows, flow_dist=flow_dist, churn=churn, size_mix=size_mix)
    perturb = trial_axis(tb, trial)
    perturb.salt_ports(gen0, gen1, sut0, sut1)

    tx0 = MoonGenTx(
        sim, gen0, rate, frame_size, probe_interval_ns=probe_interval_ns,
        **flow_source_kwargs(tb, "tx0"),
    )
    rx1 = MoonGenRx(sim, gen1, frame_size)
    tx0.start(perturb.phase_ns())
    tb.meters.append(rx1.meter)
    tb.latency_meters.append(rx1.meter)
    tb.extras.update(gen_ports=(gen0, gen1), sut_ports=(sut0, sut1), tx=[tx0], rx=[rx1])

    if bidirectional:
        tx1 = MoonGenTx(
            sim, gen1, rate, frame_size, probe_interval_ns=probe_interval_ns,
            **flow_source_kwargs(tb, "tx1"),
        )
        rx0 = MoonGenRx(sim, gen0, frame_size)
        tx1.start(perturb.phase_ns())
        tb.meters.append(rx0.meter)
        tb.latency_meters.append(rx0.meter)
        tb.extras["tx"].append(tx1)
        tb.extras["rx"].append(rx0)
    return tb
