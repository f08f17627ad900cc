"""Scenario plumbing shared by p2p / p2v / v2v / loopback builders.

A *scenario builder* assembles the full testbed of Fig. 3 for one switch:
the dual-NUMA machine, NICs and back-to-back wires, the switch pinned to
one core on node 0, VMs with the right virtual-interface backend and
guest tools (pkt-gen for VALE, MoonGen/FloWatcher for the rest), and the
traffic generators.  It returns a :class:`Testbed` the measurement runner
drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import Simulator
from repro.core.rng import RngRegistry
from repro.core.stats import RateMeter
from repro.cpu.cores import Core
from repro.cpu.numa import Machine
from repro.nic.port import NicPort
from repro.switches.base import SoftwareSwitch
from repro.switches.registry import create_switch, params_for
from repro.switches.taxonomy import TAXONOMY
from repro.vif.ptnet import make_ptnet_interface
from repro.vif.vhost_user import make_vhost_user_interface
from repro.vif.virtio import VirtualInterface
from repro.vm.machine import Hypervisor, VirtualMachine


@dataclass
class Testbed:
    """A fully wired scenario, ready for the measurement runner."""

    __test__ = False  # not a pytest test class despite the Test* name

    sim: Simulator
    machine: Machine
    rngs: RngRegistry
    switch: SoftwareSwitch
    sut_core: Core
    frame_size: int
    scenario: str
    #: meters counting delivered traffic, one per traffic direction.
    meters: list[RateMeter] = field(default_factory=list)
    #: meters that additionally collect probe RTTs.
    latency_meters: list[RateMeter] = field(default_factory=list)
    vms: list[VirtualMachine] = field(default_factory=list)
    #: scenario-specific objects (NIC ports, guest apps...) for tests.
    extras: dict[str, Any] = field(default_factory=dict)


def new_testbed_parts(switch_name: str, seed: int) -> tuple[Simulator, Machine, RngRegistry, SoftwareSwitch, Core]:
    """Simulator + machine + switch pinned to the node-0 SUT core."""
    sim = Simulator()
    machine = Machine(sim)
    rngs = RngRegistry(seed)
    switch = create_switch(switch_name, sim, rngs=rngs, bus=machine.node0.bus)
    sut_core = machine.node0.add_core("sut")
    return sim, machine, rngs, switch, sut_core


def uses_ptnet(switch_name: str) -> bool:
    """Whether this switch connects VMs via ptnet (VALE) or vhost-user.

    Built-ins are answered from the Table 1 taxonomy; custom registered
    switches from their cost contract (zero host copies == ptnet-style).
    """
    row = TAXONOMY.get(switch_name)
    if row is not None:
        return row.virtual_interface == "ptnet"
    return params_for(switch_name).vif_costs.host_copy_factor == 0.0


def make_guest_interface(
    switch_name: str,
    machine: Machine,
    name: str,
    virtualization: str = "vm",
) -> VirtualInterface:
    """Create the right backend of guest interface for a switch.

    ``virtualization`` is "vm" (the paper's QEMU guests) or "container"
    (the paper's future work): containers keep the host-side vhost costs
    but lighten the guest-side driver path and the notification latency.
    """
    if virtualization not in ("vm", "container"):
        raise ValueError(f"unknown virtualization {virtualization!r}")
    params = params_for(switch_name)
    bus = machine.node0.bus
    if uses_ptnet(switch_name):
        return make_ptnet_interface(name, slots=params.vring_slots, bus=bus)
    costs = params.vif_costs
    notify_ns = None
    if virtualization == "container":
        from dataclasses import replace

        from repro.vm.container import CONTAINER_GUEST_COST_FACTOR, CONTAINER_NOTIFY_NS

        costs = replace(
            costs,
            guest_tx=costs.guest_tx.scaled(CONTAINER_GUEST_COST_FACTOR),
            guest_rx=costs.guest_rx.scaled(CONTAINER_GUEST_COST_FACTOR),
        )
        notify_ns = CONTAINER_NOTIFY_NS
    if notify_ns is None:
        return make_vhost_user_interface(
            name, costs=costs, slots=params.vring_slots, bus=bus
        )
    return make_vhost_user_interface(
        name, costs=costs, slots=params.vring_slots, bus=bus, notify_ns=notify_ns
    )


def make_hypervisor(
    switch_name: str,
    machine: Machine,
    sim: Simulator,
    virtualization: str = "vm",
):
    """Guest runtime: QEMU hypervisor (with the switch's compatibility
    limit) for VMs, or a container runtime (no QEMU, no limit)."""
    if virtualization == "container":
        from repro.vm.container import ContainerRuntime

        return ContainerRuntime(sim, machine.node0)
    params = params_for(switch_name)
    return Hypervisor(sim, machine.node0, max_vms=params.max_vms)


def connect_ports(a: NicPort, b: NicPort) -> None:
    """Back-to-back cable between a generator port and a SUT port."""
    a.connect(b)


def apply_flow_axis(
    tb: Testbed,
    flows: int = 1,
    flow_dist: str = "uniform",
    churn: float = 0.0,
    size_mix: str | None = None,
) -> None:
    """Resolve the flow axis for a testbed under construction.

    A non-trivial population lands in ``tb.extras["flow_population"]``
    (the obs layer keys its cache gauges off it) and is announced to the
    switch so capacity-gated models (t4p4s) can arm themselves.  The
    trivial single-flow case leaves the testbed exactly as it was.
    """
    from repro.flows import resolve_flow_population

    population = resolve_flow_population(
        flows=flows, flow_dist=flow_dist, churn=churn, size_mix=size_mix
    )
    if population is None:
        return
    tb.extras["flow_population"] = population
    tb.switch.on_flow_population(population)


#: Span of the per-trial traffic start-phase offset, in ns.  Small
#: enough that warmup absorbs it entirely (warmup windows are hundreds
#: of microseconds), large enough to decorrelate batch-boundary
#: alignment between trials.
TRIAL_PHASE_SPAN_NS = 2_048

#: Span of the per-trial churn-clock offset: up to one simulated second,
#: so a trial replica sees a genuinely shifted active-flow window.
TRIAL_CHURN_SPAN_NS = 1_000_000_000


class TrialPerturbation:
    """Per-trial seed perturbations for one testbed (``repro.measure.soundness``).

    A trial replica must measure the *same workload* under different
    measurement-irrelevant phases, so all perturbations draw from
    dedicated ``trial.<k>.*`` RNG streams: traffic start phase
    (:meth:`phase_ns`), driver-drop schedule salt (:meth:`salt_ports`) and
    churn-clock offset (:meth:`shift_churn`).  Trial 0 is the identity
    -- every method returns its neutral element *without creating any
    RNG stream*, so the base run's draws (and hence its results) are
    bit-identical to a build that never heard of trials.
    """

    def __init__(self, tb: Testbed, trial: int) -> None:
        if trial < 0:
            raise ValueError(f"trial must be >= 0, got {trial}")
        self.tb = tb
        self.trial = trial

    def _stream(self, name: str):
        return self.tb.rngs.stream(f"trial.{self.trial}.{name}")

    def phase_ns(self) -> float:
        """Start-time offset for the next traffic source (0.0 at trial 0)."""
        if self.trial == 0:
            return 0.0
        return float(self._stream("phase").integers(0, TRIAL_PHASE_SPAN_NS))

    def salt_ports(self, *ports) -> None:
        """Salt each port's driver-drop schedule (no-op at trial 0)."""
        if self.trial == 0:
            return
        rng = self._stream("hiccup")
        for port in ports:
            port.set_hiccup_salt(int(rng.integers(1, 1 << 62)))

    def shift_churn(self) -> None:
        """Offset the flow population's churn clock (no-op at trial 0).

        Must run after :func:`apply_flow_axis` and before any traffic
        source is created, so :func:`flow_source_kwargs` hands out the
        shifted population.
        """
        if self.trial == 0:
            return
        population = self.tb.extras.get("flow_population")
        if population is None or not population.churn_fps:
            return
        from dataclasses import replace

        shifted = replace(
            population,
            churn_offset_ns=float(self._stream("churn").integers(0, TRIAL_CHURN_SPAN_NS)),
        )
        self.tb.extras["flow_population"] = shifted
        self.tb.switch.on_flow_population(shifted)


def trial_axis(tb: Testbed, trial: int) -> TrialPerturbation:
    """Resolve the trial axis for a testbed under construction.

    Applies the churn shift immediately (it must precede traffic-source
    creation) and returns the perturbation so the builder can salt its
    NIC ports and phase-shift its sources.  ``trial=0`` leaves the
    testbed exactly as it was.
    """
    perturbation = TrialPerturbation(tb, trial)
    perturbation.shift_churn()
    return perturbation


def flow_source_kwargs(tb: Testbed, source_name: str) -> dict:
    """Per-source kwargs for the testbed's flow population, if any.

    Each traffic source samples from its own named per-run RNG stream
    (``flows.<source>``), the same discipline the fault planner uses, so
    multi-flow runs are deterministic and serial-vs-parallel identical.
    """
    population = tb.extras.get("flow_population")
    if population is None:
        return {}
    return {
        "flow_population": population,
        "rng": tb.rngs.stream(f"flows.{source_name}"),
    }
