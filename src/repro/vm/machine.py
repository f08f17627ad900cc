"""Virtual machines.

Each VNF runs inside a QEMU/KVM guest with four vCPUs (Sec. 5.1: "Each VM
is allocated with four cores through the QEMU -smp option") and one or two
virtual interfaces.  Guest vCPUs are ordinary :class:`~repro.cpu.cores.Core`
instances living on NUMA node 0 next to the switch; they never contend
with the switch core (the testbed isolates cores with isolcpus).

The BESS/QEMU incompatibility the paper hits (footnote 5: "BESS exhibits
QEMU compatibility issues that prevent the instantiation of more than 3
VMs") is modelled by :class:`Hypervisor` honouring a per-switch VM limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.cores import Core
from repro.vif.virtio import VirtualInterface

if TYPE_CHECKING:
    from repro.core.engine import Simulator
    from repro.cpu.numa import NumaNode

#: QEMU -smp allocation used throughout the paper's evaluation.
VCPUS_PER_VM = 4


class QemuCompatibilityError(RuntimeError):
    """Raised when a switch cannot drive the requested number of VMs."""


class VirtualMachine:
    """A guest: vCPU cores plus virtual interfaces, hosting one app."""

    def __init__(self, sim: "Simulator", node: "NumaNode", name: str, vcpus: int = VCPUS_PER_VM):
        self.sim = sim
        self.name = name
        self.cores: list[Core] = [
            node.add_core(f"{name}/vcpu{i}") for i in range(vcpus)
        ]
        self.interfaces: list[VirtualInterface] = []
        self.crashed = False

    def plug(self, vif: VirtualInterface) -> VirtualInterface:
        """Attach a virtual interface (virtio or ptnet device) to the guest."""
        self.interfaces.append(vif)
        return vif

    def run(self, app, vcpu: int = 0) -> None:
        """Pin a guest application to one vCPU and start it."""
        core = self.cores[vcpu]
        core.attach(app)
        core.start()

    # -- fault hooks (repro.faults) ----------------------------------------

    def crash(self) -> int:
        """Kill the guest app(s): polls become no-ops, buffered tx is lost.

        Each pinned task gets an instance-level ``poll`` that shadows the
        class method (``Core._iterate`` looks ``poll`` up dynamically every
        iteration, so no core-side change is needed).  Returns the number
        of frames discarded from app transmit buffers.
        """
        if self.crashed:
            return 0
        self.crashed = True
        lost = 0
        for core in self.cores:
            for task in core.tasks:
                task.poll = _dead_poll
                buf = getattr(task, "_tx_buffer", None)
                if buf:
                    for item in buf:
                        lost += item.count
                    buf.clear()
                    task._tx_frames = 0
        return lost

    def restart(self) -> int:
        """Bring the guest app(s) back after a crash.

        The restarting virtio drivers reset their vrings, so frames that
        accumulated in the guest-facing rings while the app was dead are
        drained and dropped (returned as the lost-frame count).  Drain
        timers restart from the current instant.
        """
        if not self.crashed:
            return 0
        self.crashed = False
        now = self.sim.now
        for core in self.cores:
            for task in core.tasks:
                task.__dict__.pop("poll", None)
                if hasattr(task, "_last_flush_ns"):
                    task._last_flush_ns = now
        lost = 0
        for vif in self.interfaces:
            lost += vif.to_guest.clear()
            lost += vif.to_host.clear()
        return lost


def _dead_poll(core: Core) -> float:
    """Poll body of a crashed guest app: consumes nothing, does nothing."""
    return 0.0


class Hypervisor:
    """Instantiates VMs, enforcing per-switch compatibility limits."""

    def __init__(self, sim: "Simulator", node: "NumaNode", max_vms: int | None = None):
        self.sim = sim
        self.node = node
        self.max_vms = max_vms
        self.vms: list[VirtualMachine] = []

    def spawn(self, name: str, vcpus: int = VCPUS_PER_VM) -> VirtualMachine:
        if self.max_vms is not None and len(self.vms) >= self.max_vms:
            raise QemuCompatibilityError(
                f"hypervisor limited to {self.max_vms} VMs "
                f"(BESS/QEMU incompatibility, paper footnote 5)"
            )
        vm = VirtualMachine(self.sim, self.node, name, vcpus=vcpus)
        self.vms.append(vm)
        return vm
