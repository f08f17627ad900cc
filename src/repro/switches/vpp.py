"""VPP (FD.io Vector Packet Processing).

Self-contained full router: packets flow through a graph of nodes
(``dpdk-input -> l2-patch -> interface-output`` in the paper's l2patch
configuration, Appendix A.1) in *vectors* of up to 256.  Vector
processing amortises graph-node dispatch and keeps the I-cache warm, so
per-batch cost is high but per-packet cost low -- VPP saturates 10 Gbps
unidirectional and exceeds 10 Gbps bidirectional at 64 B.

The paper's reversed-path experiment (Sec. 5.2) isolates a vhost-user
*receive* penalty: forwarding NIC->VM runs at 6.9 Gbps but VM->NIC only
at 5.59 Gbps.  That asymmetry lives in ``VPP_PARAMS.vif_costs``
(host_rx > host_tx).

The graph-node trace kept here mirrors ``vppctl show runtime``: vectors
and calls per node, from which tests verify the vectors/call ratio that
vector processing is all about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packet import Packet, batch_count
from repro.switches.base import ForwardingPath, SoftwareSwitch
from repro.switches.params import VPP_PARAMS


@dataclass
class NodeRuntime:
    """Per-graph-node counters (vppctl 'show runtime' equivalent)."""

    calls: int = 0
    vectors: int = 0

    @property
    def vectors_per_call(self) -> float:
        return self.vectors / self.calls if self.calls else 0.0


class Vpp(SoftwareSwitch):
    """VPP behavioural model with graph-node runtime accounting."""

    def __init__(self, sim, rngs=None, bus=None, params=VPP_PARAMS):
        super().__init__(sim, params, rngs=rngs, bus=bus)
        self.node_runtime: dict[str, NodeRuntime] = {}

    def _graph_nodes(self, path: ForwardingPath) -> tuple[str, str, str]:
        rx_node = "vhost-user-input" if path.input.is_vif else "dpdk-input"
        tx_node = "vhost-user-output" if path.output.is_vif else "interface-output"
        return rx_node, "l2-patch", tx_node

    def _on_forward(self, batch: list[Packet], path: ForwardingPath) -> None:
        vector = batch_count(batch)
        runtimes = self.node_runtime
        for node in self._graph_nodes(path):
            runtime = runtimes.get(node)
            if runtime is None:
                runtime = runtimes[node] = NodeRuntime()
            runtime.calls += 1
            runtime.vectors += vector
