"""Capture a canonical stats snapshot of the tier-1 scenario matrix.

Used to verify that representation-level changes (flyweight packet
blocks, scheduler fast paths) leave every observable figure bit-identical:

    python tools/golden_stats.py capture golden.json
    ... make changes ...
    python tools/golden_stats.py diff golden.json

Every float is serialised via ``repr`` so the comparison is exact
(bit-identical), not approximate.
"""

from __future__ import annotations

import json
import sys

from repro.measure.latency import measure_latency_at
from repro.measure.runner import drive
from repro.scenarios import BUILDERS, p2p, p2v, v2v
from repro.switches.registry import switch_names
from repro.vm.machine import QemuCompatibilityError

#: Multi-flow cells: (key, builder, switch, flow-axis kwargs).  Each also
#: records the switch's cache counters, which single-flow traffic never
#: moves off their hit paths.
FLOW_CELLS = (
    ("flows/p2p/ovs-dpdk/zipf-1k", p2p.build, "ovs-dpdk",
     {"flows": 1_000, "flow_dist": "zipf"}),
    ("flows/p2v/ovs-dpdk/zipf-100k", p2v.build, "ovs-dpdk",
     {"flows": 100_000, "flow_dist": "zipf"}),
    ("flows/p2p/vale/zipf-1k", p2p.build, "vale", {"flows": 1_000, "flow_dist": "zipf"}),
    ("flows/p2p/t4p4s/zipf-1k", p2p.build, "t4p4s", {"flows": 1_000, "flow_dist": "zipf"}),
    ("flows/p2p/vpp/uniform-100-churn-2e5", p2p.build, "vpp", {"flows": 100, "churn": 2e5}),
    ("flows/p2p/vale/zipf-500-imix", p2p.build, "vale",
     {"flows": 500, "flow_dist": "zipf", "size_mix": "imix"}),
)


def _canon(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _run_stats(tb, result) -> dict:
    stats = {
        "gbps": [_canon(g) for g in result.per_direction_gbps],
        "mpps": [_canon(m) for m in result.per_direction_mpps],
        "events": tb.sim.events_executed,
        "forwarded": tb.switch.total_forwarded,
        "meter_packets": [m.packets for m in tb.meters],
        "meter_bytes": [m.bytes for m in tb.meters],
        "warmup_packets": [m.warmup_packets for m in tb.meters],
        "ring_drops": [
            (p.input.input_ring.name, p.input.input_ring.dropped, p.input.input_ring.enqueued)
            for p in tb.switch.paths
        ],
        "path_forwarded": [p.forwarded for p in tb.switch.paths],
    }
    ports = tb.extras.get("sut_ports") or ()
    stats["port_tx"] = [
        (p.name, p.tx_packets, p.tx_bytes, p.tx_dropped, p.driver_drops, p.rx_packets)
        for p in ports
    ]
    if result.latency is not None and len(result.latency):
        lat = result.latency
        stats["latency"] = {
            "n": len(lat),
            "mean_us": _canon(lat.mean_us),
            "std_us": _canon(lat.std_us),
            "p50": _canon(lat.percentile_us(50)),
            "p99": _canon(lat.percentile_us(99)),
            "min": _canon(lat.min_us),
            "max": _canon(lat.max_us),
        }
    return stats


def capture() -> dict:
    golden: dict = {}
    for scenario, build in BUILDERS.items():
        for switch in switch_names():
            for bidi in (False, True):
                if scenario == "loopback" and bidi:
                    continue
                key = f"{scenario}/{switch}/{'bidi' if bidi else 'uni'}"
                try:
                    kwargs = {} if scenario == "loopback" else {"bidirectional": bidi}
                    tb = build(switch, frame_size=64, **kwargs)
                except QemuCompatibilityError:
                    continue
                result = drive(tb)
                golden[key] = _run_stats(tb, result)
                print(f"  {key}: ok", file=sys.stderr)
    # Latency runs (probe materialisation + timestamp paths).
    for scenario, build in (("p2p", p2p.build), ("v2v", v2v.build)):
        for switch in ("vpp", "ovs-dpdk", "vale"):
            key = f"latency/{scenario}/{switch}"
            if scenario == "p2p":
                point = measure_latency_at(
                    build, switch, 64, rate_pps=2_000_000.0, fraction=0.5
                )
                lat = point.sample
            else:
                tb = v2v.build_latency(switch)
                result = drive(tb, measure_ns=4_000_000.0)
                lat = result.latency
            golden[key] = {
                "n": len(lat),
                "mean_us": _canon(lat.mean_us),
                "p99": _canon(lat.percentile_us(99)) if len(lat) else None,
            }
            print(f"  {key}: ok ({len(lat)} samples)", file=sys.stderr)
    for key, build, switch, flow_kwargs in FLOW_CELLS:
        tb = build(switch, frame_size=64, **flow_kwargs)
        stats = _run_stats(tb, drive(tb))
        stats["cache"] = {
            name: _canon(value) for name, value in tb.switch.cache_stats().items()
        }
        golden[key] = stats
        print(f"  {key}: ok", file=sys.stderr)
    # One observed run: metrics snapshot must be bit-identical too.
    from repro.obs.session import ObsConfig, observe

    tb = p2p.build("ovs-dpdk")
    obs = observe(tb, ObsConfig(trace=True, metrics=True, profile=True))
    result = drive(tb)
    obs.finish(result)
    snap = obs.metrics_snapshot()
    golden["observed/p2p/ovs-dpdk"] = json.loads(
        json.dumps(snap, default=repr, sort_keys=True)
    )
    print("  observed/p2p/ovs-dpdk: ok", file=sys.stderr)
    return golden


def main() -> int:
    mode, path = sys.argv[1], sys.argv[2]
    if mode == "capture":
        with open(path, "w") as fh:
            json.dump(capture(), fh, indent=1, sort_keys=True)
        print(f"captured -> {path}")
        return 0
    with open(path) as fh:
        golden = json.load(fh)
    current = json.loads(json.dumps(capture(), sort_keys=True))
    # events_executed is an engine performance counter, not a measurement:
    # optimisations legitimately remove no-op events.  Everything else is
    # compared bit-for-bit.
    for snap in (*golden.values(), *current.values()):
        if isinstance(snap, dict):
            snap.pop("events", None)
    failures = 0
    for key in sorted(golden):
        if key not in current:
            print(f"MISSING {key}")
            failures += 1
        elif golden[key] != current[key]:
            print(f"DIFF {key}")
            print(f"  golden:  {json.dumps(golden[key], sort_keys=True)[:400]}")
            print(f"  current: {json.dumps(current[key], sort_keys=True)[:400]}")
            failures += 1
    print(f"{len(golden) - failures}/{len(golden)} bit-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
