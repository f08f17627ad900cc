"""Exact-text pins for the Prometheus renderers in repro.obs.exporters.

Dashboards and the CI jobs grep these documents, so each renderer's
output on a fixed input is pinned byte for byte, with and without
caller labels.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.obs.exporters import (
    flow_prometheus_text,
    prometheus_text,
    snapshot_prometheus_text,
    trial_prometheus_text,
    warp_decline_prometheus_text,
    write_text,
)
from repro.obs.metrics import MetricsRegistry

FLOW_FIELDS = (
    "tx_frames", "tx_bytes", "wire_frames", "rx_frames", "rx_bytes",
    "drop_frames", "fwd_frames", "cache_hits", "cache_misses", "loss_rate",
    "cache_hit_rate",
)


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("ring.enqueued").inc(3)
    registry.gauge("run.gbps").set(9.5)
    histogram = registry.histogram("switch.batch", bounds=(1.0, 32.0))
    for value in (1.0, 4.0, 40.0):
        histogram.observe(value)
    return registry


def test_registry_text_with_and_without_labels():
    assert prometheus_text(_registry(), {"switch": "vpp", "run": "a"}) == (
        "# TYPE repro_ring_enqueued counter\n"
        'repro_ring_enqueued{run="a",switch="vpp"} 3.0\n'
        "# TYPE repro_run_gbps gauge\n"
        'repro_run_gbps{run="a",switch="vpp"} 9.5\n'
        "# TYPE repro_switch_batch histogram\n"
        'repro_switch_batch_bucket{run="a",switch="vpp",le="1.0"} 1\n'
        'repro_switch_batch_bucket{run="a",switch="vpp",le="32.0"} 2\n'
        'repro_switch_batch_bucket{run="a",switch="vpp",le="+Inf"} 3\n'
        'repro_switch_batch_sum{run="a",switch="vpp"} 45.0\n'
        'repro_switch_batch_count{run="a",switch="vpp"} 3\n'
    )
    assert prometheus_text(_registry()) == (
        "# TYPE repro_ring_enqueued counter\n"
        "repro_ring_enqueued 3.0\n"
        "# TYPE repro_run_gbps gauge\n"
        "repro_run_gbps 9.5\n"
        "# TYPE repro_switch_batch histogram\n"
        'repro_switch_batch_bucket{le="1.0"} 1\n'
        'repro_switch_batch_bucket{le="32.0"} 2\n'
        'repro_switch_batch_bucket{le="+Inf"} 3\n'
        "repro_switch_batch_sum 45.0\n"
        "repro_switch_batch_count 3\n"
    )


def _flow_summary() -> dict:
    def row(value):
        return {field: value for field in FLOW_FIELDS}

    return {
        "flows": [dict(row(1), flow="a:b")],
        "other": row(0),
        "totals": row(3),
        "fairness": {
            "jain": 0.9, "skew": None, "loss_p50": 0.0, "loss_p90": 0.1, "loss_p99": 0.2,
        },
        "tracked": 1,
        "evictions": 1,
        "top_k": 4,
    }


def _flow_lines(labels: str) -> list[str]:
    base = "{" + labels + "}" if labels else ""
    prefix = labels + "," if labels else ""
    return [
        *(f"# TYPE repro_flow_{field} gauge" for field in FLOW_FIELDS),
        *(
            f'repro_flow_{field}{{{prefix}flow="{flow}"}} {value}'
            for flow, value in (("a_b", 1), ("other", 0), ("total", 3))
            for field in FLOW_FIELDS
        ),
        "# TYPE repro_flow_fairness_jain gauge",
        f"repro_flow_fairness_jain{base} 0.9",
        "# TYPE repro_flow_fairness_loss_p50 gauge",
        f"repro_flow_fairness_loss_p50{base} 0.0",
        "# TYPE repro_flow_fairness_loss_p90 gauge",
        f"repro_flow_fairness_loss_p90{base} 0.1",
        "# TYPE repro_flow_fairness_loss_p99 gauge",
        f"repro_flow_fairness_loss_p99{base} 0.2",
        "# TYPE repro_flow_tracked gauge",
        f"repro_flow_tracked{base} 1",
        "# TYPE repro_flow_evictions gauge",
        f"repro_flow_evictions{base} 1",
        "# TYPE repro_flow_top_k gauge",
        f"repro_flow_top_k{base} 4",
    ]


def test_flow_text_with_and_without_labels():
    labelled = flow_prometheus_text(_flow_summary(), {"switch": "vale"})
    assert labelled == "\n".join(_flow_lines('switch="vale"')) + "\n"
    assert flow_prometheus_text(_flow_summary()) == "\n".join(_flow_lines("")) + "\n"


def test_trial_text():
    summaries = {
        "p2p-64B-uni/vpp#s1": {
            "n": 3, "mean": 9.5, "std": 0.1, "cv": 0.01, "p5": 9.4, "p50": 9.5,
            "p95": 9.6, "ci_low": 9.4, "ci_high": 9.6, "verdict": "stable",
            "status": "ok",
        },
        "v2v/x y": {
            "n": 2, "mean": 1.0, "verdict": "bimodal", "status": "quarantined",
            "ci_low": None,
        },
    }
    point = 'campaign="smoke",point="p2p_64B_uni_vpp_s1"'
    assert trial_prometheus_text(summaries, {"campaign": "smoke"}) == (
        "# TYPE repro_trials_n gauge\n"
        "# TYPE repro_trials_mean gauge\n"
        "# TYPE repro_trials_std gauge\n"
        "# TYPE repro_trials_cv gauge\n"
        "# TYPE repro_trials_p5 gauge\n"
        "# TYPE repro_trials_p50 gauge\n"
        "# TYPE repro_trials_p95 gauge\n"
        "# TYPE repro_trials_ci_low gauge\n"
        "# TYPE repro_trials_ci_high gauge\n"
        "# TYPE repro_trials_stable gauge\n"
        "# TYPE repro_trials_quarantined gauge\n"
        f"repro_trials_n{{{point}}} 3\n"
        f"repro_trials_mean{{{point}}} 9.5\n"
        f"repro_trials_std{{{point}}} 0.1\n"
        f"repro_trials_cv{{{point}}} 0.01\n"
        f"repro_trials_p5{{{point}}} 9.4\n"
        f"repro_trials_p50{{{point}}} 9.5\n"
        f"repro_trials_p95{{{point}}} 9.6\n"
        f"repro_trials_ci_low{{{point}}} 9.4\n"
        f"repro_trials_ci_high{{{point}}} 9.6\n"
        f'repro_trials_stable{{{point},verdict="stable"}} 1\n'
        f"repro_trials_quarantined{{{point}}} 0\n"
        'repro_trials_n{campaign="smoke",point="v2v_x_y"} 2\n'
        'repro_trials_mean{campaign="smoke",point="v2v_x_y"} 1.0\n'
        'repro_trials_stable{campaign="smoke",point="v2v_x_y",verdict="bimodal"} 0\n'
        'repro_trials_quarantined{campaign="smoke",point="v2v_x_y"} 1\n'
    )


def test_warp_counter_text_with_and_without_labels():
    outcomes = [
        ("a", SimpleNamespace(warp="turbo")),
        ("b", SimpleNamespace(warp="declined:multi-flow-traffic")),
        ("c", SimpleNamespace(warp=None)),
        ("d", SimpleNamespace(warp="turbo")),
        ("e", SimpleNamespace(warp="declined:per packet")),
    ]
    assert warp_decline_prometheus_text(outcomes, {"campaign": "x"}) == (
        "# TYPE repro_warp_engaged_total counter\n"
        'repro_warp_engaged_total{campaign="x",mode="turbo"} 2\n'
        "# TYPE repro_warp_declined_total counter\n"
        'repro_warp_declined_total{campaign="x",reason="multi_flow_traffic"} 1\n'
        'repro_warp_declined_total{campaign="x",reason="per_packet"} 1\n'
    )
    assert warp_decline_prometheus_text(outcomes) == (
        "# TYPE repro_warp_engaged_total counter\n"
        'repro_warp_engaged_total{mode="turbo"} 2\n'
        "# TYPE repro_warp_declined_total counter\n"
        'repro_warp_declined_total{reason="multi_flow_traffic"} 1\n'
        'repro_warp_declined_total{reason="per_packet"} 1\n'
    )


def test_snapshot_text():
    snapshots = [
        (
            {"run": "r1", "campaign": "c"},
            {
                "run.gbps": 9.5,
                "switch.batch": {"count": 3, "mean": 15.0, "p": "x"},
                "name": "s",
            },
        ),
        ({}, {"ring.enqueued": 3}),
    ]
    assert snapshot_prometheus_text(snapshots) == (
        'repro_run_gbps{campaign="c",run="r1"} 9.5\n'
        'repro_switch_batch_count{campaign="c",run="r1"} 3\n'
        'repro_switch_batch_mean{campaign="c",run="r1"} 15.0\n'
        "repro_ring_enqueued 3\n"
    )
    assert snapshot_prometheus_text([]) == ""


def test_write_text_creates_parent_directories(tmp_path):
    path = write_text(tmp_path / "a" / "b.prom", "repro_x 1\n")
    assert path.read_text() == "repro_x 1\n"
    doc = {"traceEvents": []}
    assert json.loads(write_text(tmp_path / "t.json", json.dumps(doc)).read_text()) == doc
