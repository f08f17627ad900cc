"""Unit tests for repro.obs.flowstats: the bounded heavy-hitter tracker.

The load-bearing invariant is *conservation*: the space-saving table may
forget which flow a frame belonged to (folding evicted records into the
``other`` rollup), but it must never lose or invent a frame -- for every
counter, ``sum(tracked) + other == totals`` at all times.
"""

from __future__ import annotations

import json

from repro.obs.exporters import MAX_FLOW_LABELS, flow_prometheus_text
from repro.obs.flowstats import (
    DEFAULT_TOP_K,
    FlowRecord,
    FlowStats,
    OTHER_FLOW,
    flow_table,
    jain_index,
)

COUNTERS = (
    "tx_frames",
    "tx_bytes",
    "wire_frames",
    "wire_bytes",
    "rx_frames",
    "rx_bytes",
    "drop_frames",
    "drop_bytes",
    "fwd_frames",
    "cache_hits",
    "cache_misses",
    "weight",
)


def assert_conserved(stats: FlowStats) -> None:
    for name in COUNTERS:
        tracked = sum(getattr(r, name) for r in stats.records.values())
        other = getattr(stats.other, name)
        total = getattr(stats.totals, name)
        if name == "weight":
            # totals does not accumulate weight; tracked+other is the
            # authoritative sum of accounted frames across hooks.
            continue
        assert tracked + other == total, f"{name}: {tracked}+{other} != {total}"


class TestSpaceSaving:
    def test_capacity_bounded_and_conserved(self):
        stats = FlowStats(top_k=4)
        for flow in range(100):
            stats.tx_runs(((flow, flow + 1),), 64)
            assert len(stats.records) <= 4
        assert_conserved(stats)
        assert stats.evictions == 96
        assert stats.adoptions == 100

    def test_eviction_folds_into_other(self):
        stats = FlowStats(top_k=2)
        stats.tx_runs(((1, 10), (2, 20)), 64)
        stats.tx_runs(((3, 5),), 64)  # evicts flow 1 (min weight)
        assert set(stats.records) == {2, 3}
        assert stats.other.tx_frames == 10
        assert stats.other.flow == OTHER_FLOW
        # Newcomer keeps the victim's weight as an error bound, not as
        # inherited count (textbook space-saving would over-attribute).
        assert stats.records[3].error == 10
        assert stats.records[3].tx_frames == 5
        assert_conserved(stats)

    def test_returning_flow_is_a_fresh_record(self):
        stats = FlowStats(top_k=2)
        stats.tx_runs(((1, 1), (2, 50)), 64)
        stats.tx_runs(((3, 50),), 64)  # evicts 1
        stats.tx_runs(((1, 1),), 64)  # 1 returns, evicting nothing heavier
        assert stats.records[1].tx_frames == 1
        assert_conserved(stats)

    def test_mixed_hooks_conserve_each_counter(self):
        stats = FlowStats(top_k=3)
        for step in range(50):
            flow = (step * 7) % 11
            stats.tx_runs(((flow, 4),), 128)
            stats.wire_runs(((flow, 3),), 128)
            stats.drop_runs(((flow, 1),), 128)
            stats.rx_runs(((flow, 3),), 128)
            stats.fwd_runs(((flow, 3),))
            stats.cache(flow, 3, 1)
        assert_conserved(stats)
        assert stats.totals.tx_frames == 200
        assert stats.totals.drop_frames == 50
        assert stats.totals.cache_misses == 50

    def test_top_k_must_be_positive(self):
        try:
            FlowStats(top_k=0)
        except ValueError:
            pass
        else:
            raise AssertionError("top_k=0 must raise")


class TestWireSplit:
    def test_split_attributes_survivors_and_drops(self):
        stats = FlowStats(top_k=8)
        runs = ((5, 3), (6, 2), (7, 4))
        # Frames 0..8; keep offsets 1,2,4,8 -> flow5 keeps 2, flow6 keeps
        # 1, flow7 keeps 1.
        stats.wire_split_runs(runs, [1, 2, 4, 8], 64)
        assert stats.records[5].wire_frames == 2
        assert stats.records[5].drop_frames == 1
        assert stats.records[6].wire_frames == 1
        assert stats.records[6].drop_frames == 1
        assert stats.records[7].wire_frames == 1
        assert stats.records[7].drop_frames == 3
        assert stats.totals.wire_frames == 4
        assert stats.totals.drop_frames == 5
        assert_conserved(stats)

    def test_all_kept_and_none_kept(self):
        stats = FlowStats(top_k=8)
        stats.wire_split_runs(((1, 2), (2, 2)), [0, 1, 2, 3], 64)
        assert stats.totals.wire_frames == 4
        assert stats.totals.drop_frames == 0
        stats.wire_split_runs(((3, 3),), [], 64)
        assert stats.records[3].drop_frames == 3

    def test_a_full_table_sees_the_frames_in_send_order(self):
        """A punctured block attributes its frames as per-frame sends
        would: with the table full, the order of the updates decides which
        record each newcomer evicts."""
        runs = ((1, 2), (2, 1), (3, 1))
        kept = [1, 2, 3]  # flow 1 loses its first frame

        def preloaded():
            stats = FlowStats(top_k=2)
            stats.tx_runs(((9, 1),), 64)
            return stats

        blocks = preloaded()
        blocks.wire_split_runs(runs, kept, 64)
        frames = preloaded()
        offset = 0
        for flow, count in runs:
            for _ in range(count):
                site = frames.wire_runs if offset in kept else frames.drop_runs
                site(((flow, 1),), 64)
                offset += 1
        assert blocks.summary() == frames.summary()
        assert blocks.evictions == frames.evictions == 2


class TestDerivedMetrics:
    def test_jain_index(self):
        assert jain_index([]) == 1.0
        assert jain_index([5, 5, 5, 5]) == 1.0
        assert abs(jain_index([1, 0, 0, 0]) - 0.25) < 1e-12
        assert 0.0 < jain_index([10, 1]) < 1.0

    def test_loss_rate_prefers_offered_frames(self):
        record = FlowRecord(1)
        record.tx_frames, record.drop_frames = 10, 3
        assert record.loss_rate == 0.3
        rx_only = FlowRecord(2)
        rx_only.rx_frames, rx_only.drop_frames = 6, 2
        assert rx_only.loss_rate == 0.25
        assert FlowRecord(3).loss_rate == 0.0

    def test_latency_overflow_folds_into_other(self):
        stats = FlowStats(top_k=2)
        stats.latency(1, 5_000.0)
        stats.latency(2, 6_000.0)
        stats.latency(3, 7_000.0)  # over capacity -> "other" histogram
        digests = stats.latency_digests()
        assert set(digests) == {"1", "2", "other"}
        assert digests["1"]["count"] == 1

    def test_summary_is_json_safe_and_ranked(self):
        stats = FlowStats(top_k=4)
        stats.tx_runs(((1, 100), (2, 10), (3, 1)), 64)
        stats.latency(1, 4_200.0)
        summary = stats.summary()
        json.dumps(summary)  # must not raise
        assert [r["flow"] for r in summary["flows"]] == [1, 2, 3]
        assert summary["totals"]["tx_frames"] == 111
        assert summary["fairness"]["jain"] > 0.0

    def test_flow_table_renders(self):
        stats = FlowStats(top_k=4)
        stats.tx_runs(((1, 10), (2, 5)), 64)
        stats.rx_runs(((1, 9),), 64)
        stats.drop_runs(((1, 1), (2, 5)), 64)
        text = flow_table(stats.summary())
        assert "total" in text and "jain=" in text
        # No latency samples -> dashes, not a format crash.
        assert "-" in text


class TestPrometheusExport:
    def test_labels_sanitized_and_merged(self):
        stats = FlowStats(top_k=4)
        stats.tx_runs(((7, 3),), 64)
        text = flow_prometheus_text(stats.summary(), labels={"switch": "vale"})
        assert 'repro_flow_tx_frames{switch="vale",flow="7"} 3' in text
        assert 'flow="total"' in text
        assert 'flow="other"' in text
        assert "repro_flow_fairness_jain" in text
        assert "repro_flow_top_k" in text

    def test_cardinality_capped(self):
        # A summary wider than the cap (can't happen via FlowStats, which
        # is already top-k bounded, but the exporter must not trust that).
        record = FlowRecord(0).to_dict()
        summary = {
            "flows": [dict(record, flow=i) for i in range(MAX_FLOW_LABELS + 50)],
            "other": FlowRecord(OTHER_FLOW).to_dict(),
            "totals": FlowRecord(-2).to_dict(),
            "fairness": {
                "jain": 1.0, "skew": None,
                "loss_p50": 0.0, "loss_p90": 0.0, "loss_p99": 0.0,
            },
            "tracked": MAX_FLOW_LABELS + 50,
            "evictions": 0,
            "top_k": DEFAULT_TOP_K,
        }
        text = flow_prometheus_text(summary)
        flows = {
            line.split('flow="')[1].split('"')[0]
            for line in text.splitlines()
            if 'flow="' in line
        }
        assert len(flows) <= MAX_FLOW_LABELS + 2  # + other/total
        # None-valued fairness gauges are skipped, not emitted as "None".
        assert "None" not in text
