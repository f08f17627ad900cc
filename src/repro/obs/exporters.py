"""Trace and metric exporters: Chrome trace JSON, Prometheus text, JSONL.

Chrome trace documents load directly in Perfetto (ui.perfetto.dev) or
``chrome://tracing``; Prometheus text is scrape-format for dashboards;
JSONL is the greppable raw stream.  All three consume the same in-memory
event/metric objects, so a run observed once can be exported every way.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import Histogram, MetricsRegistry

#: Chrome trace 'ts' unit is microseconds; the simulator clock is ns.
_NS_TO_US = 1e-3

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def write_text(path: str | Path, text: str) -> Path:
    """Write one exported document, creating its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _labels(items: Iterable[tuple[str, object]]) -> str:
    """Prometheus label set ``{k="v",...}``; empty when there are none."""
    body = ",".join(f'{key}="{value}"' for key, value in items)
    return "{" + body + "}" if body else ""


def chrome_trace_document(
    events: Iterable[dict],
    metadata: dict | None = None,
    pid: int = 1,
) -> dict:
    """Wrap raw tracer events in the Chrome trace-event JSON envelope.

    Event ``ts``/``dur`` arrive in simulated ns and leave in µs; string
    ``tid``s are mapped to stable integer ids with thread-name metadata
    records so Perfetto shows readable track names.
    """
    tids: dict[str, int] = {}
    out: list[dict] = []
    for event in events:
        converted = dict(event)
        tid = converted.get("tid", "sim")
        if tid not in tids:
            tids[tid] = len(tids) + 1
        converted["tid"] = tids[tid]
        converted["pid"] = pid
        converted["ts"] = converted.get("ts", 0.0) * _NS_TO_US
        if "dur" in converted:
            converted["dur"] = converted["dur"] * _NS_TO_US
        out.append(converted)
    for name, tid in tids.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    document = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    return document


def events_jsonl_text(events: Iterable[dict]) -> str:
    """Raw tracer events, one JSON object per line (ns timestamps)."""
    return "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted metric name to a legal Prometheus metric name."""
    return prefix + _PROM_SANITIZE.sub("_", name)


def prometheus_text(registry: MetricsRegistry, labels: dict[str, str] | None = None) -> str:
    """Render a registry in the Prometheus text exposition format.

    Histograms become the standard ``_bucket``/``_sum``/``_count``
    triple with cumulative ``le`` buckets.
    """
    label_items = sorted((labels or {}).items())
    base = _labels(label_items)

    lines: list[str] = []
    for metric in registry:
        name = prometheus_name(metric.name)
        if isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                lines.append(f'{name}_bucket{_labels(label_items + [("le", repr(bound))])} {cumulative}')
            lines.append(f'{name}_bucket{_labels(label_items + [("le", "+Inf")])} {metric.count}')
            lines.append(f"{name}_sum{base} {metric.total}")
            lines.append(f"{name}_count{base} {metric.count}")
        else:
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.append(f"{name}{base} {metric.read()}")
    return "\n".join(lines) + "\n"


#: Hard ceiling on per-flow label cardinality in one exposition document.
#: A flowstats summary is already capped at its top-k, but an adversarial
#: or hand-built summary must still never emit an unbounded .prom file.
MAX_FLOW_LABELS = 1024

#: Per-flow counters exported from a flowstats record.
_FLOW_FIELDS = (
    "tx_frames",
    "tx_bytes",
    "wire_frames",
    "rx_frames",
    "rx_bytes",
    "drop_frames",
    "fwd_frames",
    "cache_hits",
    "cache_misses",
    "loss_rate",
    "cache_hit_rate",
)


def _flow_label(value) -> str:
    """Sanitize a flow id for use as a Prometheus label value."""
    return _PROM_SANITIZE.sub("_", str(value))[:64]


def flow_prometheus_text(summary: dict, labels: dict[str, str] | None = None) -> str:
    """Render a flowstats summary as labelled Prometheus gauges.

    Cardinality is bounded by construction: only the summary's tracked
    heavy hitters (at most ``MAX_FLOW_LABELS``, normally top-k) get a
    ``flow="<id>"`` label; everything evicted rides the ``flow="other"``
    rollup, and exact aggregate totals export under ``flow="total"`` so
    scrapes can always reconcile the table against the aggregates.
    """
    base_items = sorted((labels or {}).items())

    lines: list[str] = []
    for field in _FLOW_FIELDS:
        lines.append(f"# TYPE {prometheus_name('flow.' + field)} gauge")
    rows = [(str(r["flow"]), r) for r in summary["flows"][:MAX_FLOW_LABELS]]
    rows.append(("other", summary["other"]))
    rows.append(("total", summary["totals"]))
    for flow_label, record in rows:
        decorated = _labels(base_items + [("flow", _flow_label(flow_label))])
        for field in _FLOW_FIELDS:
            lines.append(
                f"{prometheus_name('flow.' + field)}{decorated} {record[field]}"
            )
    base = _labels(base_items)
    fairness = summary["fairness"]
    for key in ("jain", "skew", "loss_p50", "loss_p90", "loss_p99"):
        value = fairness[key]
        if value is None:
            continue
        name = prometheus_name(f"flow.fairness.{key}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{base} {value}")
    for key in ("tracked", "evictions", "top_k"):
        name = prometheus_name(f"flow.{key}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{base} {summary[key]}")
    return "\n".join(lines) + "\n"


#: Numeric TrialSummary fields exported per measurement point.
_TRIAL_FIELDS = (
    "n",
    "mean",
    "std",
    "cv",
    "p5",
    "p50",
    "p95",
    "ci_low",
    "ci_high",
)


def trial_prometheus_text(
    summaries: dict[str, dict], labels: dict[str, str] | None = None
) -> str:
    """Render trial summaries as labelled Prometheus gauges.

    ``summaries`` maps a point label to a
    :meth:`repro.measure.soundness.TrialSummary.to_dict` payload
    (optionally carrying the scheduler's ``status``/``reason``, as
    :meth:`repro.measure.soundness.TrialCampaignResult.summary_dict`
    produces).  Each point gets a ``point="<label>"`` label; the
    instability verdict exports both as a ``verdict`` label on
    ``repro_trials_stable`` (value 1 when stable, else 0) and as a
    ``repro_trials_quarantined`` 0/1 gauge, so alert rules can key on
    either.
    """
    base_items = sorted((labels or {}).items())

    lines: list[str] = []
    for field in _TRIAL_FIELDS:
        lines.append(f"# TYPE {prometheus_name('trials.' + field)} gauge")
    for key in ("stable", "quarantined"):
        lines.append(f"# TYPE {prometheus_name('trials.' + key)} gauge")
    for point, summary in sorted(summaries.items()):
        point_items = base_items + [("point", _flow_label(point))]
        decorated = _labels(point_items)
        for field in _TRIAL_FIELDS:
            value = summary.get(field)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                lines.append(
                    f"{prometheus_name('trials.' + field)}{decorated} {value}"
                )
        verdict = str(summary.get("verdict", "inconclusive"))
        stable = 1 if verdict == "stable" else 0
        lines.append(
            f"{prometheus_name('trials.stable')}"
            f"{_labels(point_items + [('verdict', _flow_label(verdict))])} {stable}"
        )
        quarantined = 1 if summary.get("status") == "quarantined" else 0
        lines.append(
            f"{prometheus_name('trials.quarantined')}{decorated} {quarantined}"
        )
    return "\n".join(lines) + "\n"


def warp_decline_prometheus_text(
    outcomes: Iterable[tuple[str, object]],
    labels: dict[str, str] | None = None,
) -> str:
    """Render campaign fast-forward outcomes as Prometheus counters.

    Consumes ``(key, outcome)`` pairs (the campaign result list) and
    aggregates each record's ``warp`` column: engaged runs count into
    ``repro_warp_engaged_total{mode="..."}``, declines into
    ``repro_warp_declined_total{reason="..."}``.  Records without the
    column (warp disabled, failures, pre-column stored rows) are skipped.
    """
    base_items = sorted((labels or {}).items())
    engaged: dict[str, int] = {}
    declined: dict[str, int] = {}
    for _, outcome in outcomes:
        label = getattr(outcome, "warp", None)
        if not label:
            continue
        if label.startswith("declined:"):
            reason = label.split(":", 1)[1]
            declined[reason] = declined.get(reason, 0) + 1
        else:
            engaged[label] = engaged.get(label, 0) + 1

    lines = [f"# TYPE {prometheus_name('warp.engaged.total')} counter"]
    for mode in sorted(engaged):
        lines.append(
            f"{prometheus_name('warp.engaged.total')}"
            f"{_labels(base_items + [('mode', mode)])} {engaged[mode]}"
        )
    lines.append(f"# TYPE {prometheus_name('warp.declined.total')} counter")
    for reason in sorted(declined):
        lines.append(
            f"{prometheus_name('warp.declined.total')}"
            f"{_labels(base_items + [('reason', _flow_label(reason))])} {declined[reason]}"
        )
    return "\n".join(lines) + "\n"


def snapshot_prometheus_text(snapshots: Iterable[tuple[dict[str, str], dict]]) -> str:
    """Render (labels, snapshot-dict) pairs as Prometheus gauges.

    Used for campaign-level exports where each run contributes a compact
    metric snapshot rather than a live registry: scalars export directly,
    histogram digests export their count/mean/percentile fields.
    """
    lines: list[str] = []
    for labels, snapshot in snapshots:
        decorated = _labels(sorted(labels.items()))
        for name, value in sorted(snapshot.items()):
            if isinstance(value, dict):
                for sub, subvalue in sorted(value.items()):
                    if isinstance(subvalue, (int, float)):
                        lines.append(
                            f"{prometheus_name(name + '.' + sub)}{decorated} {subvalue}\n"
                        )
            elif isinstance(value, (int, float)):
                lines.append(f"{prometheus_name(name)}{decorated} {value}\n")
    return "".join(lines)
