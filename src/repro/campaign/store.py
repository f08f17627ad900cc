"""Campaign result persistence: append-only JSONL plus CSV export.

Every finished run (result or failure) is appended as one JSON line the
moment it lands, so a campaign killed halfway leaves a usable partial
record -- :meth:`CampaignStore.load` keyed by the cache key is what
``--resume`` consumes to skip completed work.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.campaign.spec import RunFailure, RunRecord, outcome_from_dict

CSV_COLUMNS = (
    "key",
    "scenario",
    "switch",
    "frame_size",
    "bidirectional",
    "n_vnfs",
    "seed",
    "kind",
    "status",
    "gbps",
    "mpps",
    "latency_mean_us",
    "latency_std_us",
    "events",
    "wall_clock_s",
    "error",
    "metrics",
    "flowstats",
    "trials",
    "warp",
)


class CampaignStore:
    """One campaign's results on disk, one JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, key: str, outcome: RunRecord | RunFailure) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = outcome.to_dict()
        payload["key"] = key
        with self.path.open("a+") as fh:
            # A process killed mid-write leaves a torn final line with no
            # newline; terminate it so this record starts on a clean line
            # (the torn fragment then fails json.loads on its own and is
            # skipped by load(), costing exactly one row).
            fh.seek(0, 2)
            if fh.tell() > 0:
                fh.seek(fh.tell() - 1)
                if fh.read(1) != "\n":
                    fh.write("\n")
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def load(self) -> dict[str, RunRecord | RunFailure]:
        """Replay the log into {key: outcome}; later lines win.

        Failures are loaded but *not* treated as completed by the
        executor, so resuming a campaign retries exactly the runs that
        failed or never ran.
        """
        outcomes: dict[str, RunRecord | RunFailure] = {}
        if not self.path.exists():
            return outcomes
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from a killed process
                key = data.pop("key", None)
                if key is None:
                    continue
                outcomes[key] = outcome_from_dict(data)
        return outcomes

    def completed_keys(self) -> set[str]:
        """Keys with a successful (or inapplicable) record on disk."""
        return {
            key
            for key, outcome in self.load().items()
            if isinstance(outcome, RunRecord)
        }


def _row_for(outcome: RunRecord | RunFailure, key: str) -> dict:
    spec = outcome.spec
    row = {
        "key": key,
        "scenario": spec.scenario,
        "switch": spec.switch,
        "frame_size": spec.frame_size,
        "bidirectional": spec.bidirectional,
        "n_vnfs": spec.n_vnfs,
        "seed": spec.seed,
        "kind": spec.kind,
        "status": outcome.status,
        "gbps": "",
        "mpps": "",
        "latency_mean_us": "",
        "latency_std_us": "",
        "events": "",
        "wall_clock_s": f"{outcome.wall_clock_s:.3f}",
        "error": "",
        "metrics": "",
        "flowstats": "",
        "trials": "",
        "warp": "",
    }
    if isinstance(outcome, RunFailure):
        row["error"] = f"{outcome.error}: {outcome.message}"
    elif outcome.status == "ok":
        row["gbps"] = f"{outcome.gbps:.4f}"
        row["mpps"] = f"{outcome.mpps:.4f}"
        if outcome.latency_mean_us is not None:
            row["latency_mean_us"] = f"{outcome.latency_mean_us:.2f}"
        if outcome.latency_std_us is not None:
            row["latency_std_us"] = f"{outcome.latency_std_us:.2f}"
        row["events"] = outcome.events
    if getattr(outcome, "metrics", None) is not None:
        row["metrics"] = json.dumps(outcome.metrics, sort_keys=True)
    if getattr(outcome, "flowstats", None) is not None:
        row["flowstats"] = json.dumps(outcome.flowstats, sort_keys=True)
    if getattr(outcome, "trials", None) is not None:
        row["trials"] = json.dumps(outcome.trials, sort_keys=True)
    if getattr(outcome, "warp", None) is not None:
        row["warp"] = outcome.warp
    return row


def export_csv(
    outcomes: Iterable[tuple[str, RunRecord | RunFailure]] | dict,
    path: str | Path,
) -> Path | None:
    """Write (key, outcome) pairs (or a load() mapping) as a CSV table.

    ``path="-"`` streams the table to stdout (for shell pipelines:
    ``repro-bench campaign ... --export-csv - > results.csv``) and
    returns None.
    """
    if isinstance(outcomes, dict):
        outcomes = outcomes.items()
    if str(path) == "-":
        import sys

        _write_csv(sys.stdout, outcomes)
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        _write_csv(fh, outcomes)
    return path


def _write_csv(fh, outcomes: Iterable[tuple[str, RunRecord | RunFailure]]) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for key, outcome in outcomes:
        writer.writerow(_row_for(outcome, key))
