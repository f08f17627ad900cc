"""Self-tests of the benchmark itself, on smoke-sized workloads.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

* a smoke-sized run of every workload emits every metric BENCHMARK.json
  names, with its unit -- end-to-end untraced, per-layer traced -- and
  is correct at this commit;
* an injected reference-digest mismatch is counted as a failed op;
* the per-layer counts repeat exactly across two fresh interpreters with
  different hash seeds (host- or process-dependent behaviour shows up as
  a mismatch).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _probe(workload: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", "1"]


def _smoke_counts(workload: str) -> dict:
    units = WORKLOADS[workload].make_units(1, True)
    result = _quiet(harness.run_pass, units, harness._workdir(ROOT, workload) / "counts")
    return harness.layer_counts(result)


def _check_metrics(label: str, result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: not correct ({result['failed']}/{result['attempted']} failed)")
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None:
            problems.append(f"{label}: metric {name} missing")
        elif metric["unit"] != unit:
            problems.append(f"{label}: {name} unit {metric['unit']!r} != {unit!r}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    if sys.argv[1:2] == ["--counts"]:
        print(json.dumps(_smoke_counts(sys.argv[2])))
        return 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    problems: list[str] = []
    for name in WORKLOADS:
        plain = _quiet(harness.run_untraced, name, 1, 1, ROOT, _probe(name), smoke=True)
        problems += _check_metrics(f"{name} untraced", plain, end_to_end)
        traced = _quiet(harness.run_traced, name, 1, ROOT, smoke=True)
        problems += _check_metrics(f"{name} traced", traced, per_layer)
        counts = []
        for hash_seed in ("1", "2"):
            child = subprocess.run(
                [sys.executable, __file__, "--counts", name],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, check=True,
            )
            counts.append(json.loads(child.stdout.strip().splitlines()[-1]))
        if counts[0] != counts[1]:
            problems.append(f"{name}: per-layer counts differ across interpreters")
        print(f"{name}: smoke runs checked", flush=True)

    injected = _quiet(harness.run_untraced, "rate-search", 1, 1, ROOT, _probe("rate-search"),
                      smoke=True, corrupt_reference=True)
    if injected["failed"] < 1 or injected["correct"]:
        problems.append(f"injected mismatch not counted: {injected}")
    else:
        print(f"injected mismatch: failed_frac "
              f"{injected['failed'] / injected['attempted']:.4f}", flush=True)

    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    print("selftest: " + ("FAILED" if problems else "ok"), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
