"""Benchmark entry point: one workload run in a fresh interpreter.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/`` tree.  Human-readable lines go first; the last line of standard
output is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` it holds the end-to-end metrics of
the timed passes that fit in ``--seconds`` with the reference pass (at
least two), their times scaled to a reference host speed; with
``--trace 1`` the per-layer metrics of one untraced and one traced
pass.  Every run also makes one reference pass with the fast-forward
tiers off to check the outputs.  Exits non-zero without a result when
the sources are missing or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment switches that change which program runs: REPRO_WARP turns
#: the exact tiers off, REPRO_FLUID swaps in the approximate tier and
#: REPRO_WATCHDOG makes every tier decline.  Cleared before ``repro`` is
#: imported; the set-up probes inherit the cleared environment.
PINNED_ENV = ("REPRO_WARP", "REPRO_FLUID", "REPRO_WATCHDOG", "REPRO_WATCHDOG_REPORT")
#: numpy's BLAS thread pools, set to one thread before numpy loads: the
#: simulator's BLAS calls are too small to use more, but an OpenBLAS
#: pool thread spins at start-up on the host's second core, and the
#: set-up probes' times then depend on what else shares that core.
ONE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the fresh interpreter that setup_s times.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src}/repro", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    for name in ONE_THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        result = harness.run_traced(args.workload, args.seed, ROOT)
    else:
        probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)]
        result = harness.run_untraced(args.workload, args.seed, args.seconds, ROOT, probe)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
