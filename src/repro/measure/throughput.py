"""Throughput methodology (Sec. 5.2) and R+ estimation (Sec. 5.3).

Throughput: offer saturating input ("packets are sent at maximum rate
disregarding any drops" -- deliberately *not* RFC 2544 NDR, see footnote
3) and measure what arrives at the monitor.

R+ (Maximal Forwarding Rate): "rather than trying to identify the
precise R+ ... we define R+ as the average throughput achieved under
saturating input" -- i.e. run the throughput test and take its packet
rate.
"""

from __future__ import annotations

from typing import Callable

from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, RunResult, drive
from repro.scenarios.base import Testbed


def measure_throughput(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    bidirectional: bool = False,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    seed: int = 1,
    **build_kwargs,
) -> RunResult:
    """Saturating-input throughput for one (scenario, switch, size, dir)."""
    tb = build(
        switch_name,
        frame_size=frame_size,
        bidirectional=bidirectional,
        seed=seed,
        **build_kwargs,
    )
    return drive(
        tb,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        bidirectional=bidirectional,
    )


def estimate_r_plus(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    seed: int = 1,
    **build_kwargs,
) -> float:
    """R+ in pps: unidirectional average throughput under saturation."""
    result = measure_throughput(
        build,
        switch_name,
        frame_size,
        bidirectional=False,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        seed=seed,
        **build_kwargs,
    )
    return result.mpps * 1e6
