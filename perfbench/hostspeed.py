"""Host-speed calibration: host times scaled to a fixed reference speed.

On the 2-vCPU reference host (a shared x86 machine) the same
single-threaded code runs up to 1.7x slower in phases that last from
seconds to minutes.  No steal time is reported and CPU time slows with
wall time, so the fastest or the median repetition of an op still
follows the phase its run fell in, and two runs minutes apart differ by
far more than any bound worth setting.

A fixed pure-Python kernel -- heap, dict, attribute and call work of the
kind the simulator does, and nothing from ``repro`` -- is timed next to
every op, outside the op's timed span.  The kernel reacts to a slow
phase somewhat more than the simulator does: over three minutes of
phases, the log of three different ops' times rose 0.83-0.87 times as
fast as the log of the kernel's time (0.92-0.97 times for a tiny
``repro`` run in the kernel's place -- which a benchmark cannot use, as
it would cancel the program's own changes).  The host's slowdown at a
moment is therefore ``(kernel time / REFERENCE_KERNEL_S) **
SENSITIVITY``; host times are divided by it, and so read as seconds on a
host where the kernel takes ``REFERENCE_KERNEL_S``.  A change to
``repro`` moves the op times and not the kernel, so it shows in full.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel time that defines the reference speed: about the kernel's time
#: in the fast phases of the reference host.
REFERENCE_KERNEL_S = 0.0026
#: How the simulator's host time scales with the kernel's (see above).
SENSITIVITY = 0.85
#: Heap entries per kernel call.
ROUNDS = 4000
#: Kernel samples on each side that share a sample's slowdown estimate.
WINDOW = 4


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0.0
        self.hits = 0


_CELLS = [_Cell() for _ in range(64)]


def _relax(due: float, cell: _Cell) -> float:
    cell.hits = (cell.hits + 1) & 0xFFFF
    cell.value = cell.value * 0.5 + due
    return cell.value


def kernel_seconds() -> float:
    """Host seconds one call of the calibration kernel takes now."""
    started = time.perf_counter()
    heap: list[float] = []
    table: dict[int, int] = {}
    for i in range(ROUNDS):
        cell = _CELLS[i & 63]
        heapq.heappush(heap, _relax(float(i * 37 % 101), cell))
        table[i & 255] = table.get(i & 255, 0) + cell.hits
    while heap:
        _relax(heapq.heappop(heap), _CELLS[len(heap) & 63])
    return time.perf_counter() - started


def slowdown(samples: list[float]) -> float:
    """The host's slowdown against the reference speed, from kernel times."""
    return (statistics.median(samples) / REFERENCE_KERNEL_S) ** SENSITIVITY


def slowdowns(samples: list[float]) -> list[float]:
    """Per kernel sample in time order: the slowdown from the samples
    within ``WINDOW`` of it (a phase lasts far longer than the window)."""
    return [
        slowdown(samples[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(len(samples))
    ]
