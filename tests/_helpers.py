"""Shared helpers for the test suite (imported via the conftest path hook)."""

from __future__ import annotations

#: Reduced measurement windows for tests: enough simulated time for rates
#: to stabilise, small enough to keep the suite fast.
FAST_WARMUP_NS = 200_000.0
FAST_MEASURE_NS = 800_000.0


def fast_throughput(build, switch_name, frame_size=64, **kwargs):
    """measure_throughput with the reduced test windows."""
    from repro.measure.throughput import measure_throughput

    return measure_throughput(
        build,
        switch_name,
        frame_size,
        warmup_ns=FAST_WARMUP_NS,
        measure_ns=FAST_MEASURE_NS,
        **kwargs,
    )


def full_throughput(build, switch_name, frame_size=64, **kwargs):
    """measure_throughput with the production default windows.

    Needed where transients are long relative to the fast windows: VALE's
    adaptive mega-batches on long chains, and t4p4s's long jitter episodes.
    """
    from repro.measure.throughput import measure_throughput

    return measure_throughput(build, switch_name, frame_size, **kwargs)


def count_opcodes(func, codes) -> int:
    """Bytecodes that ``func()`` executes in frames of ``codes``.

    A deterministic cost count for hot-path overhead checks: it does not
    drift with the host the way a wall-clock ratio does.  Only the code
    objects under test are instrumented; every other frame runs
    untraced.  Counts differ between interpreter versions, so compare
    only counts taken in the same process.

    Python 3.12 and later count through ``sys.monitoring``, because there
    ``sys.settrace`` can miss every opcode of a count: 3.12 sends opcode
    events only if some frame asked for them before tracing started, and
    3.13 sends none on a code object's first traced call.
    """
    import sys

    count = 0
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:

        def on_instruction(code, offset):
            nonlocal count
            count += 1

        tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
        monitoring.use_tool_id(tool, "count_opcodes")
        try:
            monitoring.register_callback(
                tool, monitoring.events.INSTRUCTION, on_instruction
            )
            for code in codes:
                monitoring.set_local_events(tool, code, monitoring.events.INSTRUCTION)
            func()
        finally:
            for code in codes:
                monitoring.set_local_events(tool, code, 0)
            monitoring.register_callback(tool, monitoring.events.INSTRUCTION, None)
            monitoring.free_tool_id(tool)
        return count

    codes = frozenset(codes)

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def dispatch(frame, event, arg):
        if frame.f_code not in codes:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(dispatch)
    try:
        func()
    finally:
        sys.settrace(previous)
    return count
