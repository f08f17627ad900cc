"""Measurement harness: op recording, correctness digests, passes, metrics.

The harness times ``repro`` from the outside.  While a pass runs, the
scenario ``build`` functions and ``repro.measure.runner.drive`` are
replaced -- in every ``repro`` module that holds them -- by thin
``functools.wraps`` wrappers that timestamp the op (build call to drive
return) and, after ``drive`` returns, read the testbed's public state
into a digest and a set of deterministic counters.  That bookkeeping is
timed and taken out of the pass's makespan.

Correctness: every pass is compared op by op with a reference pass run
with the fast-forward tiers off (``REPRO_WARP=0``), the event-by-event
path the tiers are verified against.  The digests leave out
``events_executed`` and the heap seq, as ``tools/golden_stats.py`` does.

Host time on a shared machine swings with the machine's load, so the
end-to-end times are scaled to a reference host speed measured next to
every op (:mod:`perfbench.hostspeed`), and a run repeats identical
passes and takes each op at its median repetition (see
:func:`run_untraced`); the raw pass wall times and the host's slowdown
are printed alongside.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import repro.measure.runner as runner
from repro.core.warp import engine_features
from repro.scenarios import loopback, p2p, p2v, v2v

from perfbench import hostspeed
from perfbench.workloads import WORKLOADS, Unit, UnitOutcome

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 7
#: Fewest timed passes of an end-to-end run.
MIN_PASSES = 2


# -- patching ----------------------------------------------------------------

@contextlib.contextmanager
def patched(replacements: dict):
    """Swap every ``repro`` module attribute that *is* a key of
    ``replacements`` for its value, and restore them on exit.

    Identity matching reaches the names other modules imported with
    ``from ... import`` as well as the defining module's own.
    """
    by_id = {id(original): wrapper for original, wrapper in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


# -- per-op records ----------------------------------------------------------

@dataclass
class Op:
    #: (unit index, build ordinal within the unit): aligns an op with its
    #: reference even when a run raises before reaching ``drive``.
    key: tuple[int, int]
    label: str
    seconds: float
    digest: str
    tier: str
    counts: dict
    #: Calibration kernel time taken right after the op (0 when off).
    kernel_s: float = 0.0


def tier_label(report) -> str:
    """An op's fast-forward verdict: the engaged tier or the decline."""
    if report is None:
        return "off"
    if report.engaged:
        return report.mode
    return f"declined[{report.mode}]:{report.reason}"


def _rings_and_ports(tb) -> tuple[list, list]:
    rings: dict[int, object] = {}
    ports: dict[int, object] = {}
    for attachment in tb.switch.attachments:
        rings[id(attachment.input_ring)] = attachment.input_ring
        port = getattr(attachment, "port", None)
        for candidate in (port, getattr(port, "peer", None)):
            if candidate is not None:
                ports[id(candidate)] = candidate
    for path in tb.switch.paths:
        rings[id(path.link)] = path.link
    vifs = [vif for vm in tb.vms for vif in vm.interfaces]
    vifs += list(tb.extras.get("vifs", ()))
    for vif in vifs:
        rings[id(vif.to_guest)] = vif.to_guest
        rings[id(vif.to_host)] = vif.to_host
    for key in ("gen_ports", "sut_ports"):
        for port in tb.extras.get(key, ()):
            ports[id(port)] = port
    for port in ports.values():
        rings[id(port.rx_ring)] = port.rx_ring
    return list(rings.values()), list(ports.values())


def observe_op(tb, result) -> tuple[str, dict]:
    """Digest of an op's simulated observables, plus its counters."""
    rings, ports = _rings_and_ports(tb)
    cache = tb.switch.cache_stats()
    latency = result.latency
    latency_view = None
    if latency is not None and len(latency):
        latency_view = (
            len(latency), repr(latency.mean_us), repr(latency.std_us),
            repr(latency.min_us), repr(latency.max_us), repr(latency.percentile_us(99)),
        )
    view = (
        tuple((m.packets, m.bytes, m.warmup_packets) for m in tb.meters),
        tuple(map(repr, result.per_direction_gbps)),
        tuple(map(repr, result.per_direction_mpps)),
        latency_view,
        tuple(sorted((r.name, r.enqueued, r.dropped, len(r)) for r in rings)),
        tuple(sorted(
            (p.name, p.tx_packets, p.tx_bytes, p.tx_dropped, p.driver_drops, p.rx_packets)
            for p in ports
        )),
        tuple(sorted((k, repr(v)) for k, v in cache.items())),
    )
    report = result.warp
    engaged = report is not None and report.engaged
    counts = {
        "events": tb.sim.events_executed,
        "replayed": report.events_replayed if engaged else 0,
        "warped_ns": report.warped_ns if engaged and report.mode == "replay" else 0.0,
        "window_ns": result.duration_ns,
        "delivered": sum(m.packets + m.warmup_packets for m in tb.meters),
        "ring.enqueued": sum(r.enqueued for r in rings),
        "ring.dropped": sum(r.dropped for r in rings),
        "nic.tx_frames": sum(p.tx_packets for p in ports),
        "nic.driver_drops": sum(p.driver_drops for p in ports),
        "cache.hits": sum(v for k, v in cache.items() if k.endswith("_hits")),
        "cache.lookups": sum(
            v for k, v in cache.items() if k.endswith(("_hits", "_misses"))
        ),
    }
    digest = hashlib.sha256(repr(view).encode()).hexdigest()[:24]
    return digest, counts


class Recorder:
    """Captures one :class:`Op` per ``drive`` call while installed.

    ``profiler`` (set by the traced pass) is paused during bookkeeping so
    the trace charges only the program's own work.  With ``calibrate``
    the bookkeeping also times the host-speed kernel.
    """

    BUILDS = (p2p.build, p2v.build, v2v.build, loopback.build)

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.ops: list[Op] = []
        self.unit = 0
        self.unit_builds = 0
        self.builds = 0
        self.bookkeeping_s = 0.0
        self.profiler = None
        self._started = 0.0

    def start_unit(self, index: int) -> None:
        self.unit = index
        self.unit_builds = 0

    def _wrap_build(self, build):
        @functools.wraps(build)
        def recorded_build(*args, **kwargs):
            self._started = time.perf_counter()
            self.builds += 1
            self.unit_builds += 1
            return build(*args, **kwargs)

        return recorded_build

    def _wrap_drive(self, drive):
        @functools.wraps(drive)
        def recorded_drive(tb, *args, **kwargs):
            result = drive(tb, *args, **kwargs)
            ended = time.perf_counter()
            if self.profiler is not None:
                self.profiler.disable()
            digest, counts = observe_op(tb, result)
            self.ops.append(Op(
                key=(self.unit, self.unit_builds),
                label=f"{tb.scenario}/{tb.switch.params.name}/{tb.frame_size}B",
                seconds=ended - self._started,
                digest=digest,
                tier=tier_label(result.warp),
                counts=counts,
                kernel_s=hostspeed.kernel_seconds() if self.calibrate else 0.0,
            ))
            if self.profiler is not None:
                self.profiler.enable()
            self.bookkeeping_s += time.perf_counter() - ended
            return result

        return recorded_drive

    def installed(self):
        replacements = {build: self._wrap_build(build) for build in self.BUILDS}
        replacements[runner.drive] = self._wrap_drive(runner.drive)
        return patched(replacements)


# -- passes ------------------------------------------------------------------

@dataclass
class PassResult:
    #: Wall time of the pass minus the recorder's bookkeeping.
    makespan_s: float
    ops: list[Op]
    outcomes: list[UnitOutcome]
    builds: int

    def by_key(self) -> dict[tuple[int, int], Op]:
        return {op.key: op for op in self.ops}


def run_pass(units: list[Unit], workdir: Path, recorder: Recorder | None = None,
             around=contextlib.nullcontext) -> PassResult:
    """Run every unit once, closed loop, one op at a time.

    ``around`` wraps the timed region (the traced pass enables its
    profiler there).  The pass's wall time excludes the recorder's
    bookkeeping.
    """
    recorder = recorder or Recorder()
    outcomes: list[UnitOutcome] = []
    workdir.mkdir(parents=True, exist_ok=True)
    with recorder.installed(), around():
        started = time.perf_counter()
        for index, unit in enumerate(units):
            recorder.start_unit(index)
            try:
                outcomes.append(unit(workdir))
            except Exception as exc:  # recorded as a failed op, pass goes on
                traceback.print_exc(file=sys.stderr)
                outcomes.append(UnitOutcome(digest=("raised", repr(exc)), failures=1))
        wall = time.perf_counter() - started
    shutil.rmtree(workdir, ignore_errors=True)
    return PassResult(
        makespan_s=wall - recorder.bookkeeping_s,
        ops=recorder.ops,
        outcomes=outcomes,
        builds=recorder.builds,
    )


def reference_pass(units: list[Unit], workdir: Path) -> PassResult:
    """The same units with the fast-forward tiers off."""
    os.environ["REPRO_WARP"] = "0"
    try:
        return run_pass(units, workdir)
    finally:
        del os.environ["REPRO_WARP"]


def verify(run: PassResult, ref: PassResult, compare_tiers: bool = False) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of ``run`` against ``ref``.

    An op fails when it is missing, extra, or its digest differs (and,
    with ``compare_tiers``, when its tier label differs); a unit that
    raised, reported failed campaign rows, or whose unit-level digest
    differs fails at least one op.
    """
    attempted = failed = 0
    problems: list[str] = []
    mine, theirs = run.by_key(), ref.by_key()
    for index, (outcome, expected) in enumerate(zip(run.outcomes, ref.outcomes)):
        keys = sorted({k for k in mine if k[0] == index} | {k for k in theirs if k[0] == index})
        bad_ops = 0
        for key in keys:
            a, b = mine.get(key), theirs.get(key)
            if a is None or b is None or a.digest != b.digest or (
                compare_tiers and a.tier != b.tier
            ):
                bad_ops += 1
                if len(problems) < 10:
                    label = (a or b).label
                    what = "missing" if a is None else "extra" if b is None else (
                        f"digest {a.digest} != {b.digest}" if a.digest != b.digest
                        else f"tier {a.tier} != {b.tier}"
                    )
                    problems.append(f"op {key} {label}: {what}")
        unit_bad = outcome.failures
        if not unit_bad and outcome.digest != expected.digest:
            unit_bad = 1
            problems.append(f"unit {index}: digest differs from reference")
        failed += max(bad_ops, unit_bad)
        attempted += max(len(keys), bad_ops, unit_bad)
    return attempted, failed, problems


# -- metrics -----------------------------------------------------------------


def layer_counts(result: PassResult) -> dict[str, float]:
    """Deterministic per-layer counters of one pass (public state only)."""
    ops = result.ops

    def total(key: str, subset=ops):
        return sum(op.counts[key] for op in subset)

    replay = [op for op in ops if op.tier == "replay"]
    turbo = [op for op in ops if op.tier == "turbo"]
    attempts = [op for op in ops if op.tier != "off"]
    events = total("events")
    dispatched = events - total("replayed")
    lookups = total("cache.lookups")
    counts = {
        "scenarios.builds": result.builds,
        "warp.attempts": len(attempts),
        "warp.engaged": len(replay),
        "warp.engage_frac": len(replay) / len(attempts) if attempts else 0.0,
        "warp.ff_ns_frac": total("warped_ns") / total("window_ns") if ops else 0.0,
        "turbo.attempts": len(attempts) - len(replay),
        "turbo.engaged": len(turbo),
        "turbo.engage_frac": (
            len(turbo) / (len(attempts) - len(replay)) if len(attempts) > len(replay) else 0.0
        ),
        "turbo.bulk_event_frac": total("replayed", turbo) / events if events else 0.0,
        "engine.events": events,
        "engine.dispatched_events": dispatched,
        "engine.dispatched_per_pkt": dispatched / max(1, total("delivered")),
        "ring.enqueued": total("ring.enqueued"),
        "ring.dropped": total("ring.dropped"),
        "nic.tx_frames": total("nic.tx_frames"),
        "nic.driver_drops": total("nic.driver_drops"),
        "switches.cache_hit_frac": total("cache.hits") / lookups if lookups else 1.0,
        "ndr.trials": 0,
        "latency.probe_samples": 0,
        "faults.injected": 0,
    }
    for outcome in result.outcomes:
        for name, value in outcome.counts.items():
            counts[name] += value
    return counts


def tier_mix(result: PassResult) -> dict[str, int]:
    mix: dict[str, int] = {}
    for op in result.ops:
        mix[op.tier] = mix.get(op.tier, 0) + 1
    return dict(sorted(mix.items(), key=lambda item: (-item[1], item[0])))


def tail(times: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest nearest-rank percentile with at
    least 10 ops beyond it; None below 20 ops (it would not be a tail)."""
    n = len(times)
    if n < 20:
        return None
    rank = n - 10
    return sorted(times)[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(probe_argv: list[str], count: int = SETUP_PROBES) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports that
    ``repro`` is imported and the workload's units are built.

    Raw host seconds: kernel samples next to one probe do not track its
    time, so :func:`run_untraced` scales their median by the whole run's
    slowdown, which does follow the host's phases."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(probe_argv, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}): {line!r}")
    return samples


def scaled_op_times(result: PassResult) -> tuple[dict[tuple[int, int], float], float]:
    """(op key -> op seconds, between-op seconds) of a calibrated pass,
    each divided by the host's slowdown at the time."""
    factors = hostspeed.slowdowns([op.kernel_s for op in result.ops])
    ops = {op.key: op.seconds / factor for op, factor in zip(result.ops, factors)}
    between = result.makespan_s - sum(op.seconds for op in result.ops)
    return ops, between / statistics.median(factors)


# -- runs --------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _say(line: str) -> None:
    print(line, flush=True)


def _workdir(root: Path, workload: str) -> Path:
    return root / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"


def run_untraced(workload: str, seed: int, seconds: int, root: Path,
                 probe_argv: list[str], smoke: bool = False,
                 corrupt_reference: bool = False) -> dict:
    """End-to-end run: set-up probes, timed passes, reference, checks."""
    spec = WORKLOADS[workload]
    units = spec.make_units(seed, smoke)
    workdir = _workdir(root, workload)
    features = engine_features()
    setup = measure_setup(probe_argv, count=2 if smoke else SETUP_PROBES)

    # ``seconds`` hold the first timed pass, the reference pass and the
    # further timed passes that still end within them -- at least
    # MIN_PASSES in all, so a slow host shortens the run instead of
    # overrunning it.  Peak memory is that of the first pass: the later
    # ones only repeat it, and would add allocator growth that depends
    # on how many fit.
    results: list[PassResult] = []

    def timed_pass() -> float:
        pass_started = time.perf_counter()
        results.append(run_pass(
            units, workdir / f"pass{len(results)}", Recorder(calibrate=True)
        ))
        return time.perf_counter() - pass_started

    started = time.perf_counter()
    last_wall = timed_pass()
    rss = peak_rss_mb()
    ref = reference_pass(units, workdir / "reference")
    while len(results) < MIN_PASSES or (
        time.perf_counter() - started + last_wall <= seconds
    ):
        last_wall = timed_pass()
    passes = len(results)
    shutil.rmtree(workdir, ignore_errors=True)
    if corrupt_reference:  # self-test hook: one reference op no longer matches
        ref.ops[0].digest = "corrupted"

    attempted = failed = 0
    problems: list[str] = []
    for result in results:
        a, f, p = verify(result, ref)
        attempted += a
        failed += f
        problems += p
    counts = [layer_counts(result) for result in results]
    deterministic = all(c == counts[0] for c in counts[1:])
    if not deterministic:
        problems.append("per-layer counts differ between passes of one seed")

    # Times are at the reference host speed.  Every pass repeats
    # identical ops: an op's time is its median repetition, and the
    # makespan is those plus the median between-op time of a pass
    # (campaign keying, cache and store writes, search bookkeeping).
    repetitions: dict[tuple[int, int], list[float]] = {}
    betweens = []
    for result in results:
        ops, between = scaled_op_times(result)
        for key, seconds in ops.items():
            repetitions.setdefault(key, []).append(seconds)
        betweens.append(between)
    op_times = [statistics.median(times) for times in repetitions.values()]
    tail_value = tail(op_times)
    metrics = {
        "makespan_s": _metric(sum(op_times) + statistics.median(betweens), "s"),
        "op_p50_s": _metric(statistics.median(op_times), "s"),
    }
    if tail_value is not None:
        metrics["op_tail_s"] = _metric(tail_value[0], "s")
    run_slowdown = hostspeed.slowdown([op.kernel_s for r in results for op in r.ops])
    metrics["setup_s"] = _metric(statistics.median(setup) / run_slowdown, "s")
    metrics["peak_rss_mb"] = _metric(rss, "MB")
    pass_slowdowns = [
        hostspeed.slowdown([op.kernel_s for op in result.ops]) for result in results
    ]

    _say(f"perfbench {workload} seed={seed} passes={passes} units={len(units)} "
         f"engine_features={features}")
    _say(f"  host slowdown per pass {[round(f, 3) for f in pass_slowdowns]}, raw pass wall "
         f"times {[round(r.makespan_s, 3) for r in results]} s; the times below are at the "
         f"reference speed (kernel {hostspeed.REFERENCE_KERNEL_S * 1e3:g} ms)")
    _say(f"  makespan_s   {metrics['makespan_s']['value']:.4f} s   {len(op_times)} ops at their "
         f"median of {passes} passes")
    _say(f"  op_p50_s     {metrics['op_p50_s']['value']:.6f} s   median of {len(op_times)} ops")
    if tail_value is not None:
        _say(f"  op_tail_s    {tail_value[0]:.6f} s   p{tail_value[1]:.2f} of "
             f"{len(op_times)} ops (10 beyond)")
    else:
        _say(f"  op_tail_s    omitted: {len(op_times)} ops support no tail")
    _say(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setup)} "
         f"fresh interpreters ({statistics.median(setup):.4f} s raw, run slowdown "
         f"{run_slowdown:.3f})")
    _say(f"  peak_rss_mb  {rss:.1f} MB   1 process, first pass")
    _say(f"  failed_frac  {failed / max(1, attempted):.6f}   {failed}/{attempted} ops")
    mix = tier_mix(results[0])
    _say(f"  tiers/pass   {mix}   reference {tier_mix(ref)}")
    if not smoke and mix != spec.expected_tiers:
        _say(f"  note: tier mix differs from the sizing mix {spec.expected_tiers}")
    for problem in problems:
        _say(f"  PROBLEM {problem}")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, root: Path, smoke: bool = False) -> dict:
    """Per-layer run: one untraced pass for counts, one traced pass for
    self times and spans, and the reference pass for correctness."""
    from perfbench.layers import traced_pass

    units = WORKLOADS[workload].make_units(seed, smoke)
    workdir = _workdir(root, workload)
    features = engine_features()
    plain = run_pass(units, workdir / "untraced")
    traced, layer_times, attribution = traced_pass(
        units, workdir / "traced", workdir.parent / f"spans-{workload}-{seed}.json"
    )
    ref = reference_pass(units, workdir / "reference")
    shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = verify(plain, ref)
    a, f, p = verify(traced, plain, compare_tiers=True)
    attempted += a
    failed += f
    problems += [f"traced vs untraced: {line}" for line in p]
    counts = layer_counts(plain)
    if layer_counts(traced) != counts:
        problems.append("per-layer counts differ between the traced and untraced pass")

    metrics = {name: _metric(value, _count_unit(name)) for name, value in counts.items()}
    for name, value in layer_times.items():
        metrics[name] = _metric(value, "s")
    metrics["trace.attributed_frac"] = _metric(attribution, "ratio")
    metrics["trace.overhead"] = _metric(traced.makespan_s / plain.makespan_s, "ratio")

    _say(f"perfbench {workload} seed={seed} traced engine_features={features}")
    _say(f"  untraced makespan {plain.makespan_s:.4f} s, traced {traced.makespan_s:.4f} s, "
         f"attributed {attribution:.4f}")
    for name in sorted(metrics):
        _say(f"  {name:28s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    _say(f"  tiers/pass {tier_mix(plain)}")
    for problem in problems:
        _say(f"  PROBLEM {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _count_unit(name: str) -> str:
    if name.endswith(("_frac", "_per_pkt")):
        return "ratio"
    return "count"


def setup_probe(workload: str, seed: int) -> None:
    """Body of a set-up probe: the imports are done; build the units."""
    WORKLOADS[workload].make_units(seed, False)
    print("ready", flush=True)
