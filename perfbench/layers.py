"""The traced pass: spans around public calls, self time per layer.

Spans (name, start, end, parent, op) are recorded by ``functools.wraps``
wrappers around the public entry points below, swapped in for the pass
only; per-module self time comes from ``cProfile``.  Neither uses
``Simulator.set_observer`` or ``repro.obs``, which would make the
fast-forward tiers decline (``per-packet-tracing``) and so trace a
different program.

Self time is charged by module: a ``repro`` module belongs to the layer
whose prefix it carries (``LAYERS``); builtins, third-party and standard
library code, and ``repro`` helper modules outside every layer are
charged to their callers, in proportion to the time each caller spent
in them.  Time charged to the benchmark's own files stays unattributed.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import time
from pathlib import Path

import repro
import repro.core.turbo as turbo
import repro.core.warp as warp
import repro.measure.runner as runner
from repro.campaign import CampaignStore, ResultCache, executor, spec
from repro.measure import latency, ndr, resilience
from repro.scenarios import loopback, p2p, p2v, v2v

from perfbench.harness import PassResult, Recorder, patched, run_pass
from perfbench.workloads import Unit

#: layer -> module prefixes.  Meters (repro.core.stats) are measurement.
LAYERS = {
    "campaign": ("repro.campaign",),
    "scenarios": ("repro.scenarios", "repro.testbed"),
    "measure": ("repro.measure", "repro.core.stats"),
    "warp": ("repro.core.warp",),
    "turbo": ("repro.core.turbo",),
    "engine": ("repro.core.engine",),
    "ring": ("repro.core.ring",),
    "packet": ("repro.core.packet",),
    "cpu": ("repro.cpu",),
    "vif": ("repro.vif",),
    "vm": ("repro.vm",),
    "nic": ("repro.nic",),
    "switches": ("repro.switches",),
    "traffic": ("repro.traffic",),
    "flows": ("repro.flows",),
    "faults": ("repro.faults",),
}

#: span name -> per-layer metric (summed span durations).
SPAN_METRICS = {
    "build": "scenarios.build_s",
    "try_warp": "warp.try_s",
    "turbo_drive": "turbo.drive_s",
    "cache.put": "campaign.cache_put_s",
    "store.append": "campaign.store_append_s",
}

_SRC = Path(repro.__file__).resolve().parent.parent
_HARNESS = Path(__file__).resolve().parent
_HARNESS_BUCKET = "(benchmark)"


class Tracer:
    """Span recorder; ``op`` is the recorder's build count at span end."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, None])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span = self.spans[index]
                span[2] = time.perf_counter()
                span[4] = self.recorder.builds

        return traced

    @contextlib.contextmanager
    def installed(self):
        # Resolved now, so build/drive resolve to the recorder's wrappers.
        functions = {
            "run_campaign": executor.run_campaign,
            "execute_run": spec.execute_run,
            "ndr_search": ndr.ndr_search,
            "latency_sweep": latency.latency_sweep,
            "measure_resilience": resilience.measure_resilience,
            "try_warp": warp.try_warp,
            "turbo_drive": turbo.turbo_drive,
            "drive": runner.drive,
        }
        replacements = {fn: self.wrap(name, fn) for name, fn in functions.items()}
        for module in (p2p, p2v, v2v, loopback):
            replacements[module.build] = self.wrap("build", module.build)
        methods = [(ResultCache, "put", "cache.put"), (CampaignStore, "append", "store.append")]
        originals = [(cls, attr, getattr(cls, attr)) for cls, attr, _ in methods]
        for (cls, attr, name), (_, _, fn) in zip(methods, originals):
            setattr(cls, attr, self.wrap(name, fn))
        try:
            with patched(replacements):
                yield
        finally:
            for cls, attr, fn in originals:
                setattr(cls, attr, fn)

    def totals(self) -> dict[str, float]:
        sums = {metric: 0.0 for metric in SPAN_METRICS.values()}
        for name, start, end, _, _ in self.spans:
            if name in SPAN_METRICS:
                sums[SPAN_METRICS[name]] += end - start
        return sums

    def dump(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))


def _bucket(func: tuple) -> str | None:
    """Layer of a profiled function; None when it is charged to callers."""
    filename = func[0]
    if filename == "~" or not filename.endswith(".py"):
        return None
    path = Path(filename)
    if path.is_relative_to(_HARNESS):
        return _HARNESS_BUCKET
    if not path.is_relative_to(_SRC):
        return None
    module = ".".join(path.relative_to(_SRC).with_suffix("").parts)
    module = module.removesuffix(".__init__")
    for layer, prefixes in LAYERS.items():
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return layer
    return None


def attribute(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``cProfile`` stats (see module doc)."""
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, visiting: frozenset) -> dict[str, float]:
        """Which layers a function charged to its callers runs for."""
        bucket = _bucket(func)
        if bucket is not None:
            return {bucket: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[3] for entry in callers.values())
        if func in visiting or total <= 0:
            return {"(unattributed)": 1.0}
        shares: dict[str, float] = {}
        for caller, entry in callers.items():
            for owner, share in owners(caller, visiting | {func}).items():
                shares[owner] = shares.get(owner, 0.0) + share * entry[3] / total
        memo[func] = shares
        return shares

    seconds: dict[str, float] = {}
    for func, (_, _, self_s, _, callers) in stats.items():
        bucket = _bucket(func)
        if bucket is not None:
            seconds[bucket] = seconds.get(bucket, 0.0) + self_s
            continue
        for caller, entry in callers.items():
            for owner, share in owners(caller, frozenset({func})).items():
                seconds[owner] = seconds.get(owner, 0.0) + share * entry[2]
    return seconds


def traced_pass(units: list[Unit], workdir: Path, spans_path: Path
                ) -> tuple[PassResult, dict[str, float], float]:
    """(pass, per-layer seconds, attributed share of the traced wall time)."""
    recorder = Recorder()
    tracer = Tracer(recorder)
    profiler = cProfile.Profile()
    recorder.profiler = profiler
    origin = time.perf_counter()

    @contextlib.contextmanager
    def around():
        with tracer.installed():
            profiler.enable()
            try:
                yield
            finally:
                profiler.disable()

    result = run_pass(units, workdir, recorder, around)
    profiler.create_stats()
    seconds = attribute(profiler.stats)
    tracer.dump(spans_path, origin)

    layer_times = {f"{layer}.self_s": seconds.get(layer, 0.0) for layer in LAYERS}
    layer_times.update(tracer.totals())
    attributed = sum(seconds.get(layer, 0.0) for layer in LAYERS) / result.makespan_s
    others = {k: round(v, 4) for k, v in seconds.items() if k not in LAYERS}
    print(f"  self time outside the layers: {others}", flush=True)
    return result, layer_times, attributed
