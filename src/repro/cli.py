"""Command-line entry point: run one experiment from a shell.

Examples::

    repro-bench p2p --switch vpp --size 64 --bidirectional
    repro-bench loopback --switch vale --vnfs 3 --size 1024
    repro-bench p2p --switch bess --latency
    repro-bench p2p --switch vpp --profile --metrics
    repro-bench trace p2p --switch vpp --trace-out trace.json
    repro-bench flowstats p2p --switch ovs-dpdk --flows 100k --flow-dist zipf \\
        --top-k 64
    repro-bench resilience p2p --switch vale \\
        --fault nic-link-flap@sut-nic.p1:at_ns=1200000,duration_ns=300000
    repro-bench v2v-latency --switch snabb
    repro-bench suite --switch vpp --suite smoke --workers 4
    repro-bench validate --workers 4 --cache
    repro-bench campaign --suite paper --workers 4 --repeat 5 \\
        --seed-policy trial --ci-target 0.05 --trial-summary trials.json \\
        --store paper.jsonl --export-csv paper.csv

Each command declares exactly the flags it reads (``repro-bench
<command> --help``), and options follow the command.  Progress and
telemetry go to stderr; tables, measurements and ``--export-csv -`` go
to stdout, so output can be piped or redirected cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.tables import format_table
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, drive
from repro.scenarios import BUILDERS, v2v
from repro.switches.registry import switch_names

#: Scenarios with a throughput data path: the only ones that carry
#: --bidirectional and the flow axis (v2v-latency drives a fixed probe).
_THROUGHPUT_TARGETS = tuple(BUILDERS)
#: Scenarios one run (and ``trace``/``flowstats``) can drive.
_RUN_TARGETS = (*_THROUGHPUT_TARGETS, "v2v-latency")
_FLOW_FLAGS = ("--flows", "--flow-dist", "--churn", "--size-mix")
#: Defaults of the flags that modify another flag's base, set once
#: validation is done: parsed as None, an explicit value whose base is
#: off is refused even when it equals the default.
_MODIFIER_DEFAULTS = {"switch": "vpp", "cache_dir": ".repro-cache", "ci_target": 0.05}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers by name.

    Each option is declared once, in the parent group of the commands
    that read it; a command's parser is the union of its groups.
    """

    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, allow_abbrev=False)

    engine = group()
    engine.add_argument("--seed", type=int, default=1)
    engine.add_argument(
        "--warp", action=argparse.BooleanOptionalAction, default=None,
        help="steady-state fast-forward (default: REPRO_WARP env, on); "
        "results are bit-identical either way",
    )
    engine.add_argument(
        "--fluid", action=argparse.BooleanOptionalAction, default=None,
        help="fluid tier: rate-based extrapolation for long horizons "
        "(default: REPRO_FLUID env, off); approximate within 5%%, "
        "changes campaign cache keys",
    )
    engine.add_argument(
        "--warmup-ns", type=float, default=None, metavar="NS",
        help="override the warm-up window (default: the runner's)",
    )
    engine.add_argument(
        "--measure-ns", type=float, default=None, metavar="NS",
        help="override the measurement window (default: the runner's)",
    )
    switch = group()
    switch.add_argument("--switch", default=None, metavar="NAME",
                        help="switch under test (see the registry; default vpp)")
    size = group()
    size.add_argument("--size", type=int, default=64, help="frame size in bytes")
    direction = group()
    direction.add_argument("--bidirectional", action="store_true")
    vnfs = group()
    vnfs.add_argument("--vnfs", type=int, default=1, help="loopback chain length")
    target = group()
    target.add_argument("target", nargs="?", default="p2p",
                        help="scenario to drive (default p2p)")
    latency = group()
    latency.add_argument("--latency", action="store_true", help="run the R+ latency sweep")
    suite = group()
    suite.add_argument("--suite", default="smoke", help="suite name (default smoke)")
    # --- traffic diversity (repro.flows) ----------------------------------
    flows = group()
    flows.add_argument(
        "--flows", default="1", metavar="N[,N...]",
        help="concurrent flows (k/m suffixes ok, e.g. 100k; a comma list "
        "sweeps the axis, campaign only)",
    )
    flows.add_argument(
        "--flow-dist", choices=["uniform", "zipf"], default="uniform",
        help="per-flow rate distribution (default uniform)",
    )
    flows.add_argument(
        "--churn", type=float, default=0.0, metavar="FPS",
        help="flow churn: fresh flows per second displacing cached ones",
    )
    flows.add_argument(
        "--size-mix", default=None, metavar="NAME",
        help="frame-size mix profile (e.g. imix); sizes are drawn per "
        "packet instead of the fixed --size",
    )
    # --- execution ----------------------------------------------------------
    cache = group()
    cache.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="memoise results under --cache-dir (campaign: on by default; "
        "single runs: the --latency sweep's R+ run)",
    )
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory (default .repro-cache)")
    execution = group()
    execution.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default 1; 0 = one per core)",
    )
    execution.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="replicas per grid point (needs --seed-policy when N > 1)",
    )
    execution.add_argument(
        "--seed-policy", choices=["trial", "reseed"], default=None,
        help="how --repeat replicas differ: 'trial' runs soundness trials "
        "(same workload, perturbed measurement phases; campaign adds "
        "CI-converged early stopping and instability quarantine), "
        "'reseed' reseeds the whole workload per replica",
    )
    store = group()
    store.add_argument(
        "--switches", default=None, metavar="A,B,...",
        help="switch list (campaign default: all seven; resilience: --switch)",
    )
    store.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL result log (enables --resume)",
    )
    store.add_argument(
        "--resume", action="store_true",
        help="skip runs already completed in --store",
    )
    store.add_argument("--export-csv", default=None, metavar="PATH",
                       help="write the result table as CSV ('-' for stdout)")
    store.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock budget in seconds",
    )
    # --- observability (repro.obs) ----------------------------------------
    metrics_out = group()
    metrics_out.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="collect metrics and write them as Prometheus text to PATH",
    )
    observed = group()
    observed.add_argument(
        "--metrics", action="store_true",
        help="collect metrics (single run: print Prometheus text unless "
        "--metrics-out; grid: the CSV/JSONL metrics column)",
    )
    observed.add_argument(
        "--profile", action="store_true",
        help="cycle attribution (single run: printed vs the closed form; "
        "grid: the metrics column)",
    )
    observed.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (single run: the simulated "
        "testbed; grid: the execution timeline)",
    )
    observed.add_argument(
        "--flow-stats", action="store_true",
        help="collect per-flow telemetry (latency/loss/throughput per flow "
        "with heavy-hitter tracking); implied by the 'flowstats' command",
    )
    observed.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="flow telemetry with a K-flow heavy-hitter tracker (default 64; "
        "implies --flow-stats); memory stays O(K) regardless of --flows",
    )
    traced = group()
    traced.add_argument(
        "--sample-rate", type=int, default=None, metavar="N",
        help="per-packet lifecycle spans: trace one batch in N",
    )
    traced.add_argument(
        "--flow-out", default=None, metavar="PATH",
        help="write per-flow Prometheus text (repro_flow_*) to PATH",
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run software-switch benchmarks on the simulated testbed.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, summary, *parents):
        sub = subparsers.add_parser(
            name, help=summary, description=summary, parents=[engine, *parents],
            allow_abbrev=False,
        )
        sub.set_defaults(func=func)
        return sub

    run_obs = (metrics_out, observed, traced)
    for name in _THROUGHPUT_TARGETS:
        command(
            name, _run_single,
            f"one saturating-throughput {name} run (Sec. 4), or the --latency sweep",
            switch, size, direction, *([vnfs] if name == "loopback" else []),
            flows, latency, cache, *run_obs,
        )
    command("v2v-latency", _run_single, "the Table 4 v2v RTT probe run",
            switch, size, *run_obs)
    for name, summary in (
        ("trace", "one traced run of a scenario: Chrome trace and cycle attribution"),
        ("flowstats", "one run of a scenario with per-flow telemetry"),
    ):
        command(name, _run_single, summary,
                target, switch, size, direction, vnfs, flows, *run_obs)
    command("suite", _run_suite, "a named suite of experiments for one switch",
            suite, switch, flows, cache, execution, metrics_out)
    command("validate", _run_validate, "grade the simulator against the paper's figures",
            cache, execution, metrics_out)
    campaign = command(
        "campaign", _run_campaign, "a suite over many switches: fan-out, cache, store",
        suite, flows, cache, execution, store, metrics_out, observed,
    )
    campaign.add_argument(
        "--ci-target", type=float, default=None, metavar="F",
        help="trial campaigns: stop adding trials once the bootstrap CI "
        "half-width shrinks below F of the mean (default 0.05)",
    )
    campaign.add_argument(
        "--trial-summary", default=None, metavar="PATH",
        help="trial campaigns: write the per-point TrialSummary JSON "
        "artifact (n, CI, instability verdict, quarantine reason)",
    )
    resilience = command(
        "resilience", _run_resilience, "a fault-injection grid with recovery metrics",
        target, switch, size, direction, vnfs, flows, cache, execution, store,
        metrics_out, observed,
    )
    resilience.add_argument(
        "--fault", action="append", default=None, metavar="KIND@TARGET:at_ns=...",
        help="schedule one fault (repeatable), e.g. "
        "vif-disconnect@vm1.eth0:at_ns=1200000,duration_ns=300000",
    )
    resilience.add_argument(
        "--epsilon", type=float, default=None, metavar="F",
        help="recovered when rate is within F of baseline (default 0.05)",
    )
    resilience.add_argument(
        "--bin-ns", type=float, default=None, metavar="NS",
        help="degradation timeline bin width (default 100000)",
    )
    return parser, subparsers.choices


def _flow_counts(args) -> list[int]:
    """Parse --flows: comma-separated counts with k/m suffixes."""
    counts = []
    for token in str(args.flows).split(","):
        token = token.strip().lower()
        if not token:
            continue
        scale = 1
        if token.endswith("k"):
            scale, token = 1_000, token[:-1]
        elif token.endswith("m"):
            scale, token = 1_000_000, token[:-1]
        counts.append(int(token) * scale)
    return counts or [1]


def _flow_kwargs(args) -> dict:
    """Flow-axis build kwargs; empty at the defaults so single-flow runs
    keep their pre-flow-axis cache keys and golden identity."""
    count = _flow_counts(args)[0]
    kwargs = {}
    if count != 1:
        kwargs["flows"] = count
    if args.flow_dist != "uniform":
        kwargs["flow_dist"] = args.flow_dist
    if args.churn:
        kwargs["churn"] = args.churn
    if args.size_mix is not None:
        kwargs["size_mix"] = args.size_mix
    return kwargs


def _flag_error(args, leftover: list[str], commands: dict) -> tuple[int, str] | None:
    """One validation path for every command, run before anything else.

    ``leftover`` is what the command's parser did not declare.  Returns
    ``(exit code, stderr line)`` for the first flag the command cannot
    honour, or None.
    """
    parser = commands[args.command]
    if leftover:
        flag = leftover[0].split("=", 1)[0]
        readers = [name for name, sub in commands.items() if flag in sub._option_string_actions]
        if not readers:
            parser.error(f"unrecognized arguments: {' '.join(leftover)}")
        return 1, (
            f"{flag} is not supported by '{args.command}'; "
            "commands that read it: " + ", ".join(readers)
        )

    def changed(*flags: str) -> str | None:
        """The first of ``flags`` set away from its default."""
        for flag in flags:
            dest = flag[2:].replace("-", "_")
            if getattr(args, dest) != parser.get_default(dest):
                return flag
        return None

    if getattr(args, "switch", None) is not None and args.switch not in switch_names():
        return 1, (
            f"unknown switch {args.switch!r}; valid switches: "
            + ", ".join(sorted(switch_names()))
        )
    if hasattr(args, "flows"):
        try:
            counts = _flow_counts(args)
        except ValueError:
            return 1, f"bad --flows {args.flows!r}: expected counts like 1,1k,100k,1m"
        if len(counts) > 1 and args.command != "campaign":
            return 1, "--flows with a comma list sweeps a campaign axis; pick one count here"
        if args.size_mix is not None:
            from repro.traffic.profiles import PROFILES

            if args.size_mix not in PROFILES:
                return 1, f"unknown --size-mix {args.size_mix!r}; known: {sorted(PROFILES)}"
    if hasattr(args, "target"):
        known = _THROUGHPUT_TARGETS if args.command == "resilience" else _RUN_TARGETS
        if args.target not in known:
            return 1, f"unknown {args.command} target {args.target!r}; known: " + ", ".join(known)
        flag, readers = None, ("loopback",)
        if args.target != "loopback":
            flag = changed("--vnfs")
        if flag is None and args.target not in _THROUGHPUT_TARGETS:
            flag, readers = changed("--bidirectional", *_FLOW_FLAGS), _THROUGHPUT_TARGETS
        if flag is not None:
            return 1, (
                f"{flag} is not supported by the {args.target} scenario; "
                "scenarios that read it: " + ", ".join(readers)
            )
    # The latency sweep is one-way and unobserved; --cache memoises its
    # R+ run and nothing else.
    if getattr(args, "latency", False):
        if args.bidirectional or _obs_config(args, trace=args.trace_out is not None) is not None:
            return 1, (
                "--latency runs the one-way, unobserved sweep: drop "
                "--bidirectional and the observability flags"
            )
    elif hasattr(args, "latency"):
        flag = changed("--cache", "--cache-dir")
        if flag is not None:
            return 1, f"{flag} is read only by the --latency sweep on '{args.command}'"
    if getattr(args, "cache_dir", None) is not None and not _cache_on(args):
        return 1, "--cache-dir is read only when the result cache is on (--cache)"
    if getattr(args, "sample_rate", None) is not None and not (
        args.command == "trace" or args.trace_out is not None
    ):
        return 1, "--sample-rate is read only by traced runs ('trace' or --trace-out)"
    if getattr(args, "switch", None) is not None and getattr(args, "switches", None):
        return 1, f"--switch is read only without --switches on '{args.command}'"
    # Repeating without stating how replicas differ would silently pick
    # one arbitrary interpretation, so it is a loud error.
    if getattr(args, "repeat", 1) > 1 and args.seed_policy is None:
        return 2, (
            "--repeat > 1 is ambiguous without --seed-policy: pass "
            "--seed-policy trial (soundness trials: same workload, "
            "perturbed measurement phases, CI-converged early stopping) "
            "or --seed-policy reseed (whole-workload reseeds, the legacy "
            "consecutive-seed replicas)"
        )
    # A grid's observations land in the metrics/flowstats columns of its
    # result files (--metrics-out carries the metrics on its own).
    if hasattr(args, "store") and not (args.export_csv or args.store):
        flag = changed("--profile", "--flow-stats", "--top-k")
        if flag is None and args.metrics_out is None:
            flag = changed("--metrics")
        if flag is not None:
            return 1, f"{flag} fills a column of --export-csv or --store; pass one of them"
    if hasattr(args, "trial_summary"):
        flag = changed("--ci-target", "--trial-summary")
        if args.seed_policy != "trial" and flag is not None:
            return 1, f"{flag} is read only by trial campaigns (--seed-policy trial)"
        if args.seed_policy == "trial" and args.resume:
            return 1, (
                "--resume is not supported by trial campaigns; their trials "
                "resume through the result cache (on by default)"
            )
    return None


def _engine_env(args) -> dict[str, str]:
    """Environment overrides for --warp/--fluid.

    The engine switches travel through the environment, so every
    execution path (single runs, sweeps, campaign workers under fork or
    spawn) and the campaign cache fingerprint (``engine_features``) see
    one setting without threading a kwarg through each call chain.
    """
    env = {}
    if args.warp is not None:
        env["REPRO_WARP"] = "1" if args.warp else "0"
    if args.fluid is not None:
        env["REPRO_FLUID"] = "1" if args.fluid else "0"
    return env


def _workers(args) -> int | None:
    """CLI convention: unset -> 1 (serial), 0 -> auto-size to the machine."""
    if args.workers is None:
        return 1
    if args.workers == 0:
        return None
    return args.workers


def _window_overrides(args) -> dict:
    """The windows given on the command line (callers keep their defaults)."""
    windows = {"warmup_ns": args.warmup_ns, "measure_ns": args.measure_ns}
    return {name: value for name, value in windows.items() if value is not None}


def _windows(args) -> dict:
    return {"warmup_ns": DEFAULT_WARMUP_NS, "measure_ns": DEFAULT_MEASURE_NS, **_window_overrides(args)}


def _cache_on(args) -> bool:
    """--cache/--no-cache, else the command's default: on for campaigns."""
    return args.command == "campaign" if args.cache is None else args.cache


def _cache(args):
    if not _cache_on(args):
        return None
    from repro.campaign.cache import ResultCache

    return ResultCache(args.cache_dir)


def _note(message: str) -> None:
    """Telemetry line: stderr, so piped stdout stays parseable."""
    print(message, file=sys.stderr, flush=True)


def _write(path: str, text: str, what: str) -> None:
    from repro.obs.exporters import write_text

    _note(f"wrote {what} {write_text(path, text)}")


def _obs_config(args, trace: bool = False, flowstats: bool = False):
    """Build an ObsConfig from the observability flags the command
    declares; None when nothing was asked."""
    want_metrics = getattr(args, "metrics", False) or args.metrics_out is not None
    want_profile = getattr(args, "profile", False)
    want_flowstats = (
        flowstats or getattr(args, "flow_stats", False)
        or getattr(args, "flow_out", None) is not None
        or getattr(args, "top_k", None) is not None
    )
    if not (trace or want_metrics or want_profile or want_flowstats):
        return None
    from repro.obs import ObsConfig

    kwargs = {}
    if getattr(args, "sample_rate", None) is not None:
        kwargs["sample_rate"] = args.sample_rate
    if want_flowstats:
        kwargs["flowstats"] = True
        if getattr(args, "top_k", None) is not None:
            kwargs["top_k"] = args.top_k
    return ObsConfig(
        trace=trace,
        metrics=want_metrics or trace,
        profile=want_profile or trace,
        **kwargs,
    )


def _snapshots_text(labelled) -> str:
    """Prometheus text for (run label, metrics snapshot or None) pairs."""
    from repro.obs.exporters import snapshot_prometheus_text

    return snapshot_prometheus_text(
        ({"run": label}, snapshot["metrics"])
        for label, snapshot in labelled
        if snapshot and "metrics" in snapshot
    )


def _run_single(args) -> int:
    """Build the testbed, observe it only when asked, drive it, print the
    summary and emit the artifacts the flags asked for."""
    if getattr(args, "latency", False):
        return _run_latency_sweep(args)
    scenario = getattr(args, "target", args.command)
    bidirectional = getattr(args, "bidirectional", False)
    n_vnfs = getattr(args, "vnfs", 1)
    if scenario == "v2v-latency":
        tb = v2v.build_latency(args.switch, frame_size=args.size, seed=args.seed)
    else:
        extra = {"n_vnfs": n_vnfs} if scenario == "loopback" else {}
        tb = BUILDERS[scenario](
            args.switch,
            frame_size=args.size,
            bidirectional=bidirectional,
            seed=args.seed,
            **extra,
            **_flow_kwargs(args),
        )
    config = _obs_config(
        args,
        trace=args.command == "trace" or args.trace_out is not None,
        flowstats=args.command == "flowstats",
    )
    observation = None
    if config is not None:
        from repro.obs import observe

        observation = observe(tb, config)
    result = drive(tb, **_windows(args), bidirectional=bidirectional)
    if observation is not None:
        observation.finish(result)

    if scenario == "v2v-latency":
        latency = result.latency
        has_latency = latency is not None and len(latency)
        mean = latency.mean_us if has_latency else float("nan")
        std = latency.std_us if has_latency else float("nan")
        summary = f"v2v RTT latency for {args.switch}: mean={mean:.1f} us std={std:.1f} us"
    else:
        direction = "bidirectional" if bidirectional else "unidirectional"
        summary = (
            f"{scenario} {direction} {args.size}B {args.switch}: "
            f"{result.gbps:.2f} Gbps ({result.mpps:.2f} Mpps)"
        )
    # The measurement line (and the flow table) move to stderr when
    # metrics stream to stdout.
    say = _note if (args.metrics and not args.metrics_out) else print
    say(summary)
    if observation is None:
        return 0
    # The profile and the flow labels name the data path: v2v for the probe run.
    data_path = "v2v" if scenario == "v2v-latency" else scenario
    trace_out = args.trace_out or ("trace.json" if args.command == "trace" else None)
    if observation.tracer is not None and trace_out:
        path = observation.write_chrome_trace(trace_out)
        _note(
            f"wrote Chrome trace {path} ({len(observation.tracer)} events, "
            f"{observation.tracer.dropped_events} dropped) -- load at ui.perfetto.dev"
        )
    if observation.profiler is not None and (args.profile or args.command == "trace"):
        print(_profile_table(observation.profile(), args, data_path, bidirectional, n_vnfs))
        if result.warp is not None:
            print(f"warp: {result.warp.describe()}")
        else:
            print("warp: disabled (REPRO_WARP=0 or --no-warp)")
    if observation.flowstats is not None:
        from repro.obs.flowstats import flow_table

        say(flow_table(observation.flow_summary()))
        if args.flow_out:
            path = observation.write_flow_prometheus(
                args.flow_out, labels={"scenario": data_path, "switch": args.switch}
            )
            _note(f"wrote per-flow metrics {path}")
    if observation.registry is not None:
        if args.metrics_out:
            _note(f"wrote Prometheus metrics {observation.write_prometheus(args.metrics_out)}")
        elif args.metrics:
            print(observation.prometheus_text(), end="")
    return 0


def _profile_table(report, args, scenario: str, bidirectional: bool, n_vnfs: int) -> str:
    """Observed attribution diffed against the closed-form breakdown."""
    from repro.analysis.bottleneck import diff_attribution, stage_breakdown

    observed = report.chain_cycles_per_packet()
    if bidirectional:
        # The observed report sums both symmetric directions; the closed
        # form is per direction.
        observed = {stage: value / 2 for stage, value in observed.items()}
    predicted = stage_breakdown(
        args.switch,
        scenario,
        frame_size=args.size,
        bidirectional=bidirectional,
        n_vnfs=n_vnfs,
    )
    rows = [
        [
            stage,
            round(cells["observed"], 1),
            round(cells["predicted"], 1),
            round(cells["delta"], 1),
            f"{cells['ratio']:.2f}x",
        ]
        for stage, cells in diff_attribution(observed, predicted).items()
    ]
    title = (
        f"cycle attribution, {args.switch} {scenario} {args.size}B "
        f"({report.packets} packets; cycles/packet per direction)"
    )
    return format_table(
        ["stage", "observed", "closed-form", "delta", "ratio"], rows, title=title
    )


def _run_latency_sweep(args) -> int:
    """The Table 3 procedure: R+ (cacheable), then probes at its fractions."""
    from repro.measure.latency import latency_sweep

    extra = {"n_vnfs": args.vnfs} if args.command == "loopback" else {}
    points = latency_sweep(
        BUILDERS[args.command], args.switch, frame_size=args.size, seed=args.seed,
        cache=_cache(args),
        **_window_overrides(args), **extra, **_flow_kwargs(args),
    )
    rows = [
        (f"{fraction:.2f} R+", point.mean_us, point.std_us, len(point.sample))
        for fraction, point in sorted(points.items())
    ]
    print(
        format_table(
            ["load", "mean RTT (us)", "std (us)", "probes"],
            rows,
            title=f"{args.command} latency, {args.switch}, {args.size}B",
        )
    )
    return 0


def _rate_cells(outcome, ok: str = "ok") -> list:
    """Gbps/Mpps/status cells of a suite experiment or a campaign run."""
    if outcome.status == "inapplicable":
        return ["n/a (qemu)", "n/a (qemu)", "inapplicable"]
    if outcome.status == "failed":
        # A suite experiment carries a detail; a campaign RunFailure its error.
        detail = outcome.detail if hasattr(outcome, "detail") else f"{outcome.error}: {outcome.message}"
        return ["failed", "failed", f"FAILED: {detail}"]
    return [round(outcome.gbps, 2), round(outcome.mpps, 2), ok]


def _run_suite(args) -> int:
    from repro.campaign.progress import ProgressReporter, emit_to_stderr
    from repro.measure.suites import SUITES

    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}")
        return 1
    flow_kwargs = _flow_kwargs(args)
    outcomes = suite.run_outcomes(
        args.switch,
        seed=args.seed,
        repeat=args.repeat,
        seed_policy=args.seed_policy,
        workers=_workers(args),
        cache=_cache(args),
        progress=ProgressReporter(
            total=len(suite.experiments) * args.repeat, emit=emit_to_stderr
        ),
        # An active flow population switches flow telemetry on so the
        # table can show cache hit-rate and fairness per experiment.
        obs=_obs_config(args, flowstats=bool(flow_kwargs)),
        **flow_kwargs,
        **_windows(args),
    )
    trial_cols = args.repeat > 1
    headers = ["experiment", "Gbps", "Mpps", "status"]
    if flow_kwargs:
        headers = ["experiment", "Gbps", "Mpps", "hit-rate", "jain", "status"]
    if trial_cols:
        headers[-1:-1] = ["n", "CI±", "verdict"]
    rows = []
    for name, outcome in outcomes.items():
        cells = _rate_cells(outcome)
        if flow_kwargs:
            hit, jain = outcome.cache_hit_rate, outcome.jain
            cells[2:2] = [
                f"{hit:.3f}" if hit is not None else "-",
                f"{jain:.3f}" if jain is not None else "-",
            ]
        if trial_cols:
            summary = outcome.trial_summary()
            cells[-1:-1] = (
                [summary.n, f"±{summary.half_width:.3f}", summary.verdict]
                if summary is not None
                else ["-", "-", "-"]
            )
        rows.append([name, *cells])
    print(
        format_table(
            headers,
            rows,
            title=f"suite '{suite.name}' for {args.switch}: {suite.description}",
        )
    )
    if args.metrics_out:
        records = [record for outcome in outcomes.values() for record in outcome.records]
        _write(
            args.metrics_out,
            _snapshots_text((record.spec.label, record.metrics) for record in records),
            "Prometheus metrics",
        )
    return 0


def _run_validate(args) -> int:
    from repro.analysis.validate import summarize, validate

    metrics_sink: dict = {}
    checks = validate(
        progress=lambda msg: _note(f"[validate] {msg}"),
        seed=args.seed,
        workers=_workers(args),
        cache=_cache(args),
        obs=_obs_config(args),
        metrics_sink=metrics_sink,
        repeat=args.repeat,
        seed_policy=args.seed_policy,
        **_window_overrides(args),
    )
    if args.metrics_out:
        _write(args.metrics_out, _snapshots_text(metrics_sink.items()), "Prometheus metrics")
    rows = [
        [
            check.artifact,
            check.name,
            check.measured,
            check.expected,
            "PASS" if check.passed else "FAIL",
        ]
        for check in checks
    ]
    print(
        format_table(
            ["artifact", "criterion", "measured", "paper", "verdict"],
            rows,
            title="Reproduction validation",
        )
    )
    passed, total = summarize(checks)
    print(f"\n{passed}/{total} criteria satisfied")
    return 0 if passed == total else 2


def _switches(args, default: list[str]) -> list[str] | None:
    """The --switches list (``default`` when absent); None after
    reporting an unknown name."""
    if not args.switches:
        return default
    switches = [name.strip() for name in args.switches.split(",") if name.strip()]
    unknown = sorted(set(switches) - set(switch_names()))
    if unknown:
        print(f"unknown switches {unknown}; known: {sorted(switch_names())}")
        return None
    return switches


def _run_campaign(args) -> int:
    from repro.campaign.spec import from_suite
    from repro.measure.suites import SUITES

    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}")
        return 1
    switches = _switches(args, default=list(switch_names()))
    if switches is None:
        return 1

    # Trial mode repeats each grid point through the soundness scheduler
    # instead of widening the seed axis, so the base grid is one seed.
    trial_mode = args.seed_policy == "trial"
    spec = from_suite(
        suite,
        switches,
        seeds=range(args.seed, args.seed + (1 if trial_mode else args.repeat)),
        **_windows(args),
    )
    # One copy of the grid per flow count; the default single flow adds
    # no flow keys, so those runs keep their cache keys.
    variants = [
        spec.with_flows(
            count, flow_dist=args.flow_dist, churn=args.churn, size_mix=args.size_mix
        )
        for count in _flow_counts(args)
    ]
    spec = type(spec)(name=spec.name, runs=tuple(run for v in variants for run in v.runs))
    grid_shape = f"{len(switches)} switches x {len(suite.experiments)} experiments"
    if not trial_mode:
        return _run_grid(
            args, spec, table=lambda result: (
                ["run", "Gbps", "Mpps", "status"],
                [
                    [outcome.spec.label, *_rate_cells(outcome, "cached" if getattr(outcome, "cached", False) else "ok")]
                    for _, outcome in result.outcomes
                ],
                f"campaign '{spec.name}': {grid_shape} x {args.repeat} seeds",
            ),
        )
    from repro.measure.soundness import TrialPolicy

    policy = TrialPolicy(
        n_min=min(3, args.repeat), n_max=args.repeat, rel_ci_target=args.ci_target
    )
    return _run_grid(
        args, spec, policy=policy, table=lambda result: (
            ["run", "metric", "mean", f"{int(policy.ci_level * 100)}% CI", "n", "verdict", "status"],
            [_trial_row(point) for point in result.points],
            f"trial campaign '{spec.name}': {grid_shape}, n<={args.repeat} trials "
            f"(CI target {args.ci_target:g})",
        ),
    )


def _trial_row(point) -> list:
    if point.status in ("failed", "inapplicable"):
        status = f"FAILED: {point.reason}" if point.status == "failed" else "inapplicable"
        return [point.label, "-", "-", "-", "-", "-", status]
    summary = point.summary
    return [
        point.label,
        summary.metric,
        round(summary.mean, 3),
        f"[{summary.ci_low:.3f}, {summary.ci_high:.3f}]",
        summary.n,
        summary.verdict,
        f"QUARANTINED: {point.reason}" if point.quarantined else "ok",
    ]


def _run_resilience(args) -> int:
    """Fault-injection grid: switches x one fault plan, recovery table out."""
    from dataclasses import replace

    from repro.campaign.spec import grid
    from repro.faults import FaultPlan, parse_fault

    if not args.fault:
        _note(
            "resilience needs at least one --fault KIND@TARGET:at_ns=...[,duration_ns=...]"
            " (see docs/robustness.md for kinds and targets)"
        )
        return 1
    try:
        plan = FaultPlan.of(*(parse_fault(text) for text in args.fault))
    except ValueError as exc:
        _note(f"bad --fault: {exc}")
        return 1
    switches = _switches(args, default=[args.switch])
    if switches is None:
        return 1

    spec = grid(
        name=f"resilience-{args.target}",
        switches=switches,
        scenarios=(args.target,),
        frame_sizes=(args.size,),
        directions=(args.bidirectional,),
        vnfs=(args.vnfs,),
        seeds=(args.seed,),
        fault_plans=(plan,),
        flows=(_flow_counts(args)[0],),
        flow_dist=args.flow_dist,
        churn=args.churn,
        size_mix=args.size_mix,
        **_windows(args),
    ).with_trials(args.repeat, args.seed_policy)
    extra = tuple(
        (name, value)
        for name, value in (("bin_ns", args.bin_ns), ("epsilon", args.epsilon))
        if value is not None
    )
    spec = type(spec)(
        name=spec.name,
        runs=tuple(replace(run, extra=run.extra + extra) for run in spec.runs),
    )
    fault_labels = ", ".join(event.label for event in plan)
    return _run_grid(
        args, spec, table=lambda result: (
            ["run", "pre-fault Mpps", "loss (frames)", "TTR", "recovered", "status"],
            [_resilience_row(outcome) for _, outcome in result.outcomes],
            f"resilience '{args.target}' under [{fault_labels}]",
        ),
    )


def _resilience_row(outcome) -> list:
    if outcome.status == "failed":
        return [outcome.spec.label, "failed", "-", "-", "-", f"FAILED: {outcome.error}"]
    report = outcome.resilience or {}
    ttr = report.get("time_to_recover_ns")
    return [
        outcome.spec.label,
        round(report.get("pre_fault_pps", 0.0) / 1e6, 3),
        round(report.get("loss_during_fault_frames", 0.0), 1),
        f"{ttr / 1e3:.0f} us" if ttr is not None else "never",
        "yes" if report.get("recovered") else "NO",
        "ok",
    ]


def _run_grid(args, spec, table, policy=None) -> int:
    """Run a grid command's spec and emit everything after it.

    ``table(result)`` gives the command's (headers, rows, title); the
    rest is shared: the summary (on stderr when the CSV streams to
    stdout), ``--export-csv``, ``--metrics-out`` (per-run snapshots plus
    warp counters, or a trial campaign's gauges), ``--trial-summary``,
    ``--trace-out`` (the execution timeline) and the exit code: 0, 3 on
    failed runs, 130 when interrupted.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.progress import ProgressReporter, emit_to_stderr
    from repro.campaign.store import CampaignStore, export_csv
    from repro.obs.exporters import chrome_trace_document, warp_decline_prometheus_text

    obs = _obs_config(args)
    if obs is not None:
        spec = spec.with_obs(obs)
    execution = {
        "workers": _workers(args),
        "cache": _cache(args),
        "store": CampaignStore(args.store) if args.store else None,
        "timeout_s": args.timeout,
    }
    if policy is None:
        reporter = ProgressReporter(total=len(spec), emit=emit_to_stderr)
        result = run_campaign(spec, resume=args.resume, progress=reporter, **execution)
    else:
        from repro.measure.soundness import run_trial_campaign

        reporter = ProgressReporter(total=len(spec) * policy.n_max, emit=emit_to_stderr)
        result = run_trial_campaign(
            spec.runs, policy, name=spec.name, progress=reporter, **execution
        )

    say = _note if args.export_csv == "-" else print
    headers, rows, title = table(result)
    say(format_table(headers, rows, title=title))
    if policy is not None and result.quarantined:
        say(f"{len(result.quarantined)} point(s) quarantined as statistically unstable")
    say(reporter.summary())
    if args.export_csv:
        path = export_csv(result.outcomes, args.export_csv)
        if path is not None:
            _note(f"wrote {path}")
    labels = {"campaign": spec.name}
    if policy is not None and args.trial_summary:
        text = json.dumps(result.summary_dict(), indent=1, sort_keys=True) + "\n"
        _write(args.trial_summary, text, "trial summary")
    if args.metrics_out:
        if policy is not None:
            from repro.obs.exporters import trial_prometheus_text

            text = trial_prometheus_text(result.summary_dict(), labels=labels)
        else:
            text = _snapshots_text(
                (outcome.spec.label, getattr(outcome, "metrics", None))
                for _, outcome in result.outcomes
            ) + warp_decline_prometheus_text(result.outcomes, labels=labels)
        _write(args.metrics_out, text, "Prometheus metrics")
    if args.trace_out:
        document = chrome_trace_document(
            _campaign_trace_events(reporter.timeline),
            {**labels, "workers": str(_workers(args) or "auto")},
        )
        _write(args.trace_out, json.dumps(document), "campaign execution trace")
    if getattr(result, "interrupted", False):
        finished = len(result.outcomes)
        _note(
            f"campaign interrupted: {finished}/{len(spec)} runs finished, "
            f"{len(spec) - finished} outstanding; "
            + (f"resume with --store {args.store} --resume" if args.store
               else "rerun with --store PATH to make interrupted campaigns resumable")
        )
        return 130
    return 3 if result.failures else 0


def _campaign_trace_events(timeline: list[dict]) -> list[dict]:
    """Chrome trace spans for a campaign's execution timeline.

    One span per run (wall-clock seconds mapped onto the trace's ns
    axis), tracked by source so cached/resumed hits sit on their own
    rows next to the executed runs.
    """
    events = []
    for entry in timeline:
        start_s = max(entry["finished_s"] - entry["wall_clock_s"], 0.0)
        events.append(
            {
                "name": entry["label"],
                "ph": "X",
                "cat": "campaign",
                "ts": start_s * 1e9,
                "dur": max(entry["wall_clock_s"], 1e-6) * 1e9,
                "tid": entry["source"],
                "args": {"status": entry["status"], "source": entry["source"]},
            }
        )
    return events


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args, leftover = parser.parse_known_args(argv)
    error = _flag_error(args, leftover, commands)
    if error is not None:
        code, message = error
        _note(message)
        return code
    for dest, value in _MODIFIER_DEFAULTS.items():
        if getattr(args, dest, value) is None:
            setattr(args, dest, value)
    # The engine flags hold for this command only: the caller's values,
    # unset included, come back however the command ends.
    overrides = _engine_env(args)
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        return args.func(args)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


if __name__ == "__main__":
    sys.exit(main())
