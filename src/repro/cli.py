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

Progress and telemetry go to stderr; tables, measurements and
``--export-csv -`` go to stdout, so output can be piped or redirected
cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.tables import format_table
from repro.measure.latency import latency_sweep
from repro.measure.throughput import measure_throughput
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, drive
from repro.switches.registry import switch_names

#: Scenarios the single-run commands (and ``trace``) accept.
_RUN_TARGETS = ("p2p", "p2v", "v2v", "loopback", "v2v-latency")
_BUILDERS = {"p2p": p2p.build, "p2v": p2v.build, "v2v": v2v.build, "loopback": loopback.build}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run one software-switch benchmark on the simulated testbed.",
    )
    parser.add_argument(
        "scenario",
        choices=["p2p", "p2v", "v2v", "loopback", "v2v-latency", "suite", "validate", "campaign", "trace", "resilience", "flowstats"],
        help="test scenario (Sec. 4 of the paper), 'suite', 'validate', 'campaign', 'trace', 'resilience' or 'flowstats'",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="scenario to trace, fault or flow-profile (for 'trace'/"
        "'resilience'/'flowstats'; default p2p)",
    )
    parser.add_argument("--switch", default="vpp", metavar="NAME",
                        help="switch under test (see the registry; default vpp)")
    parser.add_argument("--size", type=int, default=64, help="frame size in bytes")
    parser.add_argument("--bidirectional", action="store_true")
    parser.add_argument("--vnfs", type=int, default=1, help="loopback chain length")
    parser.add_argument("--latency", action="store_true", help="run the R+ latency sweep")
    parser.add_argument("--suite", default="smoke", help="suite name for 'suite'/'campaign'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--warp", action=argparse.BooleanOptionalAction, default=None,
        help="steady-state fast-forward (default: REPRO_WARP env, on); "
        "results are bit-identical either way",
    )
    parser.add_argument(
        "--fluid", action=argparse.BooleanOptionalAction, default=None,
        help="fluid tier: rate-based extrapolation for long horizons "
        "(default: REPRO_FLUID env, off); approximate within 5%%, "
        "changes campaign cache keys",
    )
    parser.add_argument(
        "--warmup-ns", type=float, default=None, metavar="NS",
        help="override the warm-up window (default: the runner's)",
    )
    parser.add_argument(
        "--measure-ns", type=float, default=None, metavar="NS",
        help="override the measurement window (default: the runner's)",
    )
    # --- traffic diversity (repro.flows) ----------------------------------
    parser.add_argument(
        "--flows", default="1", metavar="N[,N...]",
        help="concurrent flows (k/m suffixes ok, e.g. 100k; a comma list "
        "sweeps the axis, campaign only)",
    )
    parser.add_argument(
        "--flow-dist", choices=["uniform", "zipf"], default="uniform",
        help="per-flow rate distribution (default uniform)",
    )
    parser.add_argument(
        "--churn", type=float, default=0.0, metavar="FPS",
        help="flow churn: fresh flows per second displacing cached ones",
    )
    parser.add_argument(
        "--size-mix", default=None, metavar="NAME",
        help="frame-size mix profile (e.g. imix); sizes are drawn per "
        "packet instead of the fixed --size",
    )
    # --- campaign execution (also honoured by 'suite' and 'validate') -----
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default 1; 0 = one per core)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="replicas per experiment (suite/validate/campaign; needs "
        "--seed-policy when N > 1)",
    )
    parser.add_argument(
        "--seed-policy", choices=["trial", "reseed"], default=None,
        help="how --repeat replicas differ: 'trial' runs soundness trials "
        "(same workload, perturbed measurement phases; campaign adds "
        "CI-converged early stopping and instability quarantine), "
        "'reseed' reseeds the whole workload per replica",
    )
    parser.add_argument(
        "--ci-target", type=float, default=0.05, metavar="F",
        help="trial campaigns: stop adding trials once the bootstrap CI "
        "half-width shrinks below F of the mean (default 0.05)",
    )
    parser.add_argument(
        "--trial-summary", default=None, metavar="PATH",
        help="trial campaigns: write the per-point TrialSummary JSON "
        "artifact (n, CI, instability verdict, quarantine reason)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="memoise results under --cache-dir (campaign: on by default)",
    )
    parser.add_argument("--cache-dir", default=".repro-cache", metavar="DIR")
    parser.add_argument(
        "--switches", default=None, metavar="A,B,...",
        help="campaign switch list (default: all seven)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="campaign JSONL result log (enables --resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip runs already completed in --store",
    )
    parser.add_argument("--export-csv", default=None, metavar="PATH")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock budget in seconds",
    )
    # --- observability (repro.obs) ----------------------------------------
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect metrics; print Prometheus text (or write --metrics-out)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write Prometheus text to PATH instead of stdout",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the cycle-attribution breakdown vs the closed form",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (single run: the simulated "
        "testbed; campaign: the execution timeline)",
    )
    parser.add_argument(
        "--sample-rate", type=int, default=None, metavar="N",
        help="per-packet lifecycle spans: trace one batch in N",
    )
    parser.add_argument(
        "--flow-stats", action="store_true",
        help="collect per-flow telemetry (latency/loss/throughput per flow "
        "with heavy-hitter tracking); implied by the 'flowstats' command",
    )
    parser.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="flow telemetry: heavy-hitter tracker capacity (default 64); "
        "memory stays O(K) regardless of --flows",
    )
    parser.add_argument(
        "--flow-out", default=None, metavar="PATH",
        help="write per-flow Prometheus text (repro_flow_*) to PATH",
    )
    # --- fault injection ('resilience') -----------------------------------
    parser.add_argument(
        "--fault", action="append", default=None, metavar="KIND@TARGET:at_ns=...",
        help="schedule one fault (repeatable), e.g. "
        "vif-disconnect@vm1.eth0:at_ns=1200000,duration_ns=300000",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None, metavar="F",
        help="resilience: recovered when rate is within F of baseline (default 0.05)",
    )
    parser.add_argument(
        "--bin-ns", type=float, default=None, metavar="NS",
        help="resilience: degradation timeline bin width (default 100000)",
    )
    return parser


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


#: Scenarios with a throughput data path: the only ones that carry
#: --bidirectional and the flow axis (v2v-latency drives a fixed probe).
_THROUGHPUT_TARGETS = ("p2p", "p2v", "v2v", "loopback")
_FLOW_FLAGS = ("--flows", "--flow-dist", "--churn", "--size-mix")
#: Commands whose --repeat replicas need a stated --seed-policy.
_SEED_POLICY_COMMANDS = ("suite", "validate", "campaign")

#: Which commands read each flag.  A flag set away from its default on
#: any other command is an error instead of being silently dropped.
#: Flags whose use depends on another flag (--cache matters on single
#: runs only with --latency) and the observability flags stay out.
_FLAG_COMMANDS = {
    ("--fault", "--epsilon", "--bin-ns"): ("resilience",),
    ("--switches", "--store", "--resume", "--export-csv", "--timeout"): (
        "campaign", "resilience",
    ),
    ("--ci-target", "--trial-summary"): ("campaign",),
    ("--workers", "--repeat"): ("suite", "validate", "campaign", "resilience"),
    ("--seed-policy",): _SEED_POLICY_COMMANDS,
    ("--suite",): ("suite", "campaign"),
    ("--size", "--bidirectional", "--vnfs"): (
        *_RUN_TARGETS, "trace", "flowstats", "resilience",
    ),
    ("--latency",): _THROUGHPUT_TARGETS,
    ("--switch",): (*_RUN_TARGETS, "suite", "trace", "flowstats", "resilience"),
    _FLOW_FLAGS: (
        *_THROUGHPUT_TARGETS, "trace", "flowstats", "suite", "campaign", "resilience",
    ),
}

#: Flags a command reads only when it drives one of these scenarios.
_FLAG_TARGETS = {
    ("--vnfs",): ("loopback",),
    ("--bidirectional", *_FLOW_FLAGS): _THROUGHPUT_TARGETS,
}


def _target(args) -> str | None:
    """The scenario a command drives; None for suites and grids."""
    if args.scenario in _RUN_TARGETS:
        return args.scenario
    if args.scenario in ("trace", "flowstats", "resilience"):
        return args.target or "p2p"
    return None


def _unread_flag(args, parser, table: dict, subject: str) -> tuple[str, tuple] | None:
    """First non-default flag whose readers in ``table`` exclude ``subject``."""
    for flags, readers in table.items():
        if subject in readers:
            continue
        for flag in flags:
            dest = flag[2:].replace("-", "_")
            if getattr(args, dest) != parser.get_default(dest):
                return flag, readers
    return None


def _flag_error(args, parser) -> tuple[int, str] | None:
    """One validation path for every command, run before anything else.

    Returns ``(exit code, stderr line)`` for the first bad flag, or None
    when the command can honour every flag it was given.
    """
    if args.switch not in switch_names():
        return 1, (
            f"unknown switch {args.switch!r}; valid switches: "
            + ", ".join(sorted(switch_names()))
        )
    try:
        counts = _flow_counts(args)
    except ValueError:
        return 1, f"bad --flows {args.flows!r}: expected counts like 1,1k,100k,1m"
    if len(counts) > 1 and args.scenario != "campaign":
        return 1, "--flows with a comma list sweeps a campaign axis; pick one count here"
    if args.size_mix is not None:
        from repro.traffic.profiles import PROFILES

        if args.size_mix not in PROFILES:
            return 1, f"unknown --size-mix {args.size_mix!r}; known: {sorted(PROFILES)}"
    unread = _unread_flag(args, parser, _FLAG_COMMANDS, args.scenario)
    if unread is not None:
        flag, readers = unread
        return 1, (
            f"{flag} is not supported by '{args.scenario}'; "
            "commands that read it: " + ", ".join(readers)
        )
    target = _target(args)
    unread = _unread_flag(args, parser, _FLAG_TARGETS, target) if target else None
    if unread is not None:
        flag, readers = unread
        return 1, (
            f"{flag} is not supported by the {target} scenario; "
            "scenarios that read it: " + ", ".join(readers)
        )
    # Repeating without stating how replicas differ would silently pick
    # one arbitrary interpretation, so it is a loud error.
    if args.repeat > 1 and args.seed_policy is None and args.scenario in _SEED_POLICY_COMMANDS:
        return 2, (
            "--repeat > 1 is ambiguous without --seed-policy: pass "
            "--seed-policy trial (soundness trials: same workload, "
            "perturbed measurement phases, CI-converged early stopping) "
            "or --seed-policy reseed (whole-workload reseeds, the legacy "
            "consecutive-seed replicas)"
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


def _windows(args, warmup_default: float = DEFAULT_WARMUP_NS, measure_default: float = DEFAULT_MEASURE_NS) -> dict:
    return {
        "warmup_ns": args.warmup_ns if args.warmup_ns is not None else warmup_default,
        "measure_ns": args.measure_ns if args.measure_ns is not None else measure_default,
    }


def _cache(args, default_on: bool):
    enabled = default_on if args.cache is None else args.cache
    if not enabled:
        return None
    from repro.campaign.cache import ResultCache

    return ResultCache(args.cache_dir)


def _outcome_cells(outcome) -> list:
    """Gbps/Mpps/status cells for one suite experiment outcome."""
    if outcome.status == "inapplicable":
        return ["n/a (qemu)", "n/a (qemu)", "inapplicable"]
    if outcome.status == "failed":
        return ["failed", "failed", f"FAILED: {outcome.detail}"]
    return [round(outcome.gbps, 2), round(outcome.mpps, 2), "ok"]


def _note(message: str) -> None:
    """Telemetry line: stderr, so piped stdout stays parseable."""
    print(message, file=sys.stderr, flush=True)


def _obs_config(args, trace: bool = False, with_trace_out: bool = True, flowstats: bool = False):
    """Build an ObsConfig from the CLI flags; None when nothing was asked."""
    want_trace = trace or (with_trace_out and args.trace_out is not None)
    want_metrics = args.metrics or args.metrics_out is not None
    want_profile = args.profile
    want_flowstats = flowstats or args.flow_stats or args.flow_out is not None
    if not (want_trace or want_metrics or want_profile or want_flowstats):
        return None
    from repro.obs import ObsConfig

    kwargs = {}
    if args.sample_rate is not None:
        kwargs["sample_rate"] = args.sample_rate
    if want_flowstats:
        kwargs["flowstats"] = True
        if args.top_k is not None:
            kwargs["top_k"] = args.top_k
    return ObsConfig(
        trace=want_trace,
        metrics=want_metrics or want_trace,
        profile=want_profile or want_trace,
        **kwargs,
    )


def _profile_table(report, scenario: str, args) -> str:
    """Observed attribution diffed against the closed-form breakdown."""
    from repro.analysis.bottleneck import diff_attribution, stage_breakdown

    observed = report.chain_cycles_per_packet()
    if args.bidirectional:
        # The observed report sums both symmetric directions; the closed
        # form is per direction.
        observed = {stage: value / 2 for stage, value in observed.items()}
    predicted = stage_breakdown(
        args.switch,
        scenario,
        frame_size=args.size,
        bidirectional=args.bidirectional,
        n_vnfs=args.vnfs,
    )
    diff = diff_attribution(observed, predicted)
    rows = [
        [
            stage,
            round(cells["observed"], 1),
            round(cells["predicted"], 1),
            round(cells["delta"], 1),
            f"{cells['ratio']:.2f}x",
        ]
        for stage, cells in diff.items()
    ]
    title = (
        f"cycle attribution, {args.switch} {scenario} {args.size}B "
        f"({report.packets} packets; cycles/packet per direction)"
    )
    return format_table(
        ["stage", "observed", "closed-form", "delta", "ratio"], rows, title=title
    )


def _emit_single_run_obs(
    args, observation, scenario: str, default_trace_out: str | None = None, result=None
) -> None:
    """Print/write whatever artifacts the obs flags asked for."""
    trace_out = args.trace_out or default_trace_out
    if observation.tracer is not None and trace_out:
        path = observation.write_chrome_trace(trace_out)
        _note(
            f"wrote Chrome trace {path} ({len(observation.tracer)} events, "
            f"{observation.tracer.dropped_events} dropped) -- load at ui.perfetto.dev"
        )
    if observation.profiler is not None and (args.profile or args.scenario == "trace"):
        report = observation.profile()
        print(_profile_table(report, scenario, args))
        if result is not None:
            if result.warp is not None:
                print(f"warp: {result.warp.describe()}")
            else:
                print("warp: disabled (REPRO_WARP=0 or --no-warp)")
    if getattr(observation, "flowstats", None) is not None:
        from repro.obs.flowstats import flow_table

        # The flow table moves to stderr when metrics stream to stdout,
        # mirroring the measurement line.
        say = _note if (args.metrics and not args.metrics_out) else print
        say(flow_table(observation.flow_summary()))
        if args.flow_out:
            path = observation.write_flow_prometheus(
                args.flow_out, labels={"scenario": scenario, "switch": args.switch}
            )
            _note(f"wrote per-flow metrics {path}")
    if observation.registry is not None:
        if args.metrics_out:
            path = observation.write_prometheus(args.metrics_out)
            _note(f"wrote Prometheus metrics {path}")
        elif args.metrics:
            print(observation.prometheus_text(), end="")


def _observed_single_run(args) -> int:
    """Single run with the observability layer attached (or 'trace')."""
    from repro.obs import observe

    if args.scenario == "trace":
        scenario = args.target or "p2p"
        if scenario not in _RUN_TARGETS:
            _note(f"unknown trace target {scenario!r}; known: {_RUN_TARGETS}")
            return 1
        config = _obs_config(args, trace=True)
        default_trace_out = "trace.json"
    elif args.scenario == "flowstats":
        scenario = args.target or "p2p"
        if scenario not in _RUN_TARGETS:
            _note(f"unknown flowstats target {scenario!r}; known: {_RUN_TARGETS}")
            return 1
        config = _obs_config(args, flowstats=True)
        default_trace_out = None
    else:
        scenario = args.scenario
        config = _obs_config(args)
        default_trace_out = None
    assert config is not None

    if scenario == "v2v-latency":
        tb = v2v.build_latency(args.switch, frame_size=args.size, seed=args.seed)
        observation = observe(tb, config)
        result = drive(tb, **_windows(args))
        bottleneck_scenario = "v2v"
    else:
        extra = {"n_vnfs": args.vnfs} if scenario == "loopback" else {}
        extra.update(_flow_kwargs(args))
        tb = _BUILDERS[scenario](
            args.switch,
            frame_size=args.size,
            bidirectional=args.bidirectional,
            seed=args.seed,
            **extra,
        )
        observation = observe(tb, config)
        result = drive(tb, **_windows(args), bidirectional=args.bidirectional)
        bottleneck_scenario = scenario
    observation.finish(result)

    direction = "bidirectional" if args.bidirectional else "unidirectional"
    summary = (
        f"{scenario} {direction} {args.size}B {args.switch}: "
        f"{result.gbps:.2f} Gbps ({result.mpps:.2f} Mpps)"
    )
    # The measurement line moves to stderr when metrics stream to stdout.
    if args.metrics and not args.metrics_out:
        _note(summary)
    else:
        print(summary)
    _emit_single_run_obs(
        args, observation, bottleneck_scenario, default_trace_out, result=result
    )
    return 0


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


def _run_campaign_command(args) -> int:
    from repro.campaign.executor import run_campaign
    from repro.campaign.progress import ProgressReporter, emit_to_stderr
    from repro.campaign.spec import from_suite
    from repro.campaign.store import CampaignStore, export_csv
    from repro.measure.suites import SUITES

    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}")
        return 1
    if args.switches:
        switches = [name.strip() for name in args.switches.split(",") if name.strip()]
        unknown = sorted(set(switches) - set(switch_names()))
        if unknown:
            print(f"unknown switches {unknown}; known: {sorted(switch_names())}")
            return 1
    else:
        switches = list(switch_names())

    # Trial mode repeats each grid point through the soundness scheduler
    # instead of widening the seed axis, so the base grid is one seed.
    trial_mode = args.seed_policy == "trial"
    spec = from_suite(
        suite,
        switches,
        seeds=range(args.seed, args.seed + (1 if trial_mode else args.repeat)),
        **_windows(args),
    )
    flow_counts = _flow_counts(args)
    if flow_counts != [1] or args.flow_dist != "uniform" or args.churn or args.size_mix:
        variants = [
            spec.with_flows(
                count,
                flow_dist=args.flow_dist,
                churn=args.churn,
                size_mix=args.size_mix,
            )
            for count in flow_counts
        ]
        spec = type(spec)(
            name=spec.name,
            runs=tuple(run for variant in variants for run in variant.runs),
        )
    # Campaign --trace-out traces the campaign's own execution, so it
    # does not switch per-run tracing on.
    obs = _obs_config(args, with_trace_out=False)
    if obs is not None:
        spec = spec.with_obs(obs)
    store = CampaignStore(args.store) if args.store else None
    if trial_mode:
        return _run_trial_campaign(args, spec, suite, switches, store)
    reporter = ProgressReporter(total=len(spec), emit=emit_to_stderr)
    result = run_campaign(
        spec,
        workers=_workers(args),
        cache=_cache(args, default_on=True),
        store=store,
        resume=args.resume,
        progress=reporter,
        timeout_s=args.timeout,
    )

    # Tables/summary stay on stdout unless the CSV streams there.
    csv_to_stdout = args.export_csv == "-"
    say = _note if csv_to_stdout else print
    rows = []
    for key, outcome in result.outcomes:
        if outcome.status == "failed":
            gbps, mpps, status = "failed", "failed", f"FAILED: {outcome.error}: {outcome.message}"
        elif outcome.status == "inapplicable":
            gbps, mpps, status = "n/a (qemu)", "n/a (qemu)", "inapplicable"
        else:
            gbps, mpps = round(outcome.gbps, 2), round(outcome.mpps, 2)
            status = "cached" if outcome.cached else "ok"
        rows.append([outcome.spec.label, gbps, mpps, status])
    say(
        format_table(
            ["run", "Gbps", "Mpps", "status"],
            rows,
            title=f"campaign '{spec.name}': {len(switches)} switches x {len(suite.experiments)} experiments x {args.repeat} seeds",
        )
    )
    say(reporter.summary())
    if args.export_csv:
        path = export_csv(result.outcomes, args.export_csv)
        if path is not None:
            _note(f"wrote {path}")
    if args.metrics_out:
        from repro.obs.exporters import (
            snapshot_prometheus_text,
            warp_decline_prometheus_text,
        )

        snapshots = [
            ({"run": outcome.spec.label}, outcome.metrics["metrics"])
            for _, outcome in result.outcomes
            if getattr(outcome, "metrics", None) and "metrics" in outcome.metrics
        ]
        with open(args.metrics_out, "w") as fh:
            snapshot_prometheus_text(snapshots, fh)
            fh.write(
                warp_decline_prometheus_text(
                    result.outcomes, labels={"campaign": spec.name}
                )
            )
        _note(f"wrote Prometheus metrics {args.metrics_out} ({len(snapshots)} runs)")
    if args.trace_out:
        from repro.obs.exporters import write_chrome_trace

        path = write_chrome_trace(
            args.trace_out,
            _campaign_trace_events(reporter.timeline),
            {"campaign": spec.name, "workers": str(_workers(args) or "auto")},
        )
        _note(f"wrote campaign execution trace {path}")
    if result.interrupted:
        _note(_interrupt_summary(result, len(spec), args))
        return 130
    return 3 if result.failures else 0


def _run_trial_campaign(args, spec, suite, switches, store) -> int:
    """Campaign in soundness-trial mode: repeat scheduler + quarantine.

    Each grid point runs up to ``--repeat`` trials through
    :func:`repro.measure.soundness.run_trial_campaign`, stopping early
    once the bootstrap CI converges (``--ci-target``) and quarantining
    points the instability detector cannot call stable.
    """
    import json

    from repro.campaign.progress import ProgressReporter, emit_to_stderr
    from repro.campaign.store import export_csv
    from repro.measure.soundness import TrialPolicy, run_trial_campaign

    policy = TrialPolicy(
        n_min=min(3, args.repeat),
        n_max=args.repeat,
        rel_ci_target=args.ci_target,
    )
    reporter = ProgressReporter(total=len(spec) * args.repeat, emit=emit_to_stderr)
    result = run_trial_campaign(
        spec.runs,
        policy,
        name=spec.name,
        workers=_workers(args),
        cache=_cache(args, default_on=True),
        store=store,
        progress=reporter,
        timeout_s=args.timeout,
    )

    csv_to_stdout = args.export_csv == "-"
    say = _note if csv_to_stdout else print
    rows = []
    for point in result.points:
        if point.status == "failed":
            rows.append(
                [point.label, "-", "-", "-", "-", "-", f"FAILED: {point.reason}"]
            )
            continue
        if point.status == "inapplicable":
            rows.append([point.label, "-", "-", "-", "-", "-", "inapplicable"])
            continue
        summary = point.summary
        status = f"QUARANTINED: {point.reason}" if point.quarantined else "ok"
        rows.append(
            [
                point.label,
                summary.metric,
                round(summary.mean, 3),
                f"[{summary.ci_low:.3f}, {summary.ci_high:.3f}]",
                summary.n,
                summary.verdict,
                status,
            ]
        )
    say(
        format_table(
            ["run", "metric", "mean", f"{int(policy.ci_level * 100)}% CI", "n", "verdict", "status"],
            rows,
            title=(
                f"trial campaign '{spec.name}': {len(switches)} switches x "
                f"{len(suite.experiments)} experiments, n<={args.repeat} trials "
                f"(CI target {args.ci_target:g})"
            ),
        )
    )
    quarantined = [point for point in result.points if point.quarantined]
    if quarantined:
        say(f"{len(quarantined)} point(s) quarantined as statistically unstable")
    say(reporter.summary())
    if args.trial_summary:
        with open(args.trial_summary, "w") as fh:
            json.dump(result.summary_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        _note(f"wrote trial summary {args.trial_summary}")
    if args.export_csv:
        path = export_csv(result.outcomes, args.export_csv)
        if path is not None:
            _note(f"wrote {path}")
    if args.metrics_out:
        from repro.obs.exporters import write_trial_prometheus

        path = write_trial_prometheus(
            args.metrics_out, result.summary_dict(), labels={"campaign": spec.name}
        )
        _note(f"wrote trial metrics {path}")
    return 3 if result.failures else 0


def _interrupt_summary(result, total: int, args) -> str:
    """One actionable line for a SIGINT/SIGTERM-truncated campaign."""
    outstanding = total - len(result.outcomes)
    message = (
        f"campaign interrupted: {len(result.outcomes)}/{total} runs finished, "
        f"{outstanding} outstanding"
    )
    if args.store:
        message += f"; resume with --store {args.store} --resume"
    else:
        message += "; rerun with --store PATH to make interrupted campaigns resumable"
    return message


def _run_resilience_command(args) -> int:
    """Fault-injection campaign: grid x fault plan, recovery metrics out."""
    from repro.campaign.executor import run_campaign
    from repro.campaign.progress import ProgressReporter, emit_to_stderr
    from repro.campaign.spec import SCENARIOS, grid
    from repro.campaign.store import CampaignStore, export_csv
    from repro.faults import FaultPlan, parse_fault

    scenario = args.target or "p2p"
    if scenario not in SCENARIOS:
        _note(
            f"unknown resilience scenario {scenario!r}; valid scenarios: "
            + ", ".join(SCENARIOS)
        )
        return 1
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

    if args.switches:
        switches = [name.strip() for name in args.switches.split(",") if name.strip()]
        unknown = sorted(set(switches) - set(switch_names()))
        if unknown:
            _note(
                f"unknown switches {unknown}; valid switches: "
                + ", ".join(sorted(switch_names()))
            )
            return 1
    else:
        switches = [args.switch]

    spec = grid(
        name=f"resilience-{scenario}",
        switches=switches,
        scenarios=(scenario,),
        frame_sizes=(args.size,),
        directions=(args.bidirectional,),
        vnfs=(args.vnfs,),
        seeds=range(args.seed, args.seed + args.repeat),
        fault_plans=(plan,),
        flows=(_flow_counts(args)[0],),
        flow_dist=args.flow_dist,
        churn=args.churn,
        size_mix=args.size_mix,
        **_windows(args),
    )
    if args.epsilon is not None or args.bin_ns is not None:
        from dataclasses import replace

        extra = {}
        if args.epsilon is not None:
            extra["epsilon"] = args.epsilon
        if args.bin_ns is not None:
            extra["bin_ns"] = args.bin_ns
        items = tuple(sorted(extra.items()))
        spec = type(spec)(
            name=spec.name,
            runs=tuple(replace(run, extra=run.extra + items) for run in spec.runs),
        )
    obs = _obs_config(args, with_trace_out=False)
    if obs is not None:
        spec = spec.with_obs(obs)

    store = CampaignStore(args.store) if args.store else None
    reporter = ProgressReporter(total=len(spec), emit=emit_to_stderr)
    result = run_campaign(
        spec,
        workers=_workers(args),
        cache=_cache(args, default_on=False),
        store=store,
        resume=args.resume,
        progress=reporter,
        timeout_s=args.timeout,
    )

    csv_to_stdout = args.export_csv == "-"
    say = _note if csv_to_stdout else print
    rows = []
    for _, outcome in result.outcomes:
        if outcome.status == "failed":
            rows.append([outcome.spec.label, "failed", "-", "-", "-", f"FAILED: {outcome.error}"])
            continue
        report = getattr(outcome, "resilience", None) or {}
        ttr = report.get("time_to_recover_ns")
        rows.append(
            [
                outcome.spec.label,
                round(report.get("pre_fault_pps", 0.0) / 1e6, 3),
                round(report.get("loss_during_fault_frames", 0.0), 1),
                f"{ttr / 1e3:.0f} us" if ttr is not None else "never",
                "yes" if report.get("recovered") else "NO",
                "ok",
            ]
        )
    fault_labels = ", ".join(event.label for event in plan)
    say(
        format_table(
            ["run", "pre-fault Mpps", "loss (frames)", "TTR", "recovered", "status"],
            rows,
            title=f"resilience '{scenario}' under [{fault_labels}]",
        )
    )
    say(reporter.summary())
    if args.export_csv:
        path = export_csv(result.outcomes, args.export_csv)
        if path is not None:
            _note(f"wrote {path}")
    if result.interrupted:
        _note(_interrupt_summary(result, len(spec), args))
        return 130
    return 3 if result.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    error = _flag_error(args, parser)
    if error is not None:
        code, message = error
        _note(message)
        return code
    # The engine flags hold for this command only: the caller's values,
    # unset included, come back however the command ends.
    overrides = _engine_env(args)
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        return _run_command(args)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_command(args) -> int:
    """Run one validated command; returns its exit code."""
    if args.scenario == "campaign":
        return _run_campaign_command(args)

    if args.scenario == "resilience":
        return _run_resilience_command(args)

    if args.scenario in ("trace", "flowstats"):
        return _observed_single_run(args)

    if args.scenario == "validate":
        from repro.analysis.validate import summarize, validate

        window_overrides = {}
        if args.warmup_ns is not None:
            window_overrides["warmup_ns"] = args.warmup_ns
        if args.measure_ns is not None:
            window_overrides["measure_ns"] = args.measure_ns
        metrics_sink: dict = {}
        checks = validate(
            progress=lambda msg: _note(f"[validate] {msg}"),
            seed=args.seed,
            workers=_workers(args),
            cache=_cache(args, default_on=False),
            obs=_obs_config(args, with_trace_out=False),
            metrics_sink=metrics_sink,
            repeat=args.repeat,
            seed_policy=args.seed_policy,
            **window_overrides,
        )
        if args.metrics_out and metrics_sink:
            from repro.obs.exporters import snapshot_prometheus_text

            snapshots = [
                ({"run": label}, snapshot["metrics"])
                for label, snapshot in metrics_sink.items()
                if "metrics" in snapshot
            ]
            with open(args.metrics_out, "w") as fh:
                snapshot_prometheus_text(snapshots, fh)
            _note(f"wrote Prometheus metrics {args.metrics_out} ({len(snapshots)} runs)")
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

    if args.scenario == "suite":
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
            cache=_cache(args, default_on=False),
            progress=ProgressReporter(
                total=len(suite.experiments) * args.repeat, emit=emit_to_stderr
            ),
            # An active flow population switches flow telemetry on so the
            # table can show cache hit-rate and fairness per experiment.
            obs=_obs_config(args, with_trace_out=False, flowstats=bool(flow_kwargs)),
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
            cells = _outcome_cells(outcome)
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
        return 0

    if args.scenario == "v2v-latency":
        if _obs_config(args) is not None:
            return _observed_single_run(args)
        tb = v2v.build_latency(args.switch, frame_size=args.size, seed=args.seed)
        result = drive(tb, **_windows(args))
        latency = result.latency
        mean = latency.mean_us if latency is not None and len(latency) else float("nan")
        std = latency.std_us if latency is not None and len(latency) else float("nan")
        print(f"v2v RTT latency for {args.switch}: mean={mean:.1f} us std={std:.1f} us")
        return 0

    build = _BUILDERS[args.scenario]
    extra = {"n_vnfs": args.vnfs} if args.scenario == "loopback" else {}
    extra.update(_flow_kwargs(args))

    if not args.latency and _obs_config(args) is not None:
        return _observed_single_run(args)

    if args.latency:
        if _obs_config(args) is not None:
            _note("note: --metrics/--profile/--trace-out/--flow-stats are ignored for the latency sweep")
        sweep_windows = {}
        if args.warmup_ns is not None:
            sweep_windows["warmup_ns"] = args.warmup_ns
        if args.measure_ns is not None:
            sweep_windows["measure_ns"] = args.measure_ns
        points = latency_sweep(
            build, args.switch, frame_size=args.size, seed=args.seed,
            cache=_cache(args, default_on=False),
            **sweep_windows, **extra,
        )
        rows = [
            (f"{fraction:.2f} R+", point.mean_us, point.std_us, len(point.sample))
            for fraction, point in sorted(points.items())
        ]
        print(
            format_table(
                ["load", "mean RTT (us)", "std (us)", "probes"],
                rows,
                title=f"{args.scenario} latency, {args.switch}, {args.size}B",
            )
        )
        return 0

    result = measure_throughput(
        build,
        args.switch,
        frame_size=args.size,
        bidirectional=args.bidirectional,
        seed=args.seed,
        **_windows(args),
        **extra,
    )
    direction = "bidirectional" if args.bidirectional else "unidirectional"
    print(
        f"{args.scenario} {direction} {args.size}B {args.switch}: "
        f"{result.gbps:.2f} Gbps ({result.mpps:.2f} Mpps)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
