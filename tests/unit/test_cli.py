"""Unit tests for the repro-bench command-line interface."""

from __future__ import annotations

import csv
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser, _flag_error, main
from repro.core.warp import engine_features
from repro.switches.registry import switch_names

FAST = ["--warmup-ns", "100000", "--measure-ns", "300000"]


def test_throughput_command(capsys):
    assert main(["p2p", "--switch", "bess", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "p2p unidirectional 64B bess" in out
    assert "Gbps" in out


def test_bidirectional_flag(capsys):
    assert main(["p2p", "--switch", "bess", "--bidirectional"]) == 0
    assert "bidirectional" in capsys.readouterr().out


def test_loopback_with_vnfs(capsys):
    assert main(["loopback", "--switch", "vale", "--vnfs", "2"]) == 0
    assert "loopback" in capsys.readouterr().out


def test_v2v_latency_command(capsys):
    assert main(["v2v-latency", "--switch", "vale"]) == 0
    out = capsys.readouterr().out
    assert "v2v RTT latency" in out
    assert "us" in out


def test_latency_sweep_command(capsys):
    assert main(["p2p", "--switch", "bess", "--latency"]) == 0
    out = capsys.readouterr().out
    assert "0.10 R+" in out
    assert "0.99 R+" in out


def test_suite_command(capsys):
    assert main(["suite", "--switch", "vale", "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "suite 'smoke'" in out
    assert "p2p-64B" in out


def test_unknown_suite(capsys):
    assert main(["suite", "--suite", "nonexistent"]) == 1
    assert "unknown suite" in capsys.readouterr().out


def test_window_overrides_accepted(capsys):
    assert main([
        "p2p", "--switch", "bess",
        "--warmup-ns", "100000", "--measure-ns", "400000",
    ]) == 0
    assert "Gbps" in capsys.readouterr().out


def test_window_overrides_on_v2v_latency(capsys):
    assert main([
        "v2v-latency", "--switch", "vale",
        "--warmup-ns", "200000", "--measure-ns", "1500000",
    ]) == 0
    assert "us" in capsys.readouterr().out


def test_suite_renders_inapplicable_cells(capsys):
    assert main([
        "suite", "--switch", "bess", "--suite", "paper",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    # BESS cannot host the 4/5-VM chains (footnote 5): the table says so
    # instead of printing literal None.
    assert "n/a (qemu)" in out
    assert "None" not in out


def test_campaign_command_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess,vale",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign summary:" in out
    assert "8/8 runs" in out
    assert "8 executed" in out

    # Second invocation: everything memoised, nothing simulated.
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess,vale",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "0 executed" in out
    assert "8 cache hits" in out


def test_campaign_rejects_unknown_suite_and_switch(capsys):
    assert main(["campaign", "--suite", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().out
    assert main(["campaign", "--suite", "smoke", "--switches", "bess,warp"]) == 1
    assert "unknown switches" in capsys.readouterr().out


def test_campaign_store_and_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess",
        "--no-cache", "--store", "log.jsonl", "--export-csv", "out.csv",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "out.csv").read_text().startswith("key,")

    # Resume executes nothing: all four runs are already in the store.
    assert main([
        "campaign", "--suite", "smoke", "--switches", "bess",
        "--no-cache", "--store", "log.jsonl", "--resume",
        "--warmup-ns", "100000", "--measure-ns", "300000",
    ]) == 0
    out = capsys.readouterr().out
    assert "0 executed" in out
    assert "4 resumed" in out


def test_unknown_switch_rejected(capsys):
    assert main(["p2p", "--switch", "notaswitch"]) == 1
    err = capsys.readouterr().err
    assert "notaswitch" in err
    # The error must be actionable: every registered switch is listed.
    for name in switch_names():
        assert name in err


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["warp-drive"])


@pytest.mark.usefixtures("unwatched")
def test_profile_surfaces_warp_state(capsys):
    """--profile reports what the fast-forward did (here: the replay
    declines the profiled run, and the turbo keeps it)."""
    assert main(["p2p", "--switch", "vpp", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "warp: engaged[turbo]:" in out


def test_no_warp_flag(capsys):
    assert main(["p2p", "--switch", "vpp", "--profile", "--no-warp"]) == 0
    assert "warp: disabled" in capsys.readouterr().out


def test_no_warp_reaches_campaign_runs(tmp_path):
    """--no-warp pins the tier off in every run a campaign executes, so
    no row records a fast-forward tier."""
    csv_path = tmp_path / "out.csv"
    assert main([
        "campaign", "--suite", "smoke", "--switches", "vpp", "--no-warp",
        "--no-cache", "--export-csv", str(csv_path), *FAST,
    ]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert [row["warp"] for row in rows] == [""] * len(rows)


def test_engine_flags_do_not_leak_out_of_main(monkeypatch):
    """The engine flags hold for one command; main() hands the caller's
    environment back as it found it, unset variables included."""
    monkeypatch.delenv("REPRO_WARP", raising=False)
    monkeypatch.setenv("REPRO_FLUID", "0")
    before = engine_features()
    for flags in (["--fluid"], ["--no-warp"]):
        assert main(["p2p", "--switch", "vpp", *flags, *FAST]) == 0
        assert "REPRO_WARP" not in os.environ
        assert os.environ["REPRO_FLUID"] == "0"
        assert engine_features() == before


@pytest.mark.parametrize("argv", [
    ["p2p", "--switch", "vpp",
     "--fault", "nic-link-flap@sut-nic.p1:at_ns=300000,duration_ns=200000"],
    ["p2p", "--repeat", "3", "--store", "x.jsonl"],
    ["p2p", "--repeat", "3"],
    ["p2p", "--vnfs", "3"],
    ["v2v-latency", "--latency"],
    ["trace", "v2v-latency", "--bidirectional"],
    ["validate", "--suite", "paper"],
    ["campaign", "--size", "1024"],
    ["campaign", "--bidirectional"],
    ["campaign", "--vnfs", "3"],
    ["campaign", "--latency"],
    ["campaign", "--switch", "bess"],
    # Observability flags the suite commands never honoured.
    ["suite", "--profile"],
    ["suite", "--trace-out", "t.json"],
    ["suite", "--flow-out", "f.prom"],
    ["suite", "--sample-rate", "4"],
    ["validate", "--profile"],
    ["validate", "--trace-out", "t.json"],
    ["validate", "--flow-stats"],
    # Not an abbreviation of --metrics-out: no command abbreviates.
    ["validate", "--metrics"],
    # Grids are never traced per run and write no per-flow file.
    ["campaign", "--sample-rate", "4"],
    ["campaign", "--flow-out", "f.prom"],
    ["resilience", "--flow-out", "f.prom"],
    ["resilience", "--sample-rate", "4"],
])
def test_flags_a_command_never_reads_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "not supported" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["p2p", "--cache"], "--cache is read only by the --latency sweep"),
    (["p2v", "--cache-dir", "d"], "--cache-dir is read only by the --latency sweep"),
    (["p2p", "--latency", "--profile"], "--latency runs the one-way, unobserved sweep"),
    (["p2p", "--latency", "--bidirectional"], "--latency runs the one-way, unobserved sweep"),
    (["campaign", "--ci-target", "0.1"], "--ci-target is read only by trial campaigns"),
    (["campaign", "--trial-summary", "t.json"], "--trial-summary is read only by trial campaigns"),
    (["campaign", "--repeat", "2", "--seed-policy", "trial", "--resume"],
     "--resume is not supported by trial campaigns"),
    # A grid's observations need a result file to land in.
    (["resilience", "--profile"], "--profile fills a column of --export-csv or --store"),
    (["campaign", "--metrics"], "--metrics fills a column of --export-csv or --store"),
    (["campaign", "--top-k", "8", "--metrics-out", "m.prom"],
     "--top-k fills a column of --export-csv or --store"),
    # A modifier whose base is off, even at its default value.
    (["p2p", "--sample-rate", "2"], "--sample-rate is read only by traced runs"),
    (["suite", "--cache-dir", "d"], "--cache-dir is read only when the result cache is on"),
    (["campaign", "--no-cache", "--cache-dir", "d"],
     "--cache-dir is read only when the result cache is on"),
    (["resilience", "--switch", "vale", "--switches", "vpp"],
     "--switch is read only without --switches"),
    (["campaign", "--ci-target", "0.05"], "--ci-target is read only by trial campaigns"),
])
def test_flags_the_other_flags_make_moot_are_rejected(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["p2p", "--switch", "vpp", "--flows", "0"], "bad --flows '0'"),
    (["p2p", "--switch", "vpp", "--flows", "-5"], "bad --flows '-5'"),
    (["campaign", "--switches", "vpp", "--flows", "1k,0", "--no-cache"], "bad --flows '1k,0'"),
    (["p2p", "--switch", "vpp", "--flows", "10", "--churn", "-5"], "bad --churn -5.0"),
    (["p2p", "--switch", "vpp", "--flows", "10", "--churn", "inf"], "bad --churn inf"),
])
def test_out_of_range_flow_axis_values_are_refused(argv, message, capsys):
    """Refused up front with one line, before any run starts."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [captured.err.strip()]
    assert message in captured.err


def test_unknown_token_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["p2p", "--not-a-flag"])


def test_top_k_collects_flow_telemetry(capsys):
    assert main(["p2p", "--switch", "vale", "--top-k", "8", *FAST]) == 0
    assert "jain=" in capsys.readouterr().out


def test_v2v_latency_profile_keeps_the_rtt_line(capsys):
    assert main(["v2v-latency", "--switch", "vale", "--profile", *FAST]) == 0
    out = capsys.readouterr().out
    assert "v2v RTT latency for vale: mean=" in out
    assert "cycle attribution, vale v2v 64B" in out
    assert "Gbps" not in out


#: Flags that name a file the command writes.
FILE_FLAGS = (
    "--metrics-out", "--trace-out", "--flow-out", "--export-csv", "--store",
    "--trial-summary",
)
RESILIENCE = [
    "--fault", "nic-link-flap@sut-nic.p1:at_ns=800000,duration_ns=300000",
    "--warmup-ns", "400000", "--measure-ns", "1600000",
]


#: One run of every command; ``skip`` names file flags the run's mode
#: does not read.
FILE_FLAG_CASES = [
    (["p2p", "--switch", "vale", *FAST], ()),
    (["p2v", "--switch", "vale", *FAST], ()),
    (["v2v", "--switch", "vale", *FAST], ()),
    (["loopback", "--switch", "vale", "--vnfs", "2", *FAST], ()),
    (["v2v-latency", "--switch", "vale", *FAST], ()),
    (["trace", "v2v", "--switch", "vale", *FAST], ()),
    (["flowstats", "p2v", "--switch", "vale", *FAST], ()),
    (["suite", "--switch", "vale", *FAST], ()),
    (["validate", *FAST], ()),
    # --trial-summary is read in trial mode only (the case below).
    (["campaign", "--switches", "vale", "--no-cache", *FAST], ("--trial-summary",)),
    (["campaign", "--switches", "vale", "--no-cache", "--repeat", "2",
      "--seed-policy", "trial", *FAST], ()),
    (["resilience", "p2p", "--switch", "vale", *RESILIENCE], ()),
]


@pytest.mark.parametrize("argv, skip", FILE_FLAG_CASES)
def test_every_declared_file_flag_writes_its_file(argv, skip, tmp_path, monkeypatch):
    """Derived from the parser: each file flag a command declares makes
    it write a non-empty file."""
    monkeypatch.chdir(tmp_path)
    parser = _build_parser()[1][argv[0]]
    declared = [
        flag for flag in FILE_FLAGS
        if flag not in skip and not parser.parse_known_args([flag, "x"])[1]
    ]
    paths = {flag: tmp_path / f"out{flag.replace('-', '_')}" for flag in declared}
    flags = [token for flag, path in paths.items() for token in (flag, str(path))]
    # validate grades short windows too, and may fail a criterion (exit 2).
    assert main([*argv, *flags]) in ((0, 2) if argv[0] == "validate" else (0,))
    for flag, path in paths.items():
        assert path.exists() and path.stat().st_size > 0, (argv[0], flag)


def test_file_flag_cases_cover_every_command():
    assert {argv[0] for argv, _ in FILE_FLAG_CASES} == set(_build_parser()[1])


def _documented_invocations():
    """Every repro-bench command line in the shell blocks of README and
    docs/, and every ``python -m repro.cli`` step in the CI workflow, as
    (source, argv) pairs."""
    root = Path(__file__).resolve().parents[2]
    sources = [
        (path.name, "repro-bench ", "\n".join(
            re.findall(r"```(?:bash|console)\n(.*?)```", path.read_text(), re.S)
        ))
        for path in (root / "README.md", *sorted((root / "docs").glob("*.md")))
    ]
    sources.append(
        ("ci.yml", "-m repro.cli ", (root / ".github" / "workflows" / "ci.yml").read_text())
    )
    for name, marker, text in sources:
        for line in text.replace("\\\n", " ").splitlines():
            if marker not in line:
                continue
            argv = []
            for token in shlex.split(line.split(marker, 1)[1], comments=True):
                if token in ("|", ">", "&&", ";"):
                    break
                argv.append(token)
            yield name, argv


def test_documented_invocations_pass_flag_validation():
    invocations = list(_documented_invocations())
    assert sum(name == "README.md" for name, _ in invocations) >= 15
    assert sum(name == "ci.yml" for name, _ in invocations) >= 8
    parser, commands = _build_parser()
    for name, argv in invocations:
        args, leftover = parser.parse_known_args(argv)
        assert _flag_error(args, leftover, commands) is None, (name, argv)
