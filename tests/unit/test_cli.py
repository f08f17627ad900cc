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
    """--profile reports what the fast-forward did (here: why it declined
    -- per-packet profiling is one of the replay-safety guard rails)."""
    assert main(["p2p", "--switch", "vpp", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "warp: declined[turbo]: per-packet-tracing" in out


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
])
def test_flags_a_command_never_reads_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "not supported" in capsys.readouterr().err


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
    parser = _build_parser()
    for name, argv in invocations:
        assert _flag_error(parser.parse_args(argv), parser) is None, (name, argv)
