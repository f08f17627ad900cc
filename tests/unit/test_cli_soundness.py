"""CLI tests for the soundness layer: --seed-policy and trial campaigns."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

FAST = ["--warmup-ns", "100000", "--measure-ns", "400000"]
FAULT = [
    "--fault", "nic-link-flap@sut-nic.p1:at_ns=800000,duration_ns=300000",
    "--warmup-ns", "400000", "--measure-ns", "1600000",
]


class TestRepeatSemantics:
    @pytest.mark.parametrize("command", [
        ["suite", "--switch", "vpp", "--repeat", "2"],
        ["campaign", "--suite", "smoke", "--repeat", "2"],
        ["validate", "--repeat", "2"],
        ["resilience", "p2p", "--switch", "vale", "--repeat", "2", *FAULT],
    ])
    def test_repeat_without_policy_is_a_loud_error(self, command, capsys):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "--seed-policy" in err
        assert "trial" in err and "reseed" in err

    def test_seed_policy_rejected_on_single_run_commands(self, capsys):
        assert main(["p2p", "--switch", "vpp", "--seed-policy", "trial"]) == 1
        assert "--seed-policy is not supported" in capsys.readouterr().err


class TestTrialCampaignCommand:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        summary_path = tmp_path / "trials.json"
        csv_path = tmp_path / "out.csv"
        prom_path = tmp_path / "trials.prom"
        assert main([
            "campaign", "--suite", "smoke", "--switches", "vpp",
            "--repeat", "4", "--seed-policy", "trial", "--no-cache",
            "--trial-summary", str(summary_path),
            "--export-csv", str(csv_path),
            "--metrics-out", str(prom_path),
            *FAST,
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "95% CI" in out

        summary = json.loads(summary_path.read_text())
        assert summary  # one entry per grid point
        entry = next(iter(summary.values()))
        assert {"status", "n", "ci_low", "ci_high", "verdict"} <= set(entry)

        header = csv_path.read_text().splitlines()[0]
        assert "trials" in header.split(",")

        prom = prom_path.read_text()
        assert "repro_trials_n{" in prom
        assert "repro_trials_quarantined{" in prom

    def test_reseed_policy_keeps_the_legacy_seed_axis(self, tmp_path, capsys):
        assert main([
            "campaign", "--suite", "smoke", "--switches", "vpp",
            "--repeat", "2", "--seed-policy", "reseed", "--no-cache",
            *FAST,
        ]) == 0
        out = capsys.readouterr().out
        assert "#s1" in out and "#s2" in out  # two seeds, no trial suffix
        assert "+t1" not in out



class TestResilienceRepeats:
    """resilience shares the seed-policy rule: replicas of its one-seed
    grid are reseeds or soundness trials, never an unstated choice."""

    @pytest.mark.parametrize("policy, labels", [
        ("reseed", ("#s1 ", "#s2 ")),
        ("trial", ("#s1 ", "#s1+t1 ")),
    ])
    def test_policy_shapes_the_replicas(self, policy, labels, capsys):
        assert main([
            "resilience", "p2p", "--switch", "vale",
            "--repeat", "2", "--seed-policy", policy, *FAULT,
        ]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "/vale#" in line]
        assert len(rows) == 2
        for row, label in zip(rows, labels):
            assert label in row and "yes" in row
