"""Unit tests for campaign run/grid specifications."""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    RunFailure,
    RunRecord,
    RunSpec,
    from_suite,
    grid,
    outcome_from_dict,
    runspec_from_experiment,
)
from repro.measure.suites import PAPER_SUITE, SMOKE_SUITE


def test_runspec_roundtrips_through_dict():
    spec = RunSpec(
        "p2v", "vpp", frame_size=256, bidirectional=True, seed=7,
        extra=(("reversed_path", True),),
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_runspec_extra_is_canonically_sorted():
    a = RunSpec("p2p", "vpp", extra=(("b", 1), ("a", 2)))
    b = RunSpec("p2p", "vpp", extra=(("a", 2), ("b", 1)))
    assert a == b


def test_runspec_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        RunSpec("warp", "vpp")


def test_runspec_latency_kind_is_v2v_only():
    RunSpec("v2v", "vale", kind="latency")  # fine
    with pytest.raises(ValueError, match="latency"):
        RunSpec("p2p", "vale", kind="latency")


def test_label_names_chain_length_and_seed():
    spec = RunSpec("loopback", "vale", n_vnfs=3, seed=9)
    assert spec.label == "loopback3-64B-uni/vale#s9"


def test_grid_cartesian_size():
    campaign = grid(
        "g", switches=("vpp", "bess"), scenarios=("p2p",),
        frame_sizes=(64, 1024), directions=(False, True), seeds=(1, 2),
    )
    assert len(campaign) == 2 * 2 * 2 * 2


def test_grid_vnfs_only_sweeps_loopback():
    campaign = grid(
        "g", switches=("vpp",), scenarios=("p2p", "loopback"),
        frame_sizes=(64,), directions=(False,), vnfs=(1, 2, 3),
    )
    loopbacks = [s for s in campaign if s.scenario == "loopback"]
    p2ps = [s for s in campaign if s.scenario == "p2p"]
    assert {s.n_vnfs for s in loopbacks} == {1, 2, 3}
    assert len(p2ps) == 1


def test_deduplicated_preserves_order():
    a, b = RunSpec("p2p", "vpp"), RunSpec("p2p", "bess")
    campaign = CampaignSpec("c", (a, b, a)).deduplicated()
    assert campaign.runs == (a, b)


def test_from_suite_expands_switches_and_seeds():
    campaign = from_suite(SMOKE_SUITE, ["vpp", "vale"], seeds=(1, 2))
    assert len(campaign) == len(SMOKE_SUITE.experiments) * 2 * 2
    assert campaign.name == "suite:smoke"


def test_from_suite_accepts_name():
    assert len(from_suite("smoke", ["vpp"])) == len(SMOKE_SUITE.experiments)
    with pytest.raises(KeyError, match="unknown suite"):
        from_suite("nope", ["vpp"])


def test_runspec_from_experiment_maps_the_paper_grid():
    long_chain = [s for s in PAPER_SUITE.experiments if s.name == "loopback5-64B-uni"][0]
    spec = runspec_from_experiment(long_chain, "vale", 1e5, 1e6, seed=3)
    assert spec.scenario == "loopback"
    assert spec.n_vnfs == 5
    assert spec.seed == 3


def test_runspec_from_experiment_rejects_custom_builders():
    from repro.measure.suites import ExperimentSpec

    custom = ExperimentSpec("custom", build=lambda *a, **k: None)
    assert runspec_from_experiment(custom, "vpp", 1e5, 1e6, 1) is None


def test_record_roundtrip_and_mirror_properties():
    record = RunRecord(
        spec=RunSpec("v2v", "snabb", frame_size=256),
        per_direction_gbps=[3.0, 2.0],
        per_direction_mpps=[4.0, 3.5],
        events=10,
        duration_ns=1e6,
    )
    revived = outcome_from_dict(record.to_dict())
    assert isinstance(revived, RunRecord)
    assert revived.gbps == pytest.approx(5.0)
    assert revived.mpps == pytest.approx(7.5)
    assert revived.switch == "snabb"
    assert revived.frame_size == 256
    assert revived.ok


def test_failure_roundtrip():
    failure = RunFailure(
        spec=RunSpec("p2p", "vpp"), error="RuntimeError", message="boom", attempts=2
    )
    revived = outcome_from_dict(failure.to_dict())
    assert isinstance(revived, RunFailure)
    assert revived.error == "RuntimeError"
    assert revived.attempts == 2
    assert not revived.ok


class TestTrialAxis:
    """The soundness-trial field on RunSpec (repro.measure.soundness)."""

    def test_trial_roundtrips_through_dict(self):
        spec = RunSpec("p2p", "vpp", seed=3, trial=2)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_trial_zero_is_omitted_from_dict(self):
        """Cache-key stability: the default trial must serialise exactly
        as it did before the field existed."""
        assert "trial" not in RunSpec("p2p", "vpp").to_dict()

    def test_trial_suffixes_the_label(self):
        assert RunSpec("p2p", "vpp", seed=9, trial=2).label.endswith("#s9+t2")
        assert RunSpec("p2p", "vpp", seed=9).label.endswith("#s9")

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            RunSpec("p2p", "vpp", trial=-1)

    def test_with_trials_expands_each_run(self):
        campaign = CampaignSpec("c", (RunSpec("p2p", "vpp", seed=5),)).with_trials(3)
        assert [s.trial for s in campaign] == [0, 1, 2]
        assert {s.seed for s in campaign} == {5}

    def test_with_trials_reseed_policy(self):
        campaign = CampaignSpec(
            "c", (RunSpec("p2p", "vpp", seed=5),)
        ).with_trials(3, seed_policy="reseed")
        assert [s.seed for s in campaign] == [5, 6, 7]
        assert {s.trial for s in campaign} == {0}

    def test_with_trials_one_is_identity(self):
        campaign = CampaignSpec("c", (RunSpec("p2p", "vpp"),))
        assert campaign.with_trials(1) is campaign

    def test_trial_cache_keys_are_distinct(self):
        from repro.campaign.cache import run_key

        base = RunSpec("p2p", "vpp")
        keys = {run_key(base), run_key(RunSpec("p2p", "vpp", trial=1))}
        assert len(keys) == 2
