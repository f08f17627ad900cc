"""Integration tests: the repeat scheduler, multi-trial NDR and latency."""

from __future__ import annotations

import pytest

from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS
from repro.campaign.cache import ResultCache, run_key
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import RunSpec
from repro.campaign.store import CampaignStore
from repro.measure.ndr import ndr_search
from repro.measure.soundness import TrialPolicy, run_trial_campaign
from repro.scenarios import p2p

WINDOWS = dict(warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS)


def _spec(switch: str = "vpp", **kwargs) -> RunSpec:
    return RunSpec("p2p", switch, seed=1, **WINDOWS, **kwargs)


class TestRepeatScheduler:
    def test_stable_point_stops_at_n_min(self):
        policy = TrialPolicy(n_min=3, n_max=8, rel_ci_target=0.05)
        result = run_trial_campaign([_spec()], policy)
        point = result.points[0]
        assert point.status == "ok"
        assert point.summary.n == 3
        assert point.summary.verdict == "stable"
        assert len(point.records) == 3

    def test_early_stop_retires_progress_budget(self):
        """A converged point cancels its unused trials from the ETA total;
        the reporter must end exactly spent, not padded to n_max."""
        policy = TrialPolicy(n_min=3, n_max=8, rel_ci_target=0.05)
        reporter = ProgressReporter(total=0)
        result = run_trial_campaign([_spec()], policy, progress=reporter)
        n = result.points[0].summary.n
        assert reporter.done == n
        assert reporter.total == n  # 8 - 5 retired

    def test_unstable_point_is_quarantined_with_reason(self):
        """A point that never converges and never classifies stable ends
        quarantined, carrying the classifier's documented reason.

        At these short windows Snabb's 4-VNF loopback at seed 2 delivers
        256 frames per window in five of its six trials; trial 1's
        traffic phase (its start-time offset) leaves it 192, with driver
        drops on or off.  A cv of 0.11 with no trend or other structure
        classifies the point inconclusive, and the scheduler refuses to
        average it.
        """
        spec = RunSpec("loopback", "snabb", n_vnfs=4, seed=2, **WINDOWS)
        policy = TrialPolicy(n_min=6, n_max=6, rel_ci_target=0.0)
        result = run_trial_campaign([spec], policy)
        point = result.points[0]
        assert point.quarantined
        assert point.summary.n == policy.n_max
        assert point.reason == point.summary.reason
        assert point.reason  # stable, documented, non-empty
        assert result.quarantined == [point]

    def test_trial_zero_record_matches_single_run(self):
        """The scheduler's first trial is the plain campaign run."""
        from repro.campaign.spec import execute_run

        policy = TrialPolicy(n_min=3, n_max=3, rel_ci_target=0.05)
        result = run_trial_campaign([_spec()], policy)
        base = execute_run(_spec())
        assert repr(result.points[0].records[0].gbps) == repr(base.gbps)

    def test_trials_are_cached_per_trial_seed(self, tmp_path):
        """Re-running the same trial campaign serves every trial from the
        result cache -- trial specs are first-class cache keys."""
        policy = TrialPolicy(n_min=3, n_max=5, rel_ci_target=0.05)
        cache = ResultCache(tmp_path / "cache")
        first = ProgressReporter(total=0)
        run_trial_campaign([_spec()], policy, cache=cache, progress=first)
        assert first.executed > 0
        second = ProgressReporter(total=0)
        result = run_trial_campaign([_spec()], policy, cache=cache, progress=second)
        assert second.executed == 0
        assert second.cache_hits == first.executed
        assert result.points[0].summary.n == 3

    def test_store_record_carries_the_trial_summary(self, tmp_path):
        """The point summary is re-appended under the base run's key, so
        the JSONL later-lines-win rule updates the stored record."""
        policy = TrialPolicy(n_min=3, n_max=3, rel_ci_target=0.05)
        store = CampaignStore(tmp_path / "log.jsonl")
        result = run_trial_campaign([_spec()], policy, store=store)
        point = result.points[0]
        loaded = store.load()[run_key(point.spec)]
        assert loaded.trials is not None
        assert loaded.trials["n"] == 3
        assert loaded.trials["status"] == "ok"
        assert loaded.trials["verdict"] == point.summary.verdict

    def test_inapplicable_point_is_not_quarantined(self):
        # BESS cannot host 5 chained VMs (paper footnote 5).
        spec = RunSpec("loopback", "bess", n_vnfs=5, seed=1, **WINDOWS)
        policy = TrialPolicy(n_min=2, n_max=3, rel_ci_target=0.05)
        result = run_trial_campaign([spec], policy)
        point = result.points[0]
        assert point.status == "inapplicable"
        assert not point.quarantined
        assert not result.failures

    def test_outcomes_export_every_trial(self):
        policy = TrialPolicy(n_min=3, n_max=3, rel_ci_target=0.05)
        result = run_trial_campaign([_spec(), _spec("vale")], policy)
        keys = [key for key, _ in result.outcomes]
        assert len(keys) == 6
        assert len(set(keys)) == 6  # each trial has its own key

    def test_summary_dict_is_json_shaped(self):
        import json

        policy = TrialPolicy(n_min=3, n_max=3, rel_ci_target=0.05)
        result = run_trial_campaign([_spec()], policy)
        payload = result.summary_dict()
        text = json.dumps(payload, sort_keys=True)
        assert "ci_low" in text and "verdict" in text and "status" in text


class TestMultiTrialNdr:
    def test_percentile_mode_carries_trial_records_and_ci(self):
        result = ndr_search(
            p2p.build, "vale", 64, iterations=5, trials=3,
            tolerance_packets=64, **WINDOWS,
        )
        assert result.trials_per_point == 3
        assert result.loss_percentile == 50.0
        assert len(result.trial_records) == len(result.trials)
        assert all(len(losses) == 3 for _, losses in result.trial_records)
        assert result.ci is not None
        low, high = result.ci
        assert 0.0 <= low <= high

    def test_single_trial_mode_keeps_the_classic_result_shape(self):
        result = ndr_search(p2p.build, "vale", 64, iterations=5, **WINDOWS)
        assert result.trials_per_point == 1
        assert result.loss_percentile is None
        assert result.trial_records == ()
        assert result.ci is None

    def test_percentile_ndr_within_single_trial_bracket(self):
        """The p50-of-trials NDR visits the same dyadic rates and lands
        within the single-trial search's neighbouring brackets."""
        single = ndr_search(
            p2p.build, "vale", 64, iterations=5, tolerance_packets=64, **WINDOWS
        )
        multi = ndr_search(
            p2p.build, "vale", 64, iterations=5, trials=3,
            tolerance_packets=64, **WINDOWS,
        )
        single_rates = [rate for rate, _ in single.trials]
        multi_rates = [rate for rate, _ in multi.trials]
        assert multi_rates[0] == single_rates[0]  # same first bisection probe
        assert multi.ndr_pps > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ndr_search(p2p.build, "vpp", trials=0)
        with pytest.raises(ValueError):
            ndr_search(p2p.build, "vpp", trials=2, loss_percentile=101.0)


class TestMultiTrialLatency:
    def test_sweep_trials_attach_summary(self):
        from repro.measure.latency import latency_sweep

        single = latency_sweep(
            p2p.build, "vpp", fractions=(0.5,), r_plus_pps=5e6,
            measure_ns=FAST_MEASURE_NS, **{"warmup_ns": FAST_WARMUP_NS},
        )
        multi = latency_sweep(
            p2p.build, "vpp", fractions=(0.5,), r_plus_pps=5e6, trials=3,
            measure_ns=FAST_MEASURE_NS, **{"warmup_ns": FAST_WARMUP_NS},
        )
        point = multi[0.5]
        # Trial 0 is the unperturbed base sweep, bit-identical.
        assert repr(point.mean_us) == repr(single[0.5].mean_us)
        assert len(point.trial_means_us) == 3
        assert point.trials is not None
        assert point.trials["metric"] == "latency_mean_us"
        assert point.trials["n"] >= 1
        # The single-trial point leaves the soundness fields untouched.
        assert single[0.5].trial_means_us == ()
        assert single[0.5].trials is None

    def test_sweep_validation(self):
        from repro.measure.latency import latency_sweep

        with pytest.raises(ValueError):
            latency_sweep(p2p.build, "vpp", trials=0, r_plus_pps=1e6)


class TestRepeatSemantics:
    def test_validate_repeat_without_policy_is_loud(self):
        from repro.analysis.validate import validate

        with pytest.raises(ValueError, match="seed_policy"):
            validate(repeat=2)

    def test_suite_trial_policy_keeps_one_seed(self):
        from repro.measure.suites import SMOKE_SUITE

        outcomes = SMOKE_SUITE.run_outcomes(
            "vpp", repeat=2, seed_policy="trial", **WINDOWS
        )
        outcome = outcomes["p2p-64B"]
        assert len(outcome.records) == 2
        assert {r.spec.seed for r in outcome.records} == {1}
        assert [r.spec.trial for r in outcome.records] == [0, 1]
        summary = outcome.trial_summary()
        assert summary is not None and summary.n == 2

    def test_suite_unknown_policy_is_loud(self):
        from repro.measure.suites import SMOKE_SUITE

        with pytest.raises(ValueError, match="seed policy"):
            SMOKE_SUITE.run_outcomes("vpp", repeat=2, seed_policy="lucky", **WINDOWS)
