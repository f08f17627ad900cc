"""Unit tests for repro.flows: population specs, sampling, the campaign
axis encoding, and the CLI flag plumbing."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.flows import (
    FlowPopulation,
    flow_axis_items,
    flow_kwargs_from_items,
    resolve_flow_population,
)
from repro.flows.population import DEFAULT_ZIPF_ALPHA, FLOW_DISTS
from repro.traffic.profiles import zipf_cdf, zipf_guide


def _rng(seed=1):
    return np.random.default_rng(seed)


class TestFlowPopulationValidation:
    def test_defaults_are_trivial(self):
        pop = FlowPopulation()
        assert pop.is_trivial
        assert pop.flows == 1 and pop.dist == "uniform"
        assert pop.zipf_alpha == DEFAULT_ZIPF_ALPHA

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flows": 0},
            {"flows": -3},
            {"dist": "pareto"},
            {"zipf_alpha": 0.0},
            {"zipf_alpha": -1.0},
            {"churn_fps": -1.0},
            {"churn_fps": float("nan")},
            {"churn_fps": float("inf")},
            {"size_mix": "no-such-mix"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            FlowPopulation(**kwargs)

    def test_non_trivial_when_any_axis_set(self):
        assert not FlowPopulation(flows=2).is_trivial
        assert not FlowPopulation(churn_fps=10.0).is_trivial
        assert not FlowPopulation(size_mix="imix").is_trivial
        # A distribution choice alone changes nothing at one flow.
        assert FlowPopulation(dist="zipf").is_trivial

    def test_size_profile_lookup(self):
        assert FlowPopulation().size_profile is None
        profile = FlowPopulation(size_mix="imix").size_profile
        assert profile is not None

    def test_dists_registry(self):
        assert FLOW_DISTS == ("uniform", "zipf")


class TestSampling:
    def test_single_flow_samples_zero(self):
        pop = FlowPopulation(flows=1)
        ranks = pop.sample_flows(_rng(), 64)
        assert ranks.shape == (64,)
        assert not ranks.any()

    @pytest.mark.parametrize("dist", FLOW_DISTS)
    def test_ranks_within_population(self, dist):
        pop = FlowPopulation(flows=100, dist=dist)
        ranks = pop.sample_flows(_rng(), 4096)
        assert ranks.min() >= 0
        assert ranks.max() < 100

    def test_zipf_is_head_heavy(self):
        pop = FlowPopulation(flows=1000, dist="zipf")
        ranks = pop.sample_flows(_rng(), 20_000)
        # Rank 0 must dominate any deep-tail rank by a wide margin.
        head = int((ranks == 0).sum())
        tail = int((ranks >= 500).sum())
        assert head > tail

    def test_uniform_is_flat(self):
        pop = FlowPopulation(flows=10, dist="uniform")
        ranks = pop.sample_flows(_rng(), 50_000)
        counts = np.bincount(ranks, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_same_seed_same_draw(self):
        pop = FlowPopulation(flows=5000, dist="zipf")
        a = pop.sample_flows(_rng(42), 1024)
        b = pop.sample_flows(_rng(42), 1024)
        assert (a == b).all()

    def test_churn_slides_the_active_window(self):
        pop = FlowPopulation(flows=100, dist="uniform", churn_fps=1e6)
        early = pop.sample_flows(_rng(7), 256) + pop.churn_shift(0.0)
        late = pop.sample_flows(_rng(7), 256) + pop.churn_shift(3e6)
        # 1e6 flows/s * 3 ms = 3000 fresh flows: same draws, shifted ids.
        assert (late - early == 3000).all()

    def test_churn_is_a_pure_function_of_time(self):
        pop = FlowPopulation(flows=100, churn_fps=500.0)
        a = pop.sample_flows(_rng(3), 128) + pop.churn_shift(4e6)
        b = pop.sample_flows(_rng(3), 128) + pop.churn_shift(4e6)
        assert (a == b).all()
        assert pop.churn_shift(4e6) == 2
        assert FlowPopulation(flows=100).churn_shift(4e6) == 0

    def test_zipf_cdf_cached_and_well_formed(self):
        pop = FlowPopulation(flows=1000, dist="zipf")
        pop.sample_flows(_rng(), 64)
        before = zipf_cdf.cache_info().misses, zipf_guide.cache_info().misses
        pop.sample_flows(_rng(), 64)
        # cached, not rebuilt
        assert (zipf_cdf.cache_info().misses, zipf_guide.cache_info().misses) == before
        cdf = zipf_cdf(pop.flows, pop.zipf_alpha)
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) >= 0).all()
        # uniform: no CDF
        calls = zipf_cdf.cache_info().hits + zipf_cdf.cache_info().misses
        FlowPopulation(flows=1000).sample_flows(_rng(), 64)
        assert zipf_cdf.cache_info().hits + zipf_cdf.cache_info().misses == calls

    def test_zipf_cdf_shared_across_populations(self):
        """Trial replicas and rebuilt testbeds reuse one read-only CDF."""
        pop = FlowPopulation(flows=1000, dist="zipf")
        replica = FlowPopulation(flows=1000, dist="zipf", churn_fps=5.0, churn_offset_ns=1e6)
        pop.sample_flows(_rng(), 64)
        before = zipf_cdf.cache_info().misses, zipf_guide.cache_info().misses
        replica.sample_flows(_rng(), 64)
        assert (zipf_cdf.cache_info().misses, zipf_guide.cache_info().misses) == before
        assert not zipf_cdf(1000, pop.zipf_alpha).flags.writeable
        assert not zipf_guide(1000, pop.zipf_alpha).flags.writeable

    def test_zipf_draws_pinned(self):
        pop = FlowPopulation(flows=1000, dist="zipf")
        ranks = pop.sample_flows(_rng(5), 16)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [140, 143, 12, 2, 0, 4, 5, 0, 0, 990, 37, 1, 7, 753, 340, 202]


class TestResolve:
    def test_trivial_resolves_to_none(self):
        assert resolve_flow_population() is None
        assert resolve_flow_population(flows=1, flow_dist="zipf") is None

    def test_non_trivial_resolves_to_population(self):
        pop = resolve_flow_population(flows=100_000, flow_dist="zipf", churn=10.0)
        assert isinstance(pop, FlowPopulation)
        assert pop.flows == 100_000
        assert pop.dist == "zipf"
        assert pop.churn_fps == 10.0

    def test_size_mix_alone_is_non_trivial(self):
        pop = resolve_flow_population(size_mix="imix")
        assert pop is not None and pop.size_mix == "imix"


class TestAxisItems:
    def test_defaults_encode_to_nothing(self):
        assert flow_axis_items() == ()
        assert flow_axis_items(flows=1, flow_dist="zipf") == ()

    def test_non_defaults_encode_canonically(self):
        items = flow_axis_items(flows=1000, flow_dist="zipf", churn=5.0, size_mix="imix")
        assert items == (
            ("flows", 1000),
            ("flow_dist", "zipf"),
            ("churn", 5.0),
            ("size_mix", "imix"),
        )

    def test_uniform_dist_is_omitted(self):
        assert flow_axis_items(flows=1000) == (("flows", 1000),)

    def test_round_trip_through_kwargs(self):
        extra = dict(flow_axis_items(flows=64, churn=2.0)) | {"reversed_path": True}
        kwargs = flow_kwargs_from_items(extra)
        assert kwargs == {"flows": 64, "churn": 2.0}
        assert extra == {"reversed_path": True}  # popped in place


class TestCliFlags:
    def _args(self, **overrides):
        base = dict(flows="1", flow_dist="uniform", churn=0.0, size_mix=None)
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_flow_counts_parse_suffixes(self):
        from repro.cli import _flow_counts

        assert _flow_counts(self._args(flows="1")) == [1]
        assert _flow_counts(self._args(flows="100k")) == [100_000]
        assert _flow_counts(self._args(flows="1m")) == [1_000_000]
        assert _flow_counts(self._args(flows="1,1k,100K,1M")) == [
            1, 1_000, 100_000, 1_000_000,
        ]

    def test_flow_kwargs_empty_at_defaults(self):
        from repro.cli import _flow_kwargs

        assert _flow_kwargs(self._args()) == {}

    def test_flow_kwargs_carry_non_defaults(self):
        from repro.cli import _flow_kwargs

        kwargs = _flow_kwargs(
            self._args(flows="100k", flow_dist="zipf", churn=5.0, size_mix="imix")
        )
        assert kwargs == {
            "flows": 100_000,
            "flow_dist": "zipf",
            "churn": 5.0,
            "size_mix": "imix",
        }

    def test_comma_list_rejected_outside_campaign(self, capsys):
        from repro.cli import main

        assert main(["p2p", "--flows", "1,1k"]) == 1

    def test_bad_flows_token_rejected(self):
        from repro.cli import main

        assert main(["p2p", "--flows", "lots"]) == 1

    def test_unknown_size_mix_rejected(self):
        from repro.cli import main

        assert main(["p2p", "--size-mix", "jumbo-only"]) == 1

    def test_single_run_accepts_flow_flags(self, capsys):
        from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS
        from repro.cli import main

        code = main([
            "p2p", "--switch", "ovs-dpdk", "--flows", "1k", "--flow-dist", "zipf",
            "--warmup-ns", str(FAST_WARMUP_NS), "--measure-ns", str(FAST_MEASURE_NS),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p2p unidirectional 64B ovs-dpdk" in out
