"""Integration tests for the repro.flows traffic-diversity axis.

The contracts, end to end:

* ``flows=1`` (and all flow defaults) is *exactly* the seed workload --
  bit-identical numbers, block fast path engaged, no flow population
  registered, no cache gauges;
* multi-flow offered load drives the capacity-bounded flow caches into
  distinct regimes (EMC hit-rate degrades with flow count);
* warp auto-declines flow-diverse runs with a stable reason and never
  engages;
* the flow axis rides campaign specs deterministically (serial ==
  parallel) and labels/cache keys stay backward-compatible.
"""

from __future__ import annotations

import pytest

from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS, fast_throughput
from repro.campaign.executor import run_campaign
from repro.campaign.spec import grid
from repro.measure.runner import drive
from repro.scenarios import loopback, p2p, p2v, v2v

WINDOWS = dict(warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS)


# -- flows=1 is the seed workload, verbatim ---------------------------------


def test_single_flow_build_registers_no_population():
    tb = p2p.build("ovs-dpdk", frame_size=64, flows=1)
    assert "flow_population" not in tb.extras
    assert tb.extras["tx"][0].flow_population is None


def test_single_flow_numbers_bit_identical_to_seed():
    seed_run = fast_throughput(p2p.build, "ovs-dpdk")
    flow_run = fast_throughput(p2p.build, "ovs-dpdk", flows=1, flow_dist="zipf")
    assert seed_run.per_direction_gbps == flow_run.per_direction_gbps
    assert seed_run.per_direction_mpps == flow_run.per_direction_mpps
    assert seed_run.events == flow_run.events


def test_single_flow_keeps_block_fast_path():
    tb = p2p.build("ovs-dpdk", frame_size=64, flows=1)
    assert tb.extras["tx"][0]._uniform  # flyweight block emission engaged


def test_multi_flow_build_registers_population():
    tb = p2p.build("ovs-dpdk", frame_size=64, flows=1000, flow_dist="zipf")
    pop = tb.extras["flow_population"]
    assert pop.flows == 1000 and pop.dist == "zipf"
    assert tb.extras["tx"][0].flow_population is pop
    assert not tb.extras["tx"][0]._uniform


@pytest.mark.parametrize("build", [p2p.build, p2v.build, v2v.build, loopback.build])
def test_every_scenario_accepts_the_flow_axis(build):
    result = fast_throughput(build, "ovs-dpdk", flows=256, flow_dist="zipf")
    assert result.gbps > 0.0


# -- distinct cache regimes -------------------------------------------------


def _cache_after_run(switch_name, **kwargs):
    tb = p2p.build(switch_name, frame_size=64, **kwargs)
    drive(tb, **WINDOWS)
    return tb.switch.cache_stats()


def test_emc_hit_rate_degrades_with_flow_count():
    few = _cache_after_run("ovs-dpdk", flows=100, flow_dist="zipf")
    many = _cache_after_run("ovs-dpdk", flows=100_000, flow_dist="zipf")
    # 100 flows sit comfortably in the 8K EMC: everything hits after
    # warm-up.  100K flows thrash it.
    assert few["emc_hit_rate"] > 0.95
    assert many["emc_hit_rate"] < few["emc_hit_rate"]
    assert many["emc_misses"] > few["emc_misses"]
    assert many["upcalls"] > few["upcalls"]


def test_throughput_collapses_under_emc_thrash():
    clean = fast_throughput(p2p.build, "ovs-dpdk")
    thrashed = fast_throughput(p2p.build, "ovs-dpdk", flows=100_000, flow_dist="zipf")
    assert thrashed.gbps < 0.5 * clean.gbps


def test_vale_mac_table_eviction_storm():
    stats = _cache_after_run("vale", flows=100_000, flow_dist="zipf")
    assert stats["mac_entries"] == stats["mac_capacity"]  # pinned at the cap
    assert stats["mac_evictions"] > 0
    assert stats["mac_learned"] - stats["mac_evictions"] == stats["mac_entries"]


def test_t4p4s_flow_table_only_arms_under_population():
    single = _cache_after_run("t4p4s")
    multi = _cache_after_run("t4p4s", flows=100_000, flow_dist="zipf")
    assert single == {}
    assert multi["flow_hit_rate"] < 1.0
    assert multi["flow_entries"] <= multi["flow_capacity"]


def test_churn_prevents_cache_convergence():
    steady = _cache_after_run("ovs-dpdk", flows=100)
    churning = _cache_after_run("ovs-dpdk", flows=100, churn=5e6)
    # 5M flows/s over a ~1ms window cycles thousands of fresh flows
    # through a population that would otherwise converge after warm-up.
    assert churning["emc_misses"] > 3 * max(steady["emc_misses"], 1)
    assert churning["emc_hit_rate"] < steady["emc_hit_rate"]


# -- warp: decline, never engage --------------------------------------------


@pytest.mark.usefixtures("unwatched")
def test_warp_declines_multi_flow_with_stable_reason():
    tb = p2p.build("ovs-dpdk", frame_size=64, flows=1000, flow_dist="zipf")
    result = drive(tb, **WINDOWS, warp=True)
    assert result.warp is not None
    assert not result.warp.engaged
    assert result.warp.reason == "multi-flow-traffic"


@pytest.mark.usefixtures("unwatched")
def test_warp_declines_churn_with_stable_reason():
    tb = p2p.build("ovs-dpdk", frame_size=64, flows=100, churn=1e6)
    result = drive(tb, **WINDOWS, warp=True)
    assert not result.warp.engaged
    assert result.warp.reason == "flow-churn"


def test_warp_never_engages_across_flow_grid():
    for switch in ("ovs-dpdk", "vale", "t4p4s"):
        tb = p2p.build(switch, frame_size=64, flows=4096, flow_dist="zipf")
        result = drive(tb, **WINDOWS, warp=True)
        assert not result.warp.engaged, switch


def test_warp_results_match_event_by_event_when_declined():
    """A declined warp must not perturb the run: warp=True and warp=False
    produce bit-identical numbers for flow-diverse traffic."""
    on = fast_throughput(p2p.build, "ovs-dpdk", flows=1000, flow_dist="zipf", warp=True)
    off = fast_throughput(p2p.build, "ovs-dpdk", flows=1000, flow_dist="zipf", warp=False)
    assert on.per_direction_gbps == off.per_direction_gbps
    assert on.events == off.events


# -- determinism ------------------------------------------------------------


def test_multi_flow_run_is_deterministic():
    a = fast_throughput(p2p.build, "ovs-dpdk", flows=10_000, flow_dist="zipf", seed=5)
    b = fast_throughput(p2p.build, "ovs-dpdk", flows=10_000, flow_dist="zipf", seed=5)
    assert a.per_direction_gbps == b.per_direction_gbps
    assert a.events == b.events


def test_flow_campaign_serial_equals_parallel():
    campaign = grid(
        "flow-identity",
        switches=("ovs-dpdk", "vale"),
        scenarios=("p2p",),
        frame_sizes=(64,),
        directions=(False,),
        flows=(1, 1000),
        flow_dist="zipf",
        **WINDOWS,
    )
    assert len(campaign) == 4  # 2 switches x 2 flow counts
    serial = run_campaign(campaign, workers=1)
    parallel = run_campaign(campaign, workers=2)
    assert {k: tuple(o.per_direction_gbps) for k, o in serial.outcomes} == {
        k: tuple(o.per_direction_gbps) for k, o in parallel.outcomes
    }


def test_flow_axis_label_and_cache_key_compat():
    campaign = grid(
        "labels", switches=("ovs-dpdk",), scenarios=("p2p",), frame_sizes=(64,),
        directions=(False,), flows=(1, 1000), flow_dist="zipf", **WINDOWS,
    )
    labels = [run.label for run in campaign.runs]
    assert "p2p-64B-uni/ovs-dpdk#s1" in labels  # flows=1: pre-flow-axis label
    assert "p2p-64B-uni+1000flows/ovs-dpdk#s1" in labels
    by_label = {run.label: run for run in campaign.runs}
    assert by_label["p2p-64B-uni/ovs-dpdk#s1"].extra == ()  # unchanged cache key


# -- observability gating ---------------------------------------------------


def test_cache_gauges_present_only_under_population():
    from repro.obs import ObsConfig, observe

    tb = p2p.build("ovs-dpdk", frame_size=64, flows=1000, flow_dist="zipf")
    observation = observe(tb, ObsConfig(metrics=True))
    result = drive(tb, **WINDOWS)
    observation.finish(result)
    text = observation.prometheus_text()
    assert "cache" in text and "emc_hit_rate" in text

    tb1 = p2p.build("ovs-dpdk", frame_size=64)
    observation1 = observe(tb1, ObsConfig(metrics=True))
    result1 = drive(tb1, **WINDOWS)
    observation1.finish(result1)
    assert "cache" not in observation1.prometheus_text()
