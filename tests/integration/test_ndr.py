"""Integration tests: RFC 2544 NDR search vs the paper's R+ methodology."""

from __future__ import annotations

import pytest

from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS
from repro.measure.ndr import measure_loss, ndr_search
from repro.measure.throughput import estimate_r_plus
from repro.scenarios import p2p

FAST = dict(warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS)


def test_loss_zero_below_capacity():
    loss = measure_loss(p2p.build, "bess", 64, rate_pps=2e6, **FAST)
    assert loss == pytest.approx(0.0, abs=0.01)


def test_loss_positive_above_capacity():
    # VALE's 64B capacity is ~8 Mpps; offering line rate must drop.
    loss = measure_loss(p2p.build, "vale", 64, rate_pps=14.8e6, **FAST)
    assert loss > 0.3


def test_ndr_validation():
    with pytest.raises(ValueError):
        ndr_search(p2p.build, "bess", iterations=0)
    with pytest.raises(ValueError):
        ndr_search(p2p.build, "bess", loss_threshold=1.0)


def test_ndr_converges_below_capacity():
    result = ndr_search(p2p.build, "vale", 64, iterations=7, **FAST)
    r_plus = estimate_r_plus(p2p.build, "vale", 64, **FAST)
    assert 0 < result.ndr_pps <= r_plus * 1.1
    assert len(result.trials) == 7


def test_ndr_trials_are_bisection():
    result = ndr_search(p2p.build, "bess", 64, iterations=5, **FAST)
    offered = [rate for rate, _ in result.trials]
    # First probe is half of line rate; subsequent probes halve the gap.
    assert offered[0] == pytest.approx(14_880_952.38 / 2, rel=1e-3)


def test_strict_ndr_is_unreliable():
    """The paper's footnote 3: strict NDR "may converge to unreliable
    points due to even a single packet drop caused at the driver level".

    BESS genuinely forwards at line rate (R+ ~= 14.88 Mpps), yet the
    strict search gets derailed by sporadic driver drops and lands far
    below it.
    """
    r_plus = estimate_r_plus(p2p.build, "bess", 64, **FAST)
    strict = ndr_search(p2p.build, "bess", 64, iterations=8, **FAST)
    assert strict.ndr_pps < 0.8 * r_plus


def test_tolerant_ndr_approaches_r_plus():
    """Forgiving a handful of sporadic drops recovers the true rate --
    the massaging hardware rigs do implicitly.  This contrast is the
    quantitative argument for the paper's R+ methodology."""
    r_plus = estimate_r_plus(p2p.build, "bess", 64, **FAST)
    strict = ndr_search(p2p.build, "bess", 64, iterations=8, **FAST)
    tolerant = ndr_search(
        p2p.build, "bess", 64, iterations=8, tolerance_packets=64, **FAST
    )
    assert tolerant.ndr_pps > strict.ndr_pps
    assert tolerant.ndr_pps > 0.95 * r_plus


def test_relaxed_threshold_raises_ndr():
    strict = ndr_search(p2p.build, "t4p4s", 64, iterations=7, **FAST)
    relaxed = ndr_search(p2p.build, "t4p4s", 64, iterations=7, loss_threshold=0.05, **FAST)
    assert relaxed.ndr_pps >= strict.ndr_pps


def test_ndr_result_fields():
    result = ndr_search(p2p.build, "bess", 64, iterations=3, **FAST)
    assert result.switch == "bess"
    assert result.frame_size == 64
    assert result.ndr_mpps == pytest.approx(result.ndr_pps / 1e6)

