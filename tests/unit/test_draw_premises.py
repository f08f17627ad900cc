"""The NumPy draw identities a flow-population source's chunk relies on.

``PacedSource`` draws :data:`~repro.traffic.generator.CHUNK_BURSTS`
bursts at once and merges the per-burst draws of one kind into one
call.  That emits the frames of per-burst draws only while one call of
``n`` equals any split of ``n`` into successive calls, bit generator end
state included.  These tests fail if NumPy stops honouring that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows import FlowPopulation
from repro.flows.population import FLOW_DISTS
from repro.traffic.profiles import PROFILES

#: Burst lengths the pacing produces (1 to 32 frames), unevenly mixed.
SPLIT = (32, 4, 17, 1, 32, 20, 9, 32)

SEEDS = range(20)


def _assert_batch_invariant(draw):
    """``draw(rng, n)`` once over ``sum(SPLIT)`` equals one call per piece."""
    for seed in SEEDS:
        merged_rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        merged = draw(merged_rng, sum(SPLIT))
        pieces = np.concatenate([draw(split_rng, n) for n in SPLIT])
        assert merged.dtype == pieces.dtype
        assert merged.tolist() == pieces.tolist()
        assert merged_rng.bit_generator.state == split_rng.bit_generator.state


def test_random_is_batch_invariant():
    _assert_batch_invariant(lambda rng, n: rng.random(n))


@pytest.mark.parametrize("high", (2, 3, 7, 100, 1_000, 2**16 + 1, 10**5, 10**6))
def test_integers_is_batch_invariant(high):
    """``integers(0, n)`` keeps its spare 32-bit half-word in the bit
    generator, not in the call."""
    _assert_batch_invariant(lambda rng, n: rng.integers(0, high, size=n))


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_size_sample_is_its_inverse_cdf(name):
    """``rng.choice(sizes, p=...)`` is one double per frame through the
    size CDF, so it splits like ``random``."""
    profile = PROFILES[name]
    cdf = profile.probabilities.cumsum()
    cdf /= cdf[-1]
    sizes = np.asarray(profile.sizes)
    for seed in SEEDS:
        sample_rng, inverse_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sampled = profile.sample(sample_rng, 500)
        inverse = sizes[cdf.searchsorted(inverse_rng.random(500), side="right")]
        assert sampled.tolist() == inverse.tolist()
        assert sample_rng.bit_generator.state == inverse_rng.bit_generator.state
    _assert_batch_invariant(profile.sample)


@pytest.mark.parametrize("dist", FLOW_DISTS)
@pytest.mark.parametrize("flows", (2, 1_000, 10**6))
def test_rank_sampling_is_batch_invariant(dist, flows):
    _assert_batch_invariant(FlowPopulation(flows=flows, dist=dist).sample_flows)
