"""Unit tests for traffic profiles (size mixes and the Zipf rank CDF)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.units import line_rate_pps
from repro.traffic.profiles import (
    DATACENTER,
    IMIX,
    PROFILES,
    ZIPF_GUIDE_BITS,
    SizeProfile,
    fixed,
    zipf_cdf,
    zipf_guide,
    zipf_ranks,
)


class TestSizeProfile:
    def test_fixed_profile(self):
        profile = fixed(256)
        assert profile.mean_size == 256
        assert profile.line_rate_pps() == pytest.approx(line_rate_pps(256))

    def test_imix_mean(self):
        # 7*64 + 4*594 + 1*1518 over 12 packets.
        expected = (7 * 64 + 4 * 594 + 1 * 1518) / 12
        assert IMIX.mean_size == pytest.approx(expected)

    def test_datacenter_mean_near_cited_850b(self):
        # The paper cites an ~850 B average for data centres (Sec. 5.2).
        assert 700 < DATACENTER.mean_size < 900

    def test_probabilities_sum_to_one(self):
        for profile in PROFILES.values():
            assert profile.probabilities.sum() == pytest.approx(1.0)

    def test_sample_respects_support(self):
        rng = np.random.default_rng(0)
        draws = IMIX.sample(rng, 1000)
        assert set(np.unique(draws)) <= set(IMIX.sizes)

    def test_sample_frequencies_match_weights(self):
        rng = np.random.default_rng(1)
        draws = IMIX.sample(rng, 20_000)
        frac_64 = float(np.mean(draws == 64))
        assert frac_64 == pytest.approx(7 / 12, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeProfile("bad", sizes=(64,), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            SizeProfile("bad", sizes=(), weights=())
        with pytest.raises(ValueError):
            SizeProfile("bad", sizes=(32,), weights=(1.0,))
        with pytest.raises(ValueError):
            SizeProfile("bad", sizes=(64,), weights=(0.0,))

    def test_line_rate_below_min_frame_rate(self):
        # A mix's pps saturation sits between its extremes'.
        assert line_rate_pps(1518) < IMIX.line_rate_pps() < line_rate_pps(64)


class TestZipfCdf:
    def test_read_only(self):
        cdf = zipf_cdf(1000, 1.1)
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0] = 0.5

    def test_well_formed(self):
        cdf = zipf_cdf(1000, 1.1)
        assert cdf.shape == (1000,)
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) > 0).all()

    def test_one_array_per_flows_and_alpha(self):
        assert zipf_cdf(1000, 1.1) is zipf_cdf(1000, 1.1)
        assert zipf_cdf(1000, 1.1) is not zipf_cdf(1000, 1.2)

    def test_memo_is_bounded(self):
        for flows in range(2, 12):
            zipf_cdf(flows, 1.1)
        info = zipf_cdf.cache_info()
        assert info.maxsize == 4
        assert info.currsize == 4


class TestGeneratorIntegration:
    def test_paced_source_with_size_profile(self, sim):
        from repro.traffic.generator import PacedSource

        class Recorder(PacedSource):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.emitted = []

            def _emit(self, batch):
                self.emitted.extend(batch)

        src = Recorder(sim, rate_pps=10e6, frame_size=64, size_profile=IMIX)
        src.start(0.0)
        sim.run_until(100_000)
        sizes = {p.size for p in src.emitted}
        assert sizes <= set(IMIX.sizes)
        assert len(sizes) > 1


class TestZipfGuide:
    """``zipf_ranks`` is ``zipf_cdf(...).searchsorted`` wherever it looks."""

    @pytest.mark.parametrize("flows", (2, 1_000, 10_000, 100_000, 1_000_000))
    def test_matches_searchsorted(self, flows):
        cdf = zipf_cdf(flows, 1.1)
        m = 1 << ZIPF_GUIDE_BITS
        edges = np.arange(m) / m
        draws = np.concatenate((
            np.random.default_rng(flows).random(100_000),
            edges,  # every bucket edge...
            np.nextafter(edges[1:], 0.0),  # ...and its lower neighbour
            cdf[:5_000][cdf[:5_000] < 1.0],  # the head's CDF values...
            np.nextafter(cdf[:5_000], 0.0),  # ...and their float neighbours
            np.nextafter(cdf[:5_000], 1.0)[np.nextafter(cdf[:5_000], 1.0) < 1.0],
        ))
        ranks = zipf_ranks(draws, flows, 1.1)
        assert ranks.dtype == np.int64
        assert (ranks == cdf.searchsorted(draws)).all()

    def test_read_only_and_bounded(self):
        guide = zipf_guide(1000, 1.1)
        assert guide is zipf_guide(1000, 1.1)
        assert guide.shape == (1 << ZIPF_GUIDE_BITS,)
        assert not guide.flags.writeable
        assert zipf_guide.cache_info().maxsize == 4
