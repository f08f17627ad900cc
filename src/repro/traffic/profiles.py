"""Traffic profiles: frame-size mixes and flow structures.

The paper's evaluation uses fixed-size single-flow synthetic traffic
(64/256/1024 B), and motivates realism by citing the ~850 B average
packet size in data centres [Benson et al. 2009].  This module provides
the profiles needed to go beyond the fixed-size workload:

* fixed-size (the paper's workload);
* IMIX (the classic 7:4:1 mix of 64/594/1518 B);
* a data-centre-like bimodal mix matching the cited 850 B average;
* uniform and custom mixes;

plus the Zipf rank CDF that :mod:`repro.flows` samples flow ids from,
and the guide table that answers most of its lookups without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.units import MAX_FRAME, MIN_FRAME, wire_bytes


@dataclass(frozen=True)
class SizeProfile:
    """A distribution over frame sizes."""

    name: str
    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights):
            raise ValueError("sizes and weights must align")
        if not self.sizes:
            raise ValueError("profile needs at least one size")
        for size in self.sizes:
            if not MIN_FRAME <= size <= MAX_FRAME:
                raise ValueError(f"frame size {size} outside [{MIN_FRAME}, {MAX_FRAME}]")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @property
    def probabilities(self) -> np.ndarray:
        weights = np.asarray(self.weights, dtype=float)
        return weights / weights.sum()

    @property
    def mean_size(self) -> float:
        """Expected frame size in bytes."""
        return float(np.dot(self.sizes, self.probabilities))

    @property
    def mean_wire_bytes(self) -> float:
        """Expected on-wire footprint (frame + 20 B overhead)."""
        return float(
            np.dot([wire_bytes(s) for s in self.sizes], self.probabilities)
        )

    def line_rate_pps(self, rate_bps: float = 10e9) -> float:
        """Packet rate saturating a link with this mix."""
        return rate_bps / (self.mean_wire_bytes * 8)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` frame sizes."""
        return rng.choice(self.sizes, size=count, p=self.probabilities)


def fixed(size: int) -> SizeProfile:
    """The paper's fixed-size workload."""
    return SizeProfile(name=f"fixed-{size}", sizes=(size,), weights=(1.0,))


#: Classic simple IMIX: 7 x 64 B : 4 x 594 B : 1 x 1518 B.
IMIX = SizeProfile(name="imix", sizes=(64, 594, 1518), weights=(7.0, 4.0, 1.0))

#: Bimodal data-centre mix tuned to the ~850 B average the paper cites
#: (Sec. 5.2 references Benson et al.'s data-centre measurements).
DATACENTER = SizeProfile(
    name="datacenter", sizes=(64, 1518), weights=(0.46, 0.54)
)

PROFILES = {p.name: p for p in (IMIX, DATACENTER)}


@lru_cache(maxsize=4)
def zipf_cdf(flows: int, alpha: float) -> np.ndarray:
    """Cumulative Zipf(``alpha``) rank popularity over ``flows`` ranks.

    Inverse-CDF sampling (``cdf.searchsorted(u)``) replaces
    ``rng.choice(p=...)``, which rebuilds its alias table on every call --
    prohibitive at 10^6 flows.  One read-only array is shared per
    (flows, alpha) per process; the memo holds four, which covers a
    1K/10K/100K/1M sweep.
    """
    ranks = np.arange(1, flows + 1, dtype=float)
    pmf = ranks ** (-alpha)
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # guard searchsorted against rounding
    cdf.flags.writeable = False
    return cdf


#: log2 of the Zipf guide table's length.  A power of two makes
#: ``u * 2**ZIPF_GUIDE_BITS`` exact, so a draw's bucket index is exact.
ZIPF_GUIDE_BITS = 16


@lru_cache(maxsize=4)
def zipf_guide(flows: int, alpha: float) -> np.ndarray:
    """Guide table in front of :func:`zipf_cdf`'s ``searchsorted``.

    With ``m = 2**ZIPF_GUIDE_BITS``, entry ``j`` is the rank of every
    draw in ``[j/m, (j+1)/m)`` when the bucket's two edges search to the
    same rank, and -1 where the bucket spans ranks.  Memoised and
    read-only like the CDF (int32, 256 KB each).
    """
    m = 1 << ZIPF_GUIDE_BITS
    edges = zipf_cdf(flows, alpha).searchsorted(np.arange(m + 1) / m)
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1).astype(np.int32)
    guide.flags.writeable = False
    return guide


def zipf_ranks(draws: np.ndarray, flows: int, alpha: float) -> np.ndarray:
    """``zipf_cdf(flows, alpha).searchsorted(draws)``, exactly, as int64.

    A draw ``u`` in ``[j/m, (j+1)/m)`` searches to a rank between the
    searches of the bucket's edges, so a bucket whose edges agree needs
    no search; only draws in the other buckets binary-search the CDF,
    in ascending order so that successive searches share cache lines.
    """
    ranks = zipf_guide(flows, alpha)[(draws * (1 << ZIPF_GUIDE_BITS)).astype(np.intp)]
    ranks = ranks.astype(np.int64)
    misses = np.flatnonzero(ranks < 0)
    keys = draws[misses]
    order = keys.argsort()
    ranks[misses[order]] = zipf_cdf(flows, alpha).searchsorted(keys[order])
    return ranks
