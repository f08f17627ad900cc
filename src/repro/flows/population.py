"""Flow-population specifications.

A :class:`FlowPopulation` describes the *structure* of offered traffic
independently of its rate: how many concurrent flows exist, how traffic
is spread across them (uniform or Zipf-skewed), whether the active flow
set churns over time, and optionally which frame-size mix rides along.

Design notes
------------

* **Trivial populations normalise away.**  ``flows=1`` with no churn and
  no size mix is exactly the seed workload; :func:`resolve_flow_population`
  returns ``None`` for it so every pre-existing code path (block fast
  path, warp, golden stats) is taken verbatim.

* **Sampling is vectorised, per chunk.**  A traffic source draws a
  chunk of bursts at once (:class:`repro.traffic.generator.PacedSource`)
  and both of its emission modes read that one chunk.  Zipf ranks come
  from a precomputed CDF (:func:`repro.traffic.profiles.zipf_cdf`)
  instead of ``rng.choice(p=...)``, which rebuilds the distribution per
  call -- the difference between milliseconds and minutes at a million
  flows -- and an exact guide table in front of its ``searchsorted``
  (:func:`repro.traffic.profiles.zipf_ranks`) answers most draws without
  a search.  Both tables are built once per process per (flows, alpha),
  not once per testbed or trial replica.

* **Churn is deterministic.**  Rather than spending RNG state on
  arrival/departure processes (which would perturb serial-vs-parallel
  identity), churn slides the active flow window by
  ``int(now_ns * churn_fps * 1e-9)``: ``churn_fps`` flows retire and
  ``churn_fps`` fresh flows appear per simulated second, as a pure
  function of simulated time.  :meth:`FlowPopulation.sample_flows`
  draws churn-free ranks and :meth:`FlowPopulation.churn_shift` is the
  slide at a given time, so a chunk drawn ahead applies each burst's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.traffic.profiles import PROFILES, SizeProfile, zipf_ranks

#: Flow-rate distributions a population can use.
FLOW_DISTS = ("uniform", "zipf")

#: Default Zipf skew: mildly heavy-tailed, matching the alpha range used
#: in flow-cache benchmarking literature.
DEFAULT_ZIPF_ALPHA = 1.1


@dataclass(frozen=True)
class FlowPopulation:
    """How offered traffic is spread across concurrent flows."""

    flows: int = 1
    dist: str = "uniform"
    zipf_alpha: float = DEFAULT_ZIPF_ALPHA
    #: Flows retired (and fresh flows introduced) per simulated second.
    churn_fps: float = 0.0
    #: Optional frame-size mix name from ``repro.traffic.profiles.PROFILES``.
    size_mix: str | None = None
    #: Trial-axis phase shift of the deterministic churn clock
    #: (``repro.measure.soundness``): the churn window slides as if the
    #: run had started this many ns later.  Never serialised -- it is
    #: derived from ``trial.*`` RNG streams, not part of the workload
    #: definition.
    churn_offset_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.flows < 1:
            raise ValueError("flows must be >= 1")
        if self.dist not in FLOW_DISTS:
            raise ValueError(f"dist must be one of {FLOW_DISTS}, got {self.dist!r}")
        if self.zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be > 0")
        if not 0 <= self.churn_fps < float("inf"):
            raise ValueError("churn_fps must be finite and >= 0")
        if self.churn_offset_ns < 0:
            raise ValueError("churn_offset_ns must be >= 0")
        if self.size_mix is not None and self.size_mix not in PROFILES:
            raise ValueError(
                f"unknown size mix {self.size_mix!r}; known: {sorted(PROFILES)}"
            )

    @property
    def is_trivial(self) -> bool:
        """True when this population is exactly the seed workload."""
        return self.flows == 1 and self.churn_fps == 0.0 and self.size_mix is None

    @property
    def size_profile(self) -> SizeProfile | None:
        return PROFILES[self.size_mix] if self.size_mix else None

    def sample_flows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` popularity ranks (int64), before the churn shift.

        A one-flow population draws nothing.  One call of ``count``
        makes the draws of any split of ``count`` into successive calls,
        bit generator state included (``tests/unit/test_draw_premises.py``).
        """
        if self.flows == 1:
            return np.zeros(count, dtype=np.int64)
        if self.dist == "zipf":
            return zipf_ranks(rng.random(count), self.flows, self.zipf_alpha)
        return rng.integers(0, self.flows, size=count)

    def churn_shift(self, now_ns: float) -> int:
        """Flows retired by ``now_ns``: rank ``r`` is then flow ``r + shift``.

        Churn shifts the active window deterministically: the same
        popularity rank maps to a fresh flow id once its predecessor
        has retired.  ``churn_offset_ns == 0.0`` adds exactly nothing
        (float identity), keeping base runs bit-identical.
        """
        if not self.churn_fps:
            return 0
        return int((now_ns + self.churn_offset_ns) * self.churn_fps * 1e-9)


def resolve_flow_population(
    flows: int = 1,
    flow_dist: str = "uniform",
    churn: float = 0.0,
    size_mix: str | None = None,
    zipf_alpha: float = DEFAULT_ZIPF_ALPHA,
) -> FlowPopulation | None:
    """Build a population from scenario/CLI kwargs; ``None`` when trivial."""
    pop = FlowPopulation(
        flows=int(flows),
        dist=flow_dist,
        zipf_alpha=zipf_alpha,
        churn_fps=float(churn),
        size_mix=size_mix,
    )
    return None if pop.is_trivial else pop


def flow_axis_items(
    flows: int = 1,
    flow_dist: str = "uniform",
    churn: float = 0.0,
    size_mix: str | None = None,
) -> tuple[tuple[str, Any], ...]:
    """Canonical ``RunSpec.extra`` items for the flow axis.

    Defaults are omitted entirely so single-flow specs hash and cache
    exactly as they did before the flow axis existed.
    """
    items: list[tuple[str, Any]] = []
    if flows != 1:
        items.append(("flows", int(flows)))
        if flow_dist != "uniform":
            items.append(("flow_dist", flow_dist))
    if churn:
        items.append(("churn", float(churn)))
    if size_mix is not None:
        items.append(("size_mix", size_mix))
    return tuple(items)


def flow_kwargs_from_items(extra: dict) -> dict:
    """Split flow-axis keys out of an ``extra`` mapping (in place)."""
    return {
        key: extra.pop(key)
        for key in ("flows", "flow_dist", "churn", "size_mix")
        if key in extra
    }
