"""The differential oracle (``tools/oracle.py``) on seeded random draws.

Each draw crosses switch, scenario, direction, frame size, rate, flows,
fault, trial and warm-up.  Every encoding and tier must match the
draw's reference run at its level, and every tier report must be the
one :func:`oracle.expected_tier` predicts.  The command line runs the
fixed grid and longer windows.
"""

from __future__ import annotations

import random

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracle


@seed(20261019)
@settings(max_examples=16, deadline=None)
@given(draw_seed=st.integers(min_value=0, max_value=2**32 - 1))
# VALE's bidirectional p2v and v2v: the in-VM VALE bridge's core is
# profiled, so the turbo engages although VALE's own core is not.
@example(draw_seed=208)
@example(draw_seed=480)
def test_every_encoding_matches_the_reference(draw_seed):
    spec = oracle.draw(random.Random(draw_seed))
    assert oracle.check(spec) == [], spec
