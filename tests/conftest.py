"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make tests/_helpers.py and the differential oracle (tools/oracle.py)
# importable from nested test packages.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from repro.core.engine import Simulator
from repro.core.rng import RngRegistry
from repro.cpu.numa import Machine


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def machine(sim: Simulator) -> Machine:
    return Machine(sim)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=42)


@pytest.fixture
def unwatched(monkeypatch):
    """Detach the invariant watchdog (``REPRO_WATCHDOG``) for one test.

    ``drive`` runs no fast-forward tier under the watchdog, so tests whose
    subject is a tier's engagement or decline reason pin it off.
    """
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
