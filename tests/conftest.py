"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from alternating_engine import ALTERNATING, NUMPY, AlternatingScheduler, NumpyScheduler
from repro import graphs
from repro.local_model import Network
from repro.local_model import engine as engine_registry

#: The test-only engines, by the name tests parametrize ``engine`` with.
TEST_ENGINES = {ALTERNATING: AlternatingScheduler, NUMPY: NumpyScheduler}


@pytest.fixture(autouse=True)
def _register_test_engines(request, monkeypatch):
    """Make the test-only ``"alternating"`` / ``"numpy"`` engine names resolvable.

    Only tests parametrized with one of those ``engine`` names see it, so
    :func:`repro.local_model.available_engines` stays the shipped set
    everywhere else.
    """
    callspec = getattr(request.node, "callspec", None)
    name = callspec.params.get("engine") if callspec is not None else None
    if isinstance(name, str) and name in TEST_ENGINES:
        monkeypatch.setitem(engine_registry._ENGINES, name, TEST_ENGINES[name])


@pytest.fixture
def triangle() -> Network:
    """The 3-cycle (smallest graph with chromatic number 3)."""
    return graphs.cycle_graph(3)


@pytest.fixture
def small_regular() -> Network:
    """A small random 4-regular graph (fast enough for every distributed run)."""
    return graphs.random_regular(24, 4, seed=7)


@pytest.fixture
def medium_regular() -> Network:
    """A medium random 6-regular graph used by the integration tests."""
    return graphs.random_regular(48, 6, seed=11)


@pytest.fixture
def fig1_graph() -> Network:
    """The Figure 1 construction (clique with pendant vertices)."""
    return graphs.clique_with_pendants(10)


@pytest.fixture
def star() -> Network:
    """A star with 5 leaves (neighborhood independence 5, not claw-free)."""
    return graphs.star_graph(5)


@pytest.fixture
def path10() -> Network:
    """The path on 10 vertices."""
    return graphs.path_graph(10)
