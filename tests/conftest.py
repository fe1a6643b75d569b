"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from alternating_engine import ALTERNATING, AlternatingScheduler
from repro import graphs
from repro.local_model import Network
from repro.local_model import engine as engine_registry


@pytest.fixture(autouse=True)
def _register_alternating_engine(request, monkeypatch):
    """Make the test-only ``"alternating"`` engine name resolvable.

    Only tests parametrized with ``engine="alternating"`` see it, so
    :func:`repro.local_model.available_engines` stays the shipped set
    everywhere else.
    """
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("engine") == ALTERNATING:
        monkeypatch.setitem(engine_registry._ENGINES, ALTERNATING, AlternatingScheduler)


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
