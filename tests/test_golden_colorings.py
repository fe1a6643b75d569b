"""Golden regression tests: seeded outputs are frozen under ``tests/data/``.

Every fixture in :mod:`make_goldens` is executed on every engine -- the two
shipped ones plus the test-only ``"numpy"`` (kernels off) and
``"alternating"`` engines -- and compared -- full coloring, palette, round
count, message count, bandwidth -- against its committed golden file.  A
mismatch means an (intentional or not) behavior change: if intentional,
regenerate with ``PYTHONPATH=src python tests/make_goldens.py`` and review
the diff.
"""

from __future__ import annotations

import json

import pytest

from alternating_engine import ALTERNATING, NUMPY
from make_goldens import FIXTURES, compute_fixture, golden_path

#: Fields compared one by one for a readable failure before the full diff.
SUMMARY_FIELDS = (
    "num_nodes",
    "num_edges",
    "palette",
    "colors_used",
    "rounds",
    "messages",
    "total_words",
    "max_message_words",
)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("engine", ["reference", "vectorized", NUMPY, ALTERNATING])
def test_golden_coloring(name, engine):
    path = golden_path(name)
    assert path.exists(), (
        f"missing golden file {path}; generate with "
        "'PYTHONPATH=src python tests/make_goldens.py'"
    )
    golden = json.loads(path.read_text())
    actual = compute_fixture(name, engine=engine)

    for field in SUMMARY_FIELDS:
        assert actual[field] == golden[field], (
            f"{name} [{engine}]: {field} changed "
            f"({golden[field]} -> {actual[field]})"
        )
    assert actual["coloring"] == golden["coloring"], (
        f"{name} [{engine}]: the coloring itself changed; if intentional, "
        "regenerate the goldens and review the diff"
    )
    assert actual == golden


def test_goldens_cover_every_fixture():
    for name in FIXTURES:
        assert golden_path(name).exists()
