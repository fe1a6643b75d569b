"""A test-only engine that interleaves kernel phases with fallback phases.

:class:`AlternatingScheduler` is the vectorized engine with every other
phase of each execution plan (the first, third, ... phase) forced onto the
reference per-phase fallback loop, even when the phase ships a
``vector_run`` kernel.  Every pipeline therefore crosses the
kernel/fallback boundary in both directions, exercising the state
hand-offs of :meth:`VectorizedScheduler.run` (shared dicts) and
:meth:`VectorizedScheduler.run_table` (``StateTable`` <-> dicts).  Its
outputs must match the reference scheduler bit for bit, like every other
engine's.

Tests reach it by class, or by the engine name :data:`ALTERNATING` when
parametrized with it (``tests/conftest.py`` registers the name for exactly
those tests).
"""

from __future__ import annotations

from repro.local_model import VectorizedScheduler

#: Engine name under which the test-suite registers :class:`AlternatingScheduler`.
ALTERNATING = "alternating"


class AlternatingScheduler(VectorizedScheduler):
    """Vectorized engine; even-indexed plan entries take the fallback path."""

    @classmethod
    def _compile(cls, algorithm):
        # The parent caches its plan on the pipeline; this override only
        # post-processes it, so the cached plan stays the vectorized one.
        plan = super()._compile(algorithm)
        return tuple(
            (phase, None if index % 2 == 0 else vector_run)
            for index, (phase, vector_run) in enumerate(plan)
        )
