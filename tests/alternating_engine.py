"""Test-only engines that pin the array engine's two hand-offs.

:class:`AlternatingScheduler` is the vectorized engine with every other
phase of each execution plan (the first, third, ... phase) forced onto the
reference per-phase fallback loop, even when the phase ships a
``vector_run`` kernel.  Every pipeline therefore crosses the
kernel/fallback boundary in both directions, exercising the state
hand-offs of :meth:`VectorizedScheduler.run` (shared dicts) and
:meth:`VectorizedScheduler.run_table` (``StateTable`` <-> dicts).  Its
remaining phases dispatch the fused kernels whenever a kernel backend
resolved, so it also crosses the fused-kernel/fallback boundary.

:class:`NumpyScheduler` is the vectorized engine with the fused kernels
off: every kernel-eligible phase runs its numpy ``vector_run``, whatever
backend the process resolved.

Both must match the reference scheduler bit for bit, like every other
engine.  Tests reach them by class, or by the engine names
:data:`ALTERNATING` / :data:`NUMPY` when parametrized with them
(``tests/conftest.py`` registers the names for exactly those tests).
"""

from __future__ import annotations

from repro.local_model import VectorizedScheduler

#: Engine name under which the test-suite registers :class:`AlternatingScheduler`.
ALTERNATING = "alternating"
#: Engine name under which the test-suite registers :class:`NumpyScheduler`.
NUMPY = "numpy"


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


class NumpyScheduler(VectorizedScheduler):
    """Vectorized engine with no kernel backend: numpy on every phase."""

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        self._backend = None
