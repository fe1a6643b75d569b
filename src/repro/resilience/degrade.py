"""Graceful engine degradation: compiled -> vectorized -> reference.

All three execution engines are bit-identical by contract (enforced by the
engine-equivalence suite), so when one of them breaks as *infrastructure* --
a kernel backend whose shared library vanished, a poisoned ctypes handle, an
injected fault -- the correct recovery is simply to re-run the same work on
the next engine down the chain instead of failing the caller.  The chain is
ordered fastest-first, so a degraded run pays a performance price, never a
correctness one.

:func:`run_with_degradation` is the single wrapper implementing this policy.
It recovers only from :class:`~repro.exceptions.EngineFailure` (the marker
class for infrastructure breakage); algorithmic errors propagate unchanged,
because re-running an invalid parameterization on a slower engine cannot fix
it.  Every abandoned engine is recorded on the returned :class:`DegradedRun`
so callers can surface the degradation in ``RunMetrics`` (the
``degraded_engine_names`` field) and in ``PortfolioDecision.degraded_from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple, Type

from repro.exceptions import EngineFailure

#: Fastest-first fallback order.  ``"reference"`` is the end of the line: it
#: has no kernels, no numpy fast paths, and no backend to lose.
DEGRADE_CHAIN: Tuple[str, ...] = ("compiled", "vectorized", "reference")


def degrade_path(engine: str, chain: Tuple[str, ...] = DEGRADE_CHAIN) -> Tuple[str, ...]:
    """The engines to try for ``engine``, in order: itself, then its fallbacks.

    An engine outside ``chain`` gets no fallback -- it is tried alone, so
    custom engines never silently produce results on a different path.
    """
    if engine in chain:
        return chain[chain.index(engine):]
    return (engine,)


@dataclass(frozen=True)
class DegradedRun:
    """The outcome of a possibly-degraded execution.

    ``result`` is whatever the wrapped callable returned; ``engine`` is the
    engine that actually produced it; ``failures`` records each abandoned
    engine with a one-line account of why it failed, in degradation order.
    """

    result: Any
    engine: str
    failures: Tuple[Tuple[str, str], ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    @property
    def degraded_from(self) -> Tuple[str, ...]:
        """The abandoned engine names, fastest first."""
        return tuple(name for name, _ in self.failures)

    def record_on_metrics(self, metrics) -> None:
        """Append the abandoned engines to ``metrics.degraded_engine_names``."""
        if self.failures:
            metrics.degraded_engine_names.extend(self.degraded_from)


def run_with_degradation(
    invoke: Callable[[str], Any],
    engine: str,
    chain: Tuple[str, ...] = DEGRADE_CHAIN,
    recoverable: Tuple[Type[BaseException], ...] = (EngineFailure,),
) -> DegradedRun:
    """Run ``invoke(engine_name)``, degrading down ``chain`` on engine failure.

    ``invoke`` must be restartable from scratch (every engine run recomputes
    the full result; there is no partial-state handoff between engines --
    bit-identical outputs make that unnecessary).  Only ``recoverable``
    exceptions trigger degradation; when the last engine in the path fails
    too, an :class:`EngineFailure` chaining the final cause is raised with
    the full failure history in its message.
    """
    path = degrade_path(engine, chain)
    failures = []
    for position, name in enumerate(path):
        try:
            return DegradedRun(
                result=invoke(name), engine=name, failures=tuple(failures)
            )
        except recoverable as error:
            failures.append((name, f"{type(error).__name__}: {error}"))
            if position == len(path) - 1:
                raise EngineFailure(
                    "every engine in the degrade chain failed: "
                    + "; ".join(f"{n}: {reason}" for n, reason in failures)
                ) from error
    raise AssertionError("unreachable: degrade path is never empty")
