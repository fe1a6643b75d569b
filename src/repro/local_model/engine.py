"""Engine selection: the reference scheduler and the two array engines.

The package ships three interchangeable execution paths for synchronous
phases:

* ``"reference"`` -- :class:`~repro.local_model.scheduler.Scheduler`, the
  direct transcription of the paper's model (one message object at a time,
  per-round validation).  Maximally transparent; use it when debugging a
  phase or when exactness of the *simulation* itself is under scrutiny.
* ``"vectorized"`` -- :class:`~repro.local_model.vectorized.VectorizedScheduler`
  (the process-wide default), which executes the pure-color phases (Linial
  recoloring, the color reductions, the defective polynomial steps,
  ``psi``-selection, the baselines) as numpy kernels over the CSR arrays and
  runs any phase without a kernel through the reference per-phase loop.
  Produces bit-identical states and metrics (enforced by
  ``tests/test_engine_equivalence.py``) at a fraction of the cost.
* ``"compiled"`` -- :class:`~repro.local_model.compiled.CompiledScheduler`,
  the vectorized engine plus fused multi-core kernels (numba or a
  C/OpenMP extension, see :mod:`repro.local_model.kernels`) for the per-round
  hot loops, falling back to the numpy ``vector_run`` per phase when no
  kernel (or no backend) exists.  Bit-identical to ``"vectorized"`` in
  every configuration; fastest on large instances with multiple cores.

Every high-level algorithm (``run_legal_coloring``, ``color_edges``, ...)
accepts an ``engine`` argument that is resolved here; ``None`` falls back to
the process-wide default, which can be flipped globally with
:func:`set_default_engine` or temporarily with the :func:`use_engine` context
manager.  The name of the removed per-node engine is still accepted for one
minor version (see :func:`resolve_engine`).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Union

from repro.exceptions import InvalidParameterError
from repro.local_model.compiled import CompiledScheduler
from repro.local_model.fast_network import FastNetwork, NetworkLike
from repro.local_model.scheduler import Scheduler
from repro.local_model.vectorized import VectorizedScheduler

#: Any scheduler class satisfies the same constructor / ``run`` protocol.
SchedulerLike = Union[Scheduler, VectorizedScheduler]

_ENGINES: Dict[str, Callable[..., SchedulerLike]] = {
    "reference": Scheduler,
    "vectorized": VectorizedScheduler,
    "compiled": CompiledScheduler,
}

_default_engine: str = "vectorized"


def available_engines() -> tuple:
    """Names of the registered execution engines."""
    return tuple(sorted(_ENGINES))


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate ``engine`` and substitute the process default for ``None``.

    The removed per-node engine's name resolves to ``"vectorized"`` with a
    :class:`DeprecationWarning`, so callers (and scenario cache keys) see
    the engine that actually runs.
    """
    name = _default_engine if engine is None else engine
    if name == "batched":
        warnings.warn(
            "engine 'batched' was removed in repro 1.9 and now runs 'vectorized'; "
            "the alias will be removed in 1.10",
            DeprecationWarning,
            stacklevel=2,
        )
        return "vectorized"
    if name not in _ENGINES:
        raise InvalidParameterError(
            f"unknown engine {name!r}; available engines: {available_engines()}"
        )
    return name


def default_engine() -> str:
    """The current process-wide default engine name."""
    return _default_engine


def set_default_engine(engine: str) -> None:
    """Set the process-wide default engine (any of :func:`available_engines`)."""
    global _default_engine
    _default_engine = resolve_engine(engine)


@contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Temporarily switch the default engine within a ``with`` block."""
    global _default_engine
    previous = _default_engine
    _default_engine = resolve_engine(engine)
    try:
        yield _default_engine
    finally:
        _default_engine = previous


def make_scheduler(
    network: NetworkLike,
    engine: Optional[str] = None,
    globals_extra: Optional[Mapping[str, Any]] = None,
    round_limit_factor: int = 1,
) -> SchedulerLike:
    """Instantiate the scheduler for ``engine`` (default: the process default).

    This is the single seam through which all core algorithms obtain their
    executor, so every algorithm runs unchanged on every path.  ``network``
    may be a :class:`~repro.local_model.network.Network` or a (possibly
    CSR-masked) :class:`~repro.local_model.fast_network.FastNetwork`; the
    reference engine materializes the latter into the identical
    :class:`~repro.local_model.network.Network` on demand, so filtered views
    remain fully auditable.
    """
    name = resolve_engine(engine)
    if name == "reference" and isinstance(network, FastNetwork):
        network = network.to_network()
    factory = _ENGINES[name]
    return factory(
        network,
        globals_extra=globals_extra,
        round_limit_factor=round_limit_factor,
    )
