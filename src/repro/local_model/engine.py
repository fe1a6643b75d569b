"""Engine selection: the reference scheduler and the array engine.

The package ships two interchangeable execution paths for synchronous
phases:

* ``"reference"`` -- :class:`~repro.local_model.scheduler.Scheduler`, the
  direct transcription of the paper's model (one message object at a time,
  per-round validation).  Maximally transparent; use it when debugging a
  phase or when exactness of the *simulation* itself is under scrutiny.
* ``"vectorized"`` -- :class:`~repro.local_model.vectorized.VectorizedScheduler`
  (the process-wide default), which executes the pure-color phases (Linial
  recoloring, the color reductions, the defective polynomial steps,
  ``psi``-selection, the baselines) as array programs over the CSR arrays
  and runs any phase without one through the reference per-phase loop.  The
  per-round hot loops run as fused multi-core kernels (numba or a C/OpenMP
  extension, see :mod:`repro.local_model.kernels`) whenever a kernel backend
  resolved, and as numpy otherwise (``REPRO_KERNEL_BACKEND=none`` forces
  numpy).  Produces bit-identical states and metrics in every configuration
  (enforced by ``tests/test_engine_equivalence.py``) at a fraction of the
  cost.

Every high-level algorithm (``run_legal_coloring``, ``color_edges``, ...)
accepts an ``engine`` argument that is resolved here; ``None`` falls back to
the process-wide default, which can be flipped globally with
:func:`set_default_engine` or temporarily with the :func:`use_engine` context
manager.  The name of the former kernel engine is still accepted for one
minor version (see :func:`resolve_engine`).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Union

from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, NetworkLike
from repro.local_model.scheduler import Scheduler
from repro.local_model.vectorized import VectorizedScheduler

#: Any scheduler class satisfies the same constructor / ``run`` protocol.
SchedulerLike = Union[Scheduler, VectorizedScheduler]

_ENGINES: Dict[str, Callable[..., SchedulerLike]] = {
    "reference": Scheduler,
    "vectorized": VectorizedScheduler,
}

_default_engine: str = "vectorized"


def available_engines() -> tuple:
    """Names of the registered execution engines."""
    return tuple(sorted(_ENGINES))


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate ``engine`` and substitute the process default for ``None``.

    The former kernel engine's name resolves to ``"vectorized"`` with a
    :class:`DeprecationWarning`, so callers (and scenario cache keys) see
    the engine that actually runs.
    """
    name = _default_engine if engine is None else engine
    if name == "compiled":
        warnings.warn(
            "engine 'compiled' was folded into 'vectorized' in repro 1.10, which "
            "runs the fused kernels whenever a kernel backend resolved; "
            "the alias will be removed in 1.11",
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
