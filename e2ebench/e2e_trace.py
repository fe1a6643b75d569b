"""Layer spans recorded from outside the program.

For one traced op, :func:`installed` replaces the public function of each
layer (see ``LAYERS``) with a wrapper that times the call, and puts the
original back when the op ends.  Nothing inside ``src/`` is modified: a
wrapper sits on the module or class attribute that the caller resolves at
call time, so untraced ops run the unmodified functions.

A layer's *self time* is its span's duration minus the spans opened inside
it.  The op itself is the root span; what no layer span covers is reported
as ``trace.unattributed_ms``, so per op the layer self times plus the
unattributed time add up to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Layer names, as they appear in ``<layer>.self_ms`` per-layer metrics.
LAYERS = (
    "fast_network.from_edge_array",
    "fast_network.with_edge_updates",
    "fast_network.induced",
    "line_csr.build_line_graph_fast",
    "portfolio",
    "core",
    "verification",
    "dynamic",
    "experiments",
)

#: Named Legal-Color phases broken out of ``RunMetrics.phase_seconds``;
#: every other phase is summed into ``other``.
PHASES = ("psi-selection", "kw-reduce", "linial", "kuhn-defective-edge", "other")


def phase_family(name: str) -> str:
    """``"sim:psi-selection[p=6]"`` -> ``"psi-selection"``."""
    base = name.split("[", 1)[0].removeprefix("sim:")
    return base if base in PHASES else "other"


class Tracer:
    """In-memory span totals for the traced ops of one run."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.phase_s: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.counts: Dict[str, int] = {}
        self.ops = 0
        self.op_ns = 0
        self.unattributed_ns = 0
        self.last_op_ns = 0
        # One child-time accumulator per open span; empty outside an op.
        self._open: List[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    @contextmanager
    def op(self) -> Iterator[None]:
        """The root span of one op."""
        self._open.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            wall = time.perf_counter_ns() - start
            covered = self._open.pop()
            self.ops += 1
            self.op_ns += wall
            self.last_op_ns = wall
            self.unattributed_ns += wall - covered

    def span(self, layer: str, fn: Callable, on_result: Optional[Callable] = None):
        """``fn`` wrapped in a ``layer`` span (a pass-through outside ops)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            self._open.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.self_ns[layer] += elapsed - self._open.pop()
                self._open[-1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable):
        """``fn`` wrapped so each call inside an op bumps ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def _line_entries(tracer: Tracer, line_graph) -> None:
    tracer.count("line_csr.line_entries", int(line_graph.degrees_np.sum()))


def _core_result(tracer: Tracer, result) -> None:
    metrics = result.metrics
    for name, seconds in metrics.phase_seconds.items():
        tracer.phase_s[phase_family(name)] += seconds
    tracer.count(
        "core.fallback_phases",
        len(metrics.fallback_phase_names) + len(metrics.compiled_fallback_phase_names),
    )


def _portfolio_result(tracer: Tracer, result) -> None:
    tracer.count("core.degraded_engines", len(result.decision.degraded_from))


def targets():
    """``(layer, owner, attribute, on_result)`` for every wrapped function.

    ``layer`` is ``None`` for a counter.  The owner is the module or class
    whose attribute the caller resolves at call time: the package root for
    the façade the benchmark calls, and the façade and session modules' own
    imported names for the core entry points they call.
    """
    import repro
    import repro.verification
    from repro.core import edge_coloring
    from repro.dynamic import session
    from repro.experiments import ExperimentRunner
    from repro.portfolio import CostModel, facade

    return [
        ("fast_network.from_edge_array", repro.FastNetwork, "from_edge_array", None),
        ("fast_network.with_edge_updates", repro.FastNetwork, "with_edge_updates", None),
        ("fast_network.induced", repro.FastNetwork, "induced", None),
        ("line_csr.build_line_graph_fast", edge_coloring, "build_line_graph_fast", _line_entries),
        ("portfolio", repro, "color_graph", _portfolio_result),
        ("portfolio", repro, "color_edges", _portfolio_result),
        (None, CostModel, "from_json", "portfolio.cost_model_loads"),
        ("core", facade, "core_color_vertices", _core_result),
        ("core", facade, "core_color_edges", _core_result),
        ("core", session, "color_vertices", _core_result),
        ("verification", repro.verification, "assert_legal_vertex_coloring", None),
        ("verification", repro.verification, "assert_legal_edge_coloring", None),
        ("dynamic", repro.DynamicColoring, "apply_updates", None),
        ("experiments", ExperimentRunner, "run", None),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for layer, owner, attribute, extra in targets():
            original = vars(owner)[attribute]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            if layer is None:
                wrapped = tracer.counter(extra, fn)
            else:
                wrapped = tracer.span(layer, fn, extra)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, classmethod(wrapped) if is_classmethod else wrapped)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
