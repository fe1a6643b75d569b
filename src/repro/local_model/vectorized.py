"""The array engine (the process-default engine).

For the paper's *pure-color* phases -- Linial's set-system recoloring, the
Kuhn-Wattenhofer block reduction, the defective polynomial steps, the
``psi``-selection loop -- a round's messages are just the nodes' current
colors, so the entire round is expressible as array arithmetic over the CSR
adjacency of a :class:`~repro.local_model.fast_network.FastNetwork`.

:class:`VectorizedScheduler` runs exactly those phases as array programs.  A
phase opts in by setting ``supports_vectorized = True`` and implementing
``vector_run(ctx)``, where ``ctx`` is the :class:`VectorContext` defined
here; any other phase runs through the reference
:class:`~repro.local_model.scheduler.Scheduler`'s per-phase loop, so a
pipeline may freely mix both kinds.  A phase whose class has a registered
fused kernel (see :mod:`repro.local_model.kernels`) runs that kernel on the
resolved backend (numba or the C/OpenMP extension) instead of its numpy
``vector_run``; with no backend it runs the numpy path.  The contract
mirrors the scalar callbacks bit for bit, whichever path a phase takes:

* the final per-node state dictionaries must be *identical* to what the
  reference scheduler produces (including internal scratch keys);
* the phase's :class:`~repro.local_model.metrics.PhaseMetrics` must be
  identical -- rounds, message count, total words, maximum message size.

``tests/test_engine_equivalence.py`` and the golden fixtures enforce both,
for every engine, across the whole algorithm zoo.  The metric side is
made hard to get wrong by the charging helpers on :class:`VectorContext`:
a uniform broadcast phase (every live node announces one scalar per round,
all nodes halt together) is fully described by its round count.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError, RoundLimitExceeded, SimulationError
from repro.local_model import kernels
from repro.local_model.algorithm import LocalView, PhasePipeline, SynchronousPhase
from repro.local_model.fast_network import FastNetwork, NetworkLike, fast_view
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.network import Network
from repro.local_model.scheduler import PhaseResult, Scheduler
from repro.local_model.state_table import StateTable


class VectorContext:
    """Everything a ``vector_run`` kernel may touch.

    The context hides the backing representation of the node states: when a
    pipeline runs through :meth:`VectorizedScheduler.run_table` the backing
    is a :class:`~repro.local_model.state_table.StateTable` and column reads
    and writes are pure array operations; otherwise it is the dense list of
    per-node state dictionaries.  Kernels use the accessors below and work
    identically (bit for bit) on both backings.

    Attributes
    ----------
    fast:
        The CSR view the phase runs on.
    metrics:
        The phase's metrics object, filled in through the charging helpers.
    round_limit:
        The phase's round budget (``round_limit_factor * max_rounds``);
        :meth:`check_round_budget` enforces it with the scheduler's exact
        exception.
    """

    def __init__(
        self,
        fast: FastNetwork,
        states: Optional[List[Dict[str, Any]]],
        metrics: PhaseMetrics,
        round_limit: int,
        phase_name: str,
        table: Optional[StateTable] = None,
        views_provider: Optional[Callable[[], List[LocalView]]] = None,
    ) -> None:
        if (states is None) == (table is None):
            raise SimulationError(
                "VectorContext requires exactly one backing: states or table"
            )
        self.fast = fast
        self._states = states
        self.table = table
        self.metrics = metrics
        self.round_limit = round_limit
        self.phase_name = phase_name
        self._views_provider = views_provider
        # Dict-backed runs: int64 mirrors of columns already gathered, so a
        # kernel reading the same key twice pays the per-node Python
        # iteration once.  Bypassed entirely (and discarded) the moment a
        # caller takes the raw ``states`` escape hatch, because from then on
        # the dicts can change behind the mirror's back.
        self._column_cache: Dict[str, np.ndarray] = {}
        self._column_cache_enabled = True

    # ------------------------------------------------------------------ #
    # State columns
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> List[Dict[str, Any]]:
        """The per-node state dictionaries (dict-backed contexts only).

        Kept for kernels that genuinely need per-node Python values; prefer
        the column accessors, which also work on the columnar backing.
        """
        if self._states is None:
            raise SimulationError(
                f"phase {self.phase_name!r} asked for per-node state dicts on a "
                "columnar (StateTable) run; use the VectorContext column accessors"
            )
        self._column_cache_enabled = False
        self._column_cache.clear()
        return self._states

    @property
    def views(self) -> List[LocalView]:
        """The per-node :class:`LocalView` objects (built lazily)."""
        if self._views_provider is None:
            raise SimulationError(
                f"phase {self.phase_name!r} asked for LocalViews but none are available"
            )
        return self._views_provider()

    def column(self, key: str) -> np.ndarray:
        """Gather ``state[key]`` over all nodes into a fresh ``int64`` array.

        On the columnar backing this is a :class:`StateTable` column read.
        On the dict backing the context keeps an int64 mirror per key: the
        per-node ``np.fromiter`` gather runs at most once per key, and a
        column the kernel itself wrote through :meth:`write_column` is
        served from the mirror without ever re-touching the dicts.
        """
        if self.table is not None:
            return self.table.get_ints(key)
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached.copy()
        values = np.fromiter(
            (state[key] for state in self._states),
            dtype=np.int64,
            count=len(self._states),
        )
        if self._column_cache_enabled:
            self._column_cache[key] = values.copy()
        return values

    def unique_ids(self) -> np.ndarray:
        """The nodes' distinct identity numbers (``int64``, dense order)."""
        return self.fast.unique_ids_np

    def write_column(self, key: str, values: np.ndarray) -> None:
        """Scatter ``values`` into ``state[key]`` as plain Python ints."""
        if self.table is not None:
            self.table.set_ints(key, values)
            return
        for state, value in zip(self._states, values.tolist()):
            state[key] = value
        if self._column_cache_enabled:
            self._column_cache[key] = np.asarray(values, dtype=np.int64).copy()

    def write_value(self, key: str, value: Any) -> None:
        """Write the same (immutable) value into ``state[key]`` everywhere."""
        if self.table is not None:
            if type(value) is int:
                self.table.fill_int(key, value)
            else:
                self.table.fill_object(key, value)
            return
        for state in self._states:
            state[key] = value
        if self._column_cache_enabled and type(value) is int:
            self._column_cache[key] = np.full(
                len(self._states), value, dtype=np.int64
            )
        else:
            self._column_cache.pop(key, None)

    def write_objects(self, key: str, values: List[Any]) -> None:
        """Write one (arbitrary) Python value per node into ``state[key]``."""
        if self.table is not None:
            self.table.set_objects(key, values)
            return
        for state, value in zip(self._states, values):
            state[key] = value
        self._column_cache.pop(key, None)

    def read_values(self, key: str) -> List[Any]:
        """Gather ``state[key]`` over all nodes as plain Python values."""
        if self.table is not None:
            return self.table.get_values(key)
        return [state[key] for state in self._states]

    def write_values(self, key: str, values: List[Any]) -> None:
        """Write per-node Python values, re-typing the column as needed."""
        if self.table is not None:
            self.table.set_values(key, values)
            return
        for state, value in zip(self._states, values):
            state[key] = value
        self._column_cache.pop(key, None)

    def copy_key(self, source_key: str, target_key: str) -> None:
        """``state[target] = state[source]`` on every node, kind-preserving."""
        if self.table is not None:
            self.table.copy_column(source_key, target_key)
            return
        for state in self._states:
            state[target_key] = state[source_key]
        cached = self._column_cache.get(source_key)
        if cached is not None and self._column_cache_enabled:
            self._column_cache[target_key] = cached.copy()
        else:
            self._column_cache.pop(target_key, None)

    # ------------------------------------------------------------------ #
    # Adjacency gathers
    # ------------------------------------------------------------------ #

    def gather_neighbors(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The concatenated neighbor lists of ``nodes``.

        Returns ``(local_rows, neighbors)``: CSR entry ``e`` of the result is
        the edge from ``nodes[local_rows[e]]`` to dense index
        ``neighbors[e]``.  Neighbor order within a node is the deterministic
        network order, matching the scalar engines' inbox iteration order.
        """
        fast = self.fast
        lengths = fast.degrees_np[nodes]
        total = int(lengths.sum())
        local_rows = np.repeat(np.arange(len(nodes), dtype=np.int64), lengths)
        if total == 0:
            return local_rows, np.zeros(0, dtype=np.int64)
        starts = np.repeat(fast.indptr_np[nodes], lengths)
        offsets = np.zeros(len(nodes), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
        return local_rows, fast.indices_np[starts + within]

    # ------------------------------------------------------------------ #
    # Metric charging
    # ------------------------------------------------------------------ #

    def check_round_budget(self, rounds: int) -> None:
        """Raise exactly like the scalar engines when ``rounds`` exceeds the budget."""
        if rounds > self.round_limit:
            raise RoundLimitExceeded(
                f"phase {self.phase_name!r} exceeded its round budget of "
                f"{self.round_limit}"
            )

    def charge_uniform_broadcast(self, rounds: int, payload_words: int = 1) -> None:
        """Account ``rounds`` rounds in which *every* node broadcasts one payload.

        This is the exact cost the scalar engines measure for a phase in
        which all nodes stay live until a common final round and broadcast a
        ``payload_words``-word payload each round: ``degree`` messages per
        node per round.
        """
        self.check_round_budget(rounds)
        nnz = len(self.fast.indices)
        metrics = self.metrics
        metrics.rounds = rounds
        metrics.messages = rounds * nnz
        metrics.total_words = rounds * nnz * payload_words
        metrics.max_message_words = payload_words if nnz else 0

    def charge_silent_round(self) -> None:
        """Account the single silent round of a degenerate (no-op) phase."""
        self.check_round_budget(1)
        self.metrics.rounds = 1

    def charge(
        self, rounds: int, messages: int, total_words: int, max_message_words: int
    ) -> None:
        """Account explicitly computed metrics (non-uniform phases)."""
        self.check_round_budget(rounds)
        metrics = self.metrics
        metrics.rounds = rounds
        metrics.messages = messages
        metrics.total_words = total_words
        metrics.max_message_words = max_message_words


def check_color_range(colors: np.ndarray, palette: int, template: str) -> None:
    """Apply the scalar ``initialize`` palette validation to a color column.

    ``template`` is the exact exception text of the scalar counterpart with
    ``{color}`` / ``{palette}`` placeholders; the first out-of-range node in
    dense order raises, matching the reference scheduler's iteration order.
    """
    bad = (colors < 1) | (colors > palette)
    if bad.any():
        offender = int(colors[np.flatnonzero(bad)[0]])
        raise InvalidParameterError(
            template.format(color=offender, palette=palette)
        )


class VectorizedScheduler:
    """Runs declared color kernels as array programs; falls back otherwise.

    The constructor and the :meth:`run` / :meth:`run_table` signatures are
    those of :class:`~repro.local_model.scheduler.Scheduler`:

    network:
        The communication graph -- a :class:`Network` or a (possibly
        CSR-masked) :class:`FastNetwork`.
    globals_extra:
        Additional globally known values exposed to every node's
        :class:`~repro.local_model.algorithm.LocalView`.
    round_limit_factor:
        Multiplier applied to each phase's ``max_rounds`` safety bound.

    A phase executes vectorized exactly when it sets
    ``supports_vectorized = True`` and provides ``vector_run``; every other
    phase (in practice only user-defined phases) runs through the reference
    scheduler's per-phase loop on :meth:`FastNetwork.to_network`, and
    therefore behaves identically to the ``"reference"`` engine.

    Dispatch is resolved **once per pipeline** by :meth:`_compile` (the plan
    is cached on the pipeline object), not per phase execution.  Every phase
    that takes the fallback path is recorded: cumulatively on the scheduler
    (:attr:`fallback_phases` / :attr:`fallback_phase_names`) and per run on
    ``RunMetrics.fallback_phase_names`` -- a fully vectorized run reports an
    empty list, which is what the zero-fallback tests and the end-to-end
    benchmark assert.

    The kernel backend is captured once, at construction
    (:func:`repro.local_model.kernels.get_backend`).  A phase with a
    registered fused kernel that runs on numpy because no backend resolved
    is recorded per run in ``RunMetrics.compiled_fallback_phase_names``;
    a phase with no registered kernel is not, numpy being its native path.

    :meth:`run_table` is the engine's native entry point: the
    :class:`~repro.local_model.state_table.StateTable` columns feed the
    kernels directly, per-node state dictionaries (and the per-node
    :class:`~repro.local_model.algorithm.LocalView` objects) are materialized
    only if some phase actually falls back.
    """

    def __init__(
        self,
        network: NetworkLike,
        globals_extra: Optional[Mapping[str, Any]] = None,
        round_limit_factor: int = 1,
    ) -> None:
        self._fast: FastNetwork = fast_view(network)
        self._globals: Dict[str, Any] = {
            "n": self._fast.num_nodes,
            "max_degree": self._fast.max_degree,
        }
        if globals_extra:
            self._globals.update(globals_extra)
        if round_limit_factor < 1:
            raise SimulationError("round_limit_factor must be at least 1")
        self._round_limit_factor = round_limit_factor
        #: Number of phase executions that fell back to the reference loop
        #: (cumulative over every run of this scheduler instance).
        self.fallback_phases: int = 0
        #: Names of those phases, in execution order.
        self.fallback_phase_names: List[str] = []
        self._reference: Optional[Scheduler] = None
        self._backend = kernels.get_backend()

    @property
    def network(self) -> Network:
        """The :class:`Network` this scheduler runs on.

        For a scheduler constructed from a CSR-masked
        :class:`~repro.local_model.fast_network.FastNetwork` the network is
        materialized (and cached) on first access; vectorized execution
        itself never needs it.
        """
        return self._fast.to_network()

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
        globals_override: Optional[Mapping[str, Any]] = None,
    ) -> PhaseResult:
        """Run a phase or a pipeline to completion and return its result.

        Same contract as :meth:`Scheduler.run`; ``initial_states`` entries are
        copied into the per-node state dictionaries before the first phase.
        """
        fast = self._fast
        n = fast.num_nodes
        order = fast.order
        index_of = fast.index_of

        states: List[Dict[str, Any]] = [{} for _ in range(n)]
        if initial_states:
            for node_id, seed in initial_states.items():
                index = index_of.get(node_id)
                if index is not None:
                    states[index].update(dict(seed))

        metrics = self._execute(algorithm, states, globals_override)
        return PhaseResult(
            states={order[i]: states[i] for i in range(n)},
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    # Views and the reference fallback
    # ------------------------------------------------------------------ #

    def _views_provider(
        self, globals_override: Optional[Mapping[str, Any]]
    ) -> Callable[[], List[LocalView]]:
        """The per-node :class:`LocalView` list, built on first call only.

        A fully vectorized run never calls it, so it never pays for the
        per-node objects.
        """
        global_values = dict(self._globals)
        if globals_override:
            global_values.update(globals_override)
        return functools.cache(lambda: self._build_views(global_values))

    def _build_views(self, global_values: Mapping[str, Any]) -> List[LocalView]:
        fast = self._fast
        order = fast.order
        unique_ids = fast.unique_ids
        neighbor_ids = fast.neighbor_ids
        return [
            LocalView(
                node_id=order[i],
                unique_id=unique_ids[i],
                neighbors=neighbor_ids[i],
                globals=global_values,
            )
            for i in range(fast.num_nodes)
        ]

    def _run_fallback_phase(
        self,
        phase: SynchronousPhase,
        states: List[Dict[str, Any]],
        views: List[LocalView],
    ) -> PhaseMetrics:
        """Run a phase without ``vector_run`` on the reference scheduler.

        The dense ``states`` dictionaries are handed to the reference
        per-phase loop as the node states (mutated in place), so the phase
        sees exactly the semantics -- message validation, round budget,
        error text -- of the ``"reference"`` engine.
        """
        if self._reference is None:
            self._reference = Scheduler(
                self._fast.to_network(), round_limit_factor=self._round_limit_factor
            )
        nodes = self._reference.network.create_nodes()
        for view, state in zip(views, states):
            nodes[view.node_id].state = state
        return self._reference._run_single_phase(
            phase, nodes, {view.node_id: view for view in views}
        )

    # ------------------------------------------------------------------ #
    # Pipeline compilation (one-time dispatch resolution)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_vector_run(phase: SynchronousPhase):
        if getattr(phase, "supports_vectorized", False):
            return getattr(phase, "vector_run", None)
        return None

    @classmethod
    def _compile(
        cls, algorithm: Union[SynchronousPhase, PhasePipeline]
    ) -> Tuple[Tuple[SynchronousPhase, Any], ...]:
        """The ``(phase, vector_run-or-None)`` execution plan of ``algorithm``.

        For a :class:`PhasePipeline` the plan is computed once and cached on
        the pipeline object (dispatch does not depend on the scheduler
        instance), so repeated runs of the same pipeline skip re-resolution.
        """
        if isinstance(algorithm, PhasePipeline):
            phases = algorithm.phases
            cached = getattr(algorithm, "_vector_plan", None)
            if cached is not None and cached[0] == phases:
                return cached[1]
            plan = tuple((phase, cls._resolve_vector_run(phase)) for phase in phases)
            algorithm._vector_plan = (phases, plan)
            return plan
        return ((algorithm, cls._resolve_vector_run(algorithm)),)

    def _note_fallback(self, phase: SynchronousPhase, metrics: RunMetrics) -> None:
        self.fallback_phases += 1
        self.fallback_phase_names.append(phase.name)
        metrics.fallback_phase_names.append(phase.name)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_vector_phase(
        self,
        phase: SynchronousPhase,
        vector_run,
        run_metrics: RunMetrics,
        states: Optional[List[Dict[str, Any]]] = None,
        table: Optional[StateTable] = None,
        views_provider: Optional[Callable[[], List[LocalView]]] = None,
    ) -> PhaseMetrics:
        fast = self._fast
        phase_metrics = PhaseMetrics(name=phase.name)
        if fast.num_nodes == 0:
            return phase_metrics
        round_limit = self._round_limit_factor * phase.max_rounds(
            fast.num_nodes, fast.max_degree
        )
        context = VectorContext(
            fast,
            states,
            phase_metrics,
            round_limit,
            phase.name,
            table=table,
            views_provider=views_provider,
        )
        self._dispatch_vector_run(phase, vector_run, context, run_metrics)
        return phase_metrics

    def _dispatch_vector_run(
        self, phase: SynchronousPhase, vector_run, context: VectorContext, metrics: RunMetrics
    ) -> None:
        """Execute one vectorized phase: its fused kernel when one is
        registered and a backend resolved, its numpy ``vector_run`` otherwise."""
        runner = kernels.runner_for(phase)
        if runner is None:
            vector_run(context)
            return
        if self._backend is None:
            metrics.compiled_fallback_phase_names.append(phase.name)
            vector_run(context)
            return
        runner(phase, context, self._backend)

    def _execute(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        states: List[Dict[str, Any]],
        globals_override: Optional[Mapping[str, Any]],
    ) -> RunMetrics:
        """Dict-backed execution (the :meth:`run` path), plan-driven."""
        plan = self._compile(algorithm)
        views_provider = self._views_provider(globals_override)
        metrics = RunMetrics()
        for phase, vector_run in plan:
            started = time.perf_counter()
            if vector_run is None:
                phase_metrics = self._run_fallback_phase(
                    phase, states, views_provider()
                )
                self._note_fallback(phase, metrics)
            else:
                phase_metrics = self._run_vector_phase(
                    phase, vector_run, metrics, states=states, views_provider=views_provider
                )
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)
        return metrics

    def run_table(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        table: StateTable,
        globals_override: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[StateTable, RunMetrics]:
        """Run with the :class:`StateTable` as the *native* node state.

        Vectorized phases operate directly on the table's columns; a phase
        that falls back materializes the dict view once, runs on the
        reference loop, and the columns are re-absorbed before the next
        vectorized phase.  On a fully vectorized pipeline no per-node
        dictionary (and no per-node ``LocalView``) is ever created.
        """
        fast = self._fast
        if table.num_rows != fast.num_nodes:
            raise SimulationError(
                f"state table has {table.num_rows} rows, network has "
                f"{fast.num_nodes} nodes"
            )
        plan = self._compile(algorithm)
        views_provider = self._views_provider(globals_override)
        metrics = RunMetrics()
        states: Optional[List[Dict[str, Any]]] = None
        for phase, vector_run in plan:
            started = time.perf_counter()
            if vector_run is None:
                if states is None:
                    states = table.to_dicts()
                phase_metrics = self._run_fallback_phase(
                    phase, states, views_provider()
                )
                self._note_fallback(phase, metrics)
            else:
                if states is not None:
                    table = StateTable.from_dicts(states)
                    states = None
                phase_metrics = self._run_vector_phase(
                    phase, vector_run, metrics, table=table, views_provider=views_provider
                )
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)
        if states is not None:
            table = StateTable.from_dicts(states)
        return table, metrics


# --------------------------------------------------------------------------- #
# Shared polynomial helpers (used by the Linial / defective-step kernels)
# --------------------------------------------------------------------------- #


def digits_base_q(values: np.ndarray, q: int, num_digits: int) -> np.ndarray:
    """The ``num_digits`` least-significant base-``q`` digits of each value.

    Column ``j`` of the result holds digit ``j`` (the coefficient of ``x^j``),
    matching :func:`repro.primitives.numbers.base_q_digits`.
    """
    digits = np.empty((len(values), num_digits), dtype=np.int64)
    remaining = values.copy()
    for j in range(num_digits):
        digits[:, j] = remaining % q
        remaining //= q
    return digits


def poly_eval_columns(digits: np.ndarray, point: int, q: int) -> np.ndarray:
    """Evaluate every row's polynomial at the scalar ``point`` over ``GF(q)``.

    Horner's rule from the most significant coefficient, exactly like
    :func:`repro.primitives.numbers.poly_eval`.
    """
    values = digits[:, -1].copy()
    for j in range(digits.shape[1] - 2, -1, -1):
        values *= point
        values += digits[:, j]
        values %= q
    return values


def poly_eval_at_points(digits: np.ndarray, points: np.ndarray, q: int) -> np.ndarray:
    """Evaluate every row's polynomial at its own point over ``GF(q)``."""
    values = digits[:, -1].copy()
    for j in range(digits.shape[1] - 2, -1, -1):
        values *= points
        values += digits[:, j]
        values %= q
    return values


def first_free_slot(
    num_rows: int, limit: int, local_rows: np.ndarray, taken_slots: np.ndarray
) -> np.ndarray:
    """Per row, the smallest slot in ``0..limit-1`` not marked taken (-1 if none).

    ``taken_slots[e]`` marks slot ``taken_slots[e]`` of row ``local_rows[e]``
    as occupied; entries outside ``0..limit-1`` must be filtered by the
    caller.  This is the vectorized form of the scalar engines' "first free
    color among the neighbors" scan.
    """
    taken = np.zeros(num_rows * limit, dtype=bool)
    taken[local_rows * limit + taken_slots] = True
    free = ~taken.reshape(num_rows, limit)
    slots = np.argmax(free, axis=1)
    slots[~free.any(axis=1)] = -1
    return slots
