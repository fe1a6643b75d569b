"""Vectorized engine == reference scheduler, bit for bit, kernels on or off.

The array engine (:class:`repro.local_model.VectorizedScheduler`) is only
trustworthy because these tests pin it to the reference scheduler: for
every core algorithm, over a grid of graphs and seeds, all engines must
produce *identical* final colorings and *identical* metrics (rounds,
messages, total words, maximum message size -- per phase, not just in
aggregate).  Any divergence, however small, is a bug in one of the engines.

The array engine is exercised in three cells: ``"vectorized"`` with
whatever kernel backend the machine resolves (numba or the C extension),
the test-only ``"numpy"`` engine with the fused kernels off so every
kernel-eligible phase runs its numpy ``vector_run``, and the test-only
``"alternating"`` engine that hands every other phase to the reference
fallback loop.  The ``no_kernel_backend`` fixture additionally runs the
shipped engine with dispatch force-disabled process-wide -- the results
must be identical either way.
"""

from __future__ import annotations

import pytest

from alternating_engine import ALTERNATING, NUMPY, AlternatingScheduler, NumpyScheduler
from repro import graphs
from repro.baselines import luby_edge_coloring, panconesi_rizzi_edge_coloring
from repro.core import (
    color_edges,
    color_vertices,
    randomized_color_vertices,
    run_defective_color,
    tradeoff_color_vertices,
)
from repro.core.defective_coloring import defective_color_pipeline
from repro.graphs.line_graph import line_graph_network
from repro.local_model import (
    Network,
    Scheduler,
    VectorizedScheduler,
    kernels,
    make_scheduler,
    use_engine,
)
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.kuhn_defective import defective_coloring_pipeline

#: The engines whose outputs must be indistinguishable from the reference.
#: ``"numpy"`` and ``"alternating"`` are the test-only vectorized engines
#: with the kernels off and with every other phase forced onto the reference
#: fallback (see ``alternating_engine.py``).
FAST_ENGINES = ("vectorized", NUMPY, ALTERNATING)

ENGINE_CLASSES = {
    "reference": Scheduler,
    "vectorized": VectorizedScheduler,
}


@pytest.fixture(name="no_kernel_backend")
def _no_kernel_backend(monkeypatch):
    """Resolve no kernel backend for one test: the engine runs numpy only."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
    kernels.reset()
    yield
    kernels.reset()


def metrics_fingerprint(metrics):
    """Aggregate plus full per-phase breakdown -- the strongest comparison."""
    return (
        metrics.summary(),
        [
            (p.name, p.rounds, p.messages, p.total_words, p.max_message_words)
            for p in metrics.phases
        ],
    )


GRAPHS = {
    "triangle": lambda: graphs.cycle_graph(3),
    "path10": lambda: graphs.path_graph(10),
    "cycle9": lambda: graphs.cycle_graph(9),
    "star6": lambda: graphs.star_graph(6),
    "grid5x4": lambda: graphs.grid_graph(5, 4),
    "clique_pendants8": lambda: graphs.clique_with_pendants(8),
    "regular24x4": lambda: graphs.random_regular(24, 4, seed=7),
    "regular30x6": lambda: graphs.random_regular(30, 6, seed=11),
    "regular26x8-s3": lambda: graphs.random_regular(26, 8, seed=3),
}


@pytest.fixture(params=sorted(GRAPHS), name="grid_network")
def _grid_network(request):
    return GRAPHS[request.param]()


class TestSchedulerLevelEquivalence:
    """Raw pipelines compared straight at the scheduler API.

    These comparisons include the *full* final state dictionaries --
    internal scratch keys and all -- which is the strictest possible check
    of the vectorized kernels.
    """

    def _compare(self, network: Network, pipeline, initial_states=None):
        reference = Scheduler(network).run(pipeline, initial_states=initial_states)
        for engine_cls in (VectorizedScheduler, NumpyScheduler):
            candidate = engine_cls(network).run(
                pipeline, initial_states=initial_states
            )
            assert candidate.states == reference.states
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )

    def test_delta_plus_one_pipeline(self, grid_network):
        pipeline, _ = delta_plus_one_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            output_key="c",
        )
        self._compare(grid_network, pipeline)

    def test_delta_plus_one_iterative_reduction(self, grid_network):
        pipeline, _ = delta_plus_one_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            output_key="c",
            use_kuhn_wattenhofer=False,
        )
        self._compare(grid_network, pipeline)

    def test_defective_pipeline(self, grid_network):
        pipeline, _ = defective_coloring_pipeline(
            n=grid_network.num_nodes,
            degree_bound=max(1, grid_network.max_degree),
            target_defect=2,
            output_key="d",
        )
        self._compare(grid_network, pipeline)

    def test_defective_color_pipeline_with_psi_selection(self, grid_network):
        pipeline, _ = defective_color_pipeline(
            n=grid_network.num_nodes,
            b=1,
            p=2,
            Lambda=max(2, grid_network.max_degree),
            c=max(1, grid_network.max_degree),
        )
        self._compare(grid_network, pipeline)

    def test_defective_color_pipeline_edge_mode(self, grid_network):
        # The Corollary 5.4 route, full final states included: the line-graph
        # incidence kernel must reproduce the per-node callbacks bit for bit,
        # with and without a class restriction.
        line = line_graph_network(grid_network)
        if line.num_nodes == 0:
            return
        pipeline, _ = defective_color_pipeline(
            n=line.num_nodes,
            b=1,
            p=2,
            Lambda=max(2, grid_network.max_degree),
            c=2,
            mode="edge",
            class_key="cls",
        )
        classes = {
            edge: {"cls": line.unique_id(edge) % 3} for edge in line.nodes()
        }
        self._compare(line, pipeline, initial_states=classes)

    def test_empty_network(self):
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        self._compare(Network({}), pipeline)

    def test_single_node_network(self):
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        self._compare(Network({"only": []}), pipeline)


class TestLegalColoringEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("quality", ["superlinear", "linear"])
    def test_identical_colorings_and_metrics(self, grid_network, quality, engine):
        c = max(1, grid_network.max_degree)
        reference = color_vertices(
            grid_network, c=c, quality=quality, engine="reference"
        )
        candidate = color_vertices(grid_network, c=c, quality=quality, engine=engine)
        assert candidate.colors == reference.colors
        assert candidate.palette == reference.palette
        assert [level.rounds for level in candidate.levels] == [
            level.rounds for level in reference.levels
        ]
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestEdgeColoringEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("quality", ["superlinear", "linear"])
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    def test_identical_edge_colorings(self, quality, route, engine):
        for seed in (1, 5):
            network = graphs.random_regular(20, 4, seed=seed)
            reference = color_edges(
                network, quality=quality, route=route, engine="reference"
            )
            candidate = color_edges(network, quality=quality, route=route, engine=engine)
            assert candidate.edge_colors == reference.edge_colors
            assert candidate.palette == reference.palette
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    def test_identical_edge_colorings_with_recursion_levels(self, route, engine):
        # Delta(L) = 30 exceeds the superlinear threshold, so the direct
        # route actually runs Corollary 5.4 levels (the CSR edge kernel).
        network = graphs.random_regular(40, 16, seed=3)
        reference = color_edges(
            network, quality="superlinear", route=route, engine="reference"
        )
        candidate = color_edges(
            network, quality="superlinear", route=route, engine=engine
        )
        assert candidate.edge_colors == reference.edge_colors
        assert candidate.palette == reference.palette
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestDefectiveColoringEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("p", [2, 3])
    def test_identical_psi_colorings(self, p, engine):
        for seed in (2, 9):
            line = line_graph_network(graphs.random_regular(18, 4, seed=seed))
            ref_colors, ref_info, ref_metrics = run_defective_color(
                line, b=1, p=p, c=2, engine="reference"
            )
            colors, info, metrics = run_defective_color(
                line, b=1, p=p, c=2, engine=engine
            )
            assert colors == ref_colors
            assert info == ref_info
            assert metrics_fingerprint(metrics) == metrics_fingerprint(ref_metrics)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_edge_mode(self, engine):
        line = line_graph_network(graphs.random_regular(16, 6, seed=4))
        ref_colors, _, ref_metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine="reference"
        )
        colors, _, metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine=engine
        )
        assert colors == ref_colors
        assert metrics_fingerprint(metrics) == metrics_fingerprint(ref_metrics)


class TestTradeoffEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize(
        "g_label,g", [("sqrt", lambda d: d**0.5), ("linear", float)]
    )
    def test_identical_tradeoff_colorings(self, g_label, g, engine):
        line = line_graph_network(graphs.random_regular(20, 6, seed=13))
        reference = tradeoff_color_vertices(line, c=2, g=g, engine="reference")
        candidate = tradeoff_color_vertices(line, c=2, g=g, engine=engine)
        assert candidate.colors == reference.colors
        assert candidate.palette == reference.palette
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_identical_randomized_colorings(self, engine):
        # Per-node randomness is keyed by (seed, unique id), so it must be
        # engine-independent.
        network = graphs.random_regular(32, 8, seed=21)
        for seed in (0, 7):
            reference = randomized_color_vertices(
                network, c=8, seed=seed, engine="reference"
            )
            candidate = randomized_color_vertices(
                network, c=8, seed=seed, engine=engine
            )
            assert candidate.colors == reference.colors
            assert candidate.class_assignment == reference.class_assignment
            assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
                reference.metrics
            )


class TestBaselineEquivalence:
    """Baselines exercise the generic (non-broadcast) fallback path too."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_panconesi_rizzi(self, engine):
        network = graphs.random_regular(18, 4, seed=5)
        reference = panconesi_rizzi_edge_coloring(network, engine="reference")
        candidate = panconesi_rizzi_edge_coloring(network, engine=engine)
        assert candidate.edge_colors == reference.edge_colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_luby_randomized(self, engine):
        network = graphs.random_regular(18, 4, seed=6)
        reference = luby_edge_coloring(network, seed=3, engine="reference")
        candidate = luby_edge_coloring(network, seed=3, engine=engine)
        assert candidate.edge_colors == reference.edge_colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestVectorizedFallbackAccounting:
    """The Legal-Color pipeline runs fully vectorized -- zero fallbacks.

    The whole point of the columnar state store is that no phase of the
    Legal-Color pipeline family hands execution back to per-node Python; the
    ``fallback_phases`` counter on :class:`VectorizedScheduler` (and the
    per-run ``RunMetrics.fallback_phase_names`` log) make that a testable
    invariant instead of a performance anecdote.
    """

    def test_legal_color_pipelines_have_zero_fallbacks(self, grid_network):
        from repro.local_model import StateTable, fast_view

        scheduler = VectorizedScheduler(grid_network)
        n = grid_network.num_nodes
        degree = max(2, grid_network.max_degree)
        # The three pipeline families Procedure Legal-Color is built from:
        # the auxiliary/defective pipelines of each level and the bottom
        # (Delta + 1)-coloring, including the zero-round glue phases.
        pipelines = [
            defective_color_pipeline(n=n, b=1, p=2, Lambda=degree, c=degree)[0],
            defective_coloring_pipeline(
                n=n, degree_bound=degree, target_defect=2, output_key="d"
            )[0],
            delta_plus_one_pipeline(n=n, degree_bound=degree, output_key="c")[0],
        ]
        table = StateTable(n)
        for pipeline in pipelines:
            table, metrics = scheduler.run_table(pipeline, table)
            assert metrics.fallback_phase_names == []
        assert scheduler.fallback_phases == 0
        assert scheduler.fallback_phase_names == []
        assert table.to_mapping(fast_view(grid_network).order)  # states produced

    def test_end_to_end_legal_coloring_reports_zero_fallbacks(self, small_regular):
        result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.metrics.fallback_phase_names == []

    def test_undeclared_phase_is_counted_and_logged(self, triangle):
        from repro.local_model import BroadcastPhase, SILENT

        class OneShot(BroadcastPhase):
            name = "one-shot"

            def broadcast(self, view, state, round_index):
                return SILENT

            def receive(self, view, state, inbox, round_index):
                return True

        scheduler = VectorizedScheduler(triangle)
        result = scheduler.run(OneShot())
        assert scheduler.fallback_phases == 1
        assert scheduler.fallback_phase_names == ["one-shot"]
        assert result.metrics.fallback_phase_names == ["one-shot"]

    def test_alternating_engine_crosses_the_fallback_boundary(self, small_regular):
        # The test-only engine is only a meaningful equivalence witness if
        # its runs really mix kernel phases with reference-loop phases.
        pipeline, _ = delta_plus_one_pipeline(
            n=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            output_key="c",
        )
        reference = Scheduler(small_regular).run(pipeline)
        scheduler = AlternatingScheduler(small_regular)
        result = scheduler.run(pipeline)
        names = [phase.name for phase in pipeline.phases]
        assert len(names) >= 2
        assert result.metrics.fallback_phase_names == names[::2]
        assert scheduler.fallback_phase_names == names[::2]
        assert result.states == reference.states

    def test_edge_mode_runs_vectorized(self):
        # The Corollary 5.4 edge phase has a CSR kernel (over the line-graph
        # incidence encoding): edge-mode Defective-Color must execute with
        # zero fallbacks and still match the reference bit for bit.
        line = line_graph_network(graphs.random_regular(16, 6, seed=4))
        reference = run_defective_color(line, b=2, p=3, c=2, mode="edge", engine="reference")
        colors, _, metrics = run_defective_color(
            line, b=2, p=3, c=2, mode="edge", engine="vectorized"
        )
        assert colors == reference[0]
        assert metrics.fallback_phase_names == []

    def test_edge_mode_legal_coloring_reports_zero_fallbacks(self):
        # End-to-end color_edges on the direct (Theorem 5.5) route, sized so
        # the recursion actually executes Corollary 5.4 levels
        # (Delta(L) = 30 > the superlinear preset's threshold of 18).
        network = graphs.random_regular(40, 16, seed=3)
        result = color_edges(
            network, quality="superlinear", route="direct", engine="vectorized"
        )
        assert len(result.levels) >= 1
        assert result.metrics.fallback_phase_names == []

    def test_simulation_route_reports_zero_fallbacks(self):
        network = graphs.random_regular(40, 16, seed=3)
        result = color_edges(
            network, quality="superlinear", route="simulation", engine="vectorized"
        )
        assert result.metrics.fallback_phase_names == []


class TestEngineSelection:
    def test_make_scheduler_types(self, triangle):
        for engine, engine_cls in ENGINE_CLASSES.items():
            assert isinstance(make_scheduler(triangle, engine=engine), engine_cls)

    def test_default_engine_is_vectorized(self, triangle):
        # The vectorized engine is the process default; the reference
        # scheduler is the opt-in auditing tool.
        from repro.local_model import available_engines, default_engine

        assert available_engines() == ("reference", "vectorized")
        assert default_engine() == "vectorized"
        assert type(make_scheduler(triangle)) is VectorizedScheduler

    def test_use_engine_context_switches_default(self, triangle):
        with use_engine("reference"):
            assert isinstance(make_scheduler(triangle), Scheduler)
        assert type(make_scheduler(triangle)) is VectorizedScheduler

    def test_removed_engine_name_is_a_deprecated_alias(self, small_regular):
        # The kernel engine is folded into "vectorized"; its name warns and
        # runs "vectorized", so scenario cache keys name the engine that
        # actually ran.
        from repro.exceptions import InvalidParameterError
        from repro.experiments import GraphSpec, Scenario

        baseline = color_vertices(small_regular, c=4, engine="vectorized")
        with pytest.warns(DeprecationWarning, match="vectorized"):
            aliased = color_vertices(small_regular, c=4, engine="compiled")
        assert (aliased.color_column == baseline.color_column).all()
        assert aliased.metrics == baseline.metrics
        with pytest.warns(DeprecationWarning):
            scenario = Scenario.make(
                "alias", GraphSpec("cycle", n=8), "legal_coloring", engine="compiled"
            )
        assert scenario.engine == "vectorized"
        pinned = Scenario.make(
            "alias", GraphSpec("cycle", n=8), "legal_coloring", engine="vectorized"
        )
        assert scenario.cache_token() == pinned.cache_token()
        # The alias of the per-node engine removed in 1.9 is gone in 1.10.
        with pytest.raises(InvalidParameterError, match=r"\('reference', 'vectorized'\)"):
            color_vertices(small_regular, c=4, engine="batched")

    def test_unknown_engine_rejected(self, triangle):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            make_scheduler(triangle, engine="warp-drive")

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_default_engine_drives_algorithms(self, small_regular, engine):
        baseline = color_vertices(small_regular, c=4, engine="reference")
        with use_engine(engine):
            switched = color_vertices(small_regular, c=4)
        assert switched.colors == baseline.colors

    @staticmethod
    def _reference_error(network, phase, error_cls) -> str:
        with pytest.raises(error_cls) as reference:
            Scheduler(network).run(phase)
        return str(reference.value)

    @pytest.mark.parametrize(
        "engine_cls", [VectorizedScheduler, NumpyScheduler, AlternatingScheduler]
    )
    def test_non_neighbor_message_rejected(self, triangle, engine_cls):
        from repro.exceptions import SimulationError
        from repro.local_model import SynchronousPhase

        class Misbehaving(SynchronousPhase):
            name = "misbehaving"

            def send(self, view, state, round_index):
                return {"not-a-neighbor": 1}

            def receive(self, view, state, inbox, round_index):
                return True

        expected = self._reference_error(triangle, Misbehaving(), SimulationError)
        with pytest.raises(SimulationError) as raised:
            engine_cls(triangle).run(Misbehaving())
        assert str(raised.value) == expected

    @pytest.mark.parametrize(
        "engine_cls", [VectorizedScheduler, NumpyScheduler, AlternatingScheduler]
    )
    def test_round_limit_enforced(self, triangle, engine_cls):
        from repro.exceptions import RoundLimitExceeded
        from repro.local_model import SynchronousPhase

        class NeverHalting(SynchronousPhase):
            name = "never-halting"

            def send(self, view, state, round_index):
                return {}

            def receive(self, view, state, inbox, round_index):
                return False

            def max_rounds(self, n, max_degree):
                return 5

        expected = self._reference_error(triangle, NeverHalting(), RoundLimitExceeded)
        with pytest.raises(RoundLimitExceeded) as raised:
            engine_cls(triangle).run(NeverHalting())
        assert str(raised.value) == expected

    def test_vectorized_falls_back_for_undeclared_phases(self, small_regular):
        """A custom phase without a kernel runs on the reference path, unchanged."""
        from repro.local_model import BroadcastPhase, SILENT

        class MaxNeighborId(BroadcastPhase):
            name = "max-neighbor-id"

            def initialize(self, view, state):
                state["seen"] = view.unique_id

            def broadcast(self, view, state, round_index):
                if round_index == 1:
                    return view.unique_id
                return SILENT

            def receive(self, view, state, inbox, round_index):
                if inbox:
                    state["seen"] = max(state["seen"], *inbox.values())
                return round_index >= 2

            def max_rounds(self, n, max_degree):
                return 4

        reference = Scheduler(small_regular).run(MaxNeighborId())
        vectorized = VectorizedScheduler(small_regular).run(MaxNeighborId())
        assert vectorized.states == reference.states
        assert metrics_fingerprint(vectorized.metrics) == metrics_fingerprint(
            reference.metrics
        )


class TestKernelDispatch:
    """Fused-kernel specifics: backend resolution and fallback accounting."""

    def test_zero_kernel_fallbacks_with_backend(self, small_regular):
        if kernels.get_backend() is None:
            pytest.skip(f"no kernel backend: {kernels.backend_reason()}")
        assert VectorizedScheduler(small_regular)._backend is kernels.get_backend()
        assert kernels.backend_name() in ("numba", "cext")
        result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.metrics.compiled_fallback_phase_names == []
        assert result.metrics.fallback_phase_names == []

    def test_backend_absent_counts_fallbacks_and_matches(
        self, small_regular, no_kernel_backend
    ):
        assert VectorizedScheduler(small_regular)._backend is None
        baseline = color_vertices(small_regular, c=4, engine="reference")
        result = color_vertices(small_regular, c=4, engine="vectorized")
        assert result.colors == baseline.colors
        assert metrics_fingerprint(result.metrics) == metrics_fingerprint(
            baseline.metrics
        )
        # Every kernel-eligible phase that executed is accounted for, once.
        assert result.metrics.compiled_fallback_phase_names
        assert result.metrics.fallback_phase_names == []

    def test_numpy_engine_counts_fallbacks_per_run(self, small_regular):
        # The per-run list is not cumulative: a second run on the same
        # scheduler reports exactly the same kernel-eligible phases.
        pipeline, _ = delta_plus_one_pipeline(
            n=small_regular.num_nodes, degree_bound=small_regular.max_degree
        )
        scheduler = NumpyScheduler(small_regular)
        first = scheduler.run(pipeline).metrics.compiled_fallback_phase_names
        second = scheduler.run(pipeline).metrics.compiled_fallback_phase_names
        assert first and first == second

    def test_backend_absent_end_to_end_reference_identity(
        self, grid_network, no_kernel_backend
    ):
        c = max(1, grid_network.max_degree)
        reference = color_vertices(grid_network, c=c, engine="reference")
        candidate = color_vertices(grid_network, c=c, engine="vectorized")
        assert candidate.colors == reference.colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )

    def test_backend_absent_luby_matches(self, no_kernel_backend):
        network = graphs.random_regular(18, 4, seed=6)
        reference = luby_edge_coloring(network, seed=3, engine="reference")
        candidate = luby_edge_coloring(network, seed=3, engine="vectorized")
        assert candidate.edge_colors == reference.edge_colors
        assert metrics_fingerprint(candidate.metrics) == metrics_fingerprint(
            reference.metrics
        )

    def test_unknown_backend_request_degrades_to_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "warp-drive")
        kernels.reset()
        try:
            assert kernels.get_backend() is None
            assert "warp-drive" in kernels.backend_reason()
        finally:
            kernels.reset()

    def test_thread_count_queries(self):
        # With a backend the count is a positive integer; without, exactly 1.
        count = kernels.get_num_threads()
        assert count >= 1
        if kernels.get_backend() is not None:
            kernels.set_num_threads(1)
            assert kernels.get_num_threads() == 1
            kernels.set_num_threads(count)


class TestPhaseSecondsAccounting:
    """Satellite: every engine records wall-clock per phase in RunMetrics."""

    @pytest.mark.parametrize("engine", ("reference",) + FAST_ENGINES)
    def test_phase_seconds_cover_all_phases(self, small_regular, engine):
        result = color_vertices(small_regular, c=4, engine=engine)
        seconds = result.metrics.phase_seconds
        assert seconds  # populated for every engine
        assert all(value >= 0.0 for value in seconds.values())
        # Every phase that contributed metrics contributed wall time too.
        assert {p.name for p in result.metrics.phases} <= set(seconds)

    def test_merge_accumulates_phase_seconds(self):
        from repro.local_model import RunMetrics

        first = RunMetrics()
        first.add_phase_seconds("linial", 0.25)
        second = RunMetrics()
        second.add_phase_seconds("linial", 0.5)
        second.add_phase_seconds("kw", 1.0)
        first.merge(second)
        assert first.phase_seconds == {"linial": 0.75, "kw": 1.0}
