"""The packed-key CSR, line-graph and edge-oracle builders.

``FastNetwork.from_edge_array``, ``build_line_graph_fast`` and the array edge
oracles order their entries by sorting one ``int64`` key ``row * n + col``
(or ``endpoint * span + color``).  Locked down here:

1. **Equivalence.**  Hypothesis edge lists -- duplicates in both
   orientations, isolated nodes, ``n`` in ``{0, 1}`` -- build exactly the
   view a :class:`Network` compiles to; the line graph materializes exactly
   the legacy constructor's network; the edge oracle reports exactly the
   mapping scan's first violation.
2. **Overflow guards.**  Counts whose packed keys could overflow ``int64``
   are rejected with :class:`InvalidParameterError` before any allocation.
3. **No reference cycles.**  An array-built view is freed by reference
   counting alone, so a façade run leaves nothing for the cyclic collector.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import ColoringError, InvalidParameterError
from repro.graphs.line_graph import build_line_graph_network
from repro.local_model import fast_network
from repro.local_model.fast_network import (
    MAX_PACKED_NODES,
    FastNetwork,
    as_network,
    fast_view,
)
from repro.local_model import network as network_module
from repro.local_model.line_csr import _node_sort_ranks, build_line_graph_fast
from repro.local_model.network import Network, node_sort_key
from repro.verification import (
    assert_legal_edge_coloring,
    edge_coloring_defect,
    is_legal_edge_coloring,
)

PROPERTY = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@st.composite
def edge_lists(draw, max_nodes=12, max_edges=40):
    """``(n, u, v)``: a simple graph listed with duplicates in both orientations."""
    n = draw(st.integers(0, max_nodes))
    if n < 2:
        return n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=max_edges,
        )
    )
    # Repeat a drawn subset, half of it reversed, so every duplicate shape
    # (same orientation, opposite orientation) reaches the builder.
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    listed = pairs + [(b, a) if k % 2 else (a, b) for k, (a, b) in enumerate(repeats)]
    u = np.array([a for a, _ in listed], dtype=np.int64)
    v = np.array([b for _, b in listed], dtype=np.int64)
    return n, u, v


def legacy_network(n, u, v) -> Network:
    """The :class:`Network` on nodes ``0..n-1`` (ids ``1..n``) with these edges."""
    adjacency = {node: [] for node in range(n)}
    for a, b in zip(u.tolist(), v.tolist()):
        adjacency[a].append(b)
    return Network(adjacency, unique_ids={node: node + 1 for node in range(n)})


class TestFromEdgeArray:
    @PROPERTY
    @given(edge_lists())
    def test_equals_the_network_compiled_view(self, graph):
        n, u, v = graph
        built = FastNetwork.from_edge_array(u, v, num_nodes=n)
        legacy = legacy_network(n, u, v)
        compiled = fast_view(legacy)
        assert list(built.indptr) == list(compiled.indptr)
        assert list(built.indices) == list(compiled.indices)
        assert list(built.unique_ids) == list(compiled.unique_ids)
        assert built.max_degree == compiled.max_degree
        materialized = built.to_network()
        assert materialized.nodes() == legacy.nodes()
        assert materialized.unique_ids() == legacy.unique_ids()
        for node in legacy.nodes():
            assert materialized.neighbors(node) == legacy.neighbors(node)

    @PROPERTY
    @given(edge_lists())
    def test_seeded_caches_equal_the_derived_columns(self, graph):
        n, u, v = graph
        built = FastNetwork.from_edge_array(u, v, num_nodes=n)
        rows = np.repeat(np.arange(n, dtype=np.int64), built.degrees_np)
        assert np.array_equal(built.rows_np, rows)
        assert np.array_equal(built.edge_keys_np, rows * n + built.indices_np)
        assert built.edge_keys_np.dtype == np.int64

    def test_rejects_num_nodes_whose_keys_overflow(self):
        with pytest.raises(InvalidParameterError, match="num_nodes"):
            FastNetwork.from_edge_array([0], [1], num_nodes=MAX_PACKED_NODES + 1)


class TestLineGraphBuilder:
    @PROPERTY
    @given(edge_lists())
    def test_materializes_the_legacy_line_graph(self, graph):
        n, u, v = graph
        network = FastNetwork.from_edge_array(u, v, num_nodes=n)
        legacy, edge_ids = build_line_graph_network(as_network(network))
        line = build_line_graph_fast(network)
        materialized = line.to_network()
        assert materialized.nodes() == legacy.nodes()
        assert materialized.unique_ids() == legacy.unique_ids()
        for node in legacy.nodes():
            assert materialized.neighbors(node) == legacy.neighbors(node)
        assert {edge: line.unique_id(edge) for edge in line.order} == edge_ids

    def test_rejects_a_node_count_whose_keys_overflow(self):
        network = FastNetwork.from_edge_array([0, 1], [1, 2], num_nodes=3)
        network.num_nodes = MAX_PACKED_NODES  # the rank keys scale by n + 1
        with pytest.raises(InvalidParameterError, match="num_nodes"):
            build_line_graph_fast(network)

    def test_rejects_an_edge_count_whose_keys_overflow(self, monkeypatch):
        # K4: n + 1 = 5 passes a bound of 5, its 6 edges do not.
        u, v = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
        network = FastNetwork.from_edge_array(u, v, num_nodes=4)
        monkeypatch.setattr(fast_network, "MAX_PACKED_NODES", 5)
        with pytest.raises(InvalidParameterError, match="edge count"):
            build_line_graph_fast(network)


def _key_sort_ranks(identifiers):
    by_key = sorted(range(len(identifiers)), key=lambda i: node_sort_key(identifiers[i]))
    ranks = np.empty(len(identifiers), dtype=np.int64)
    ranks[by_key] = np.arange(len(identifiers))
    return ranks


class TestNodeSortRanks:
    """``_node_sort_ranks``: an argsort for plain ints, the key sort otherwise."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        calls = []

        def counting_key(node):
            calls.append(node)
            return node_sort_key(node)

        monkeypatch.setattr(network_module, "node_sort_key", counting_key)
        return calls

    @pytest.mark.parametrize(
        "identifiers",
        [
            (),
            (7,),
            (5, -3, 0, -40, 12),
            (100, 3, 2**40, -(2**40), 77, 9),
            tuple(np.random.default_rng(4).permutation(300).tolist()),
        ],
        ids=["empty", "single", "negative", "non-contiguous", "shuffled"],
    )
    def test_int_ids_take_the_argsort(self, identifiers, key_calls):
        ranks = _node_sort_ranks(identifiers)
        assert np.array_equal(ranks, _key_sort_ranks(identifiers))
        assert key_calls == []

    @pytest.mark.parametrize(
        "identifiers",
        [
            (3, "a", 1, "b"),
            ((0, 1), (0, 2), (1, 2)),
            ("x", "ab", "b"),
            (True, 2, 0),
            (1.5, 1, 2),
            (2**70, 1, -5),
        ],
        ids=["mixed", "tuples", "strings", "bool", "float", "beyond-int64"],
    )
    def test_other_ids_keep_the_key_sort(self, identifiers, key_calls):
        ranks = _node_sort_ranks(identifiers)
        assert np.array_equal(ranks, _key_sort_ranks(identifiers))
        assert key_calls  # the key sort ran


def _violation_message(network, colors) -> str:
    with pytest.raises(ColoringError) as caught:
        assert_legal_edge_coloring(network, colors)
    return str(caught.value)


class TestEdgeOracle:
    @PROPERTY
    @given(edge_lists(), st.data())
    def test_arrays_match_the_mapping_scan(self, graph, data):
        n, u, v = graph
        fast = FastNetwork.from_edge_array(u, v, num_nodes=n)
        legacy = as_network(fast)
        edges = legacy.edges()
        # A legal coloring (distinct colors) with conflicts injected by
        # copying colors between random edges, sometimes at huge magnitudes
        # so the (endpoint, color) keys must fall back to color ranks.
        scale = data.draw(st.sampled_from([1, 2**56]))
        column = np.arange(1, len(edges) + 1, dtype=np.int64) * scale
        if edges:
            for _ in range(data.draw(st.integers(0, 4))):
                src = data.draw(st.integers(0, len(edges) - 1))
                dst = data.draw(st.integers(0, len(edges) - 1))
                column[dst] = column[src]
        mapping = {edge: int(color) for edge, color in zip(edges, column.tolist())}

        legal = is_legal_edge_coloring(legacy, mapping)
        assert is_legal_edge_coloring(fast, column) == legal
        assert edge_coloring_defect(fast, column) == edge_coloring_defect(
            legacy, mapping
        )
        if legal:
            assert_legal_edge_coloring(fast, column)
        else:
            assert _violation_message(fast, column) == _violation_message(
                legacy, mapping
            )

    def test_negative_and_extreme_colors(self):
        fast = FastNetwork.from_edge_array([0, 1, 2], [1, 2, 3], num_nodes=4)
        extreme = np.array([-(2**63), 2**63 - 1, -(2**63)], dtype=np.int64)
        assert is_legal_edge_coloring(fast, extreme)
        assert edge_coloring_defect(fast, extreme) == 0
        clash = np.array([-5, -5, 7], dtype=np.int64)
        assert not is_legal_edge_coloring(fast, clash)
        assert edge_coloring_defect(fast, clash) == 1
        assert "share color -5" in _violation_message(fast, clash)


class TestNoReferenceCycles:
    """Array-built views are freed by reference counting alone."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    @staticmethod
    def _leaked_views():
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, FastNetwork)]

    def test_from_edge_array_view_is_acyclic(self, collector_off):
        FastNetwork.from_edge_array([0, 1], [1, 2], num_nodes=3)
        assert self._leaked_views() == []

    def test_facade_runs_leave_no_view_for_the_collector(self, collector_off):
        u = np.array([0, 1, 2, 3, 4, 5, 0, 2], dtype=np.int64)
        v = np.array([1, 2, 3, 4, 5, 0, 3, 5], dtype=np.int64)
        repro.color_graph(FastNetwork.from_edge_array(u, v, num_nodes=6), c=2)
        repro.color_edges(FastNetwork.from_edge_array(u, v, num_nodes=6))
        assert self._leaked_views() == []
