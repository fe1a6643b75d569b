"""Legal-Color level views: each level filters the previous level's view.

Procedure Legal-Color keeps, at every recursion level, only the edges whose
endpoints share a recursion path.  Paths only refine from one level to the
next, so ``run_legal_coloring`` derives each level's CSR view from the
previous level's view instead of from the whole input graph.  Locked down
here:

1. **Refinement property.**  For labels ``b`` refining ``a``, filtering by
   ``a`` and then by ``b`` gives the same CSR arrays as filtering by ``b``
   alone -- on array-built views, on views compiled from a
   :class:`Network`, and on line-graph views.
2. **Call chain.**  A run with ``L`` levels filters ``L`` times: level 0
   runs on the input view unfiltered, every later level and the bottom
   filter the view the previous call returned, and a run with no level
   filters nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import color_edges, color_vertices
from repro.local_model.fast_network import FastNetwork, as_network, fast_view
from repro.local_model.line_csr import build_line_graph_fast

PROPERTY = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@st.composite
def graphs_with_refining_labels(draw):
    """``(view, a, b)``: a view of one of three kinds, ``b`` refining ``a``."""
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=30,
        )
    )
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    built = FastNetwork.from_edge_array(u, v, num_nodes=n)
    kind = draw(st.sampled_from(["edge-array", "network", "line-graph"]))
    if kind == "network":
        view = fast_view(as_network(built))
    elif kind == "line-graph":
        view = build_line_graph_fast(built)
    else:
        view = built
    size = view.num_nodes
    coarse = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    split = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    return view, coarse.astype(np.int64), (coarse * 3 + split).astype(np.int64)


class TestRefinementProperty:
    @PROPERTY
    @given(graphs_with_refining_labels())
    def test_filtering_the_previous_view_equals_filtering_the_graph(self, drawn):
        view, coarse, fine = drawn
        chained = view.filtered_by_labels(coarse).filtered_by_labels(fine)
        direct = view.filtered_by_labels(fine)
        assert np.array_equal(chained.indptr_np, direct.indptr_np)
        assert np.array_equal(chained.indices_np, direct.indices_np)
        assert np.array_equal(chained.degrees_np, direct.degrees_np)
        assert chained.max_degree == direct.max_degree
        assert chained.line_meta is direct.line_meta is view.line_meta


UNPATCHED_FILTER = FastNetwork.filtered_by_labels


@pytest.fixture
def filter_calls(monkeypatch):
    """Record every ``filtered_by_labels`` call as ``(view, labels, result)``."""
    calls = []

    def recording(self, labels):
        result = UNPATCHED_FILTER(self, labels)
        calls.append((self, np.asarray(labels).copy(), result))
        return result

    monkeypatch.setattr(FastNetwork, "filtered_by_labels", recording)
    return calls


def assert_chained(calls, levels, input_view):
    """``calls`` form the chain of a run with ``levels`` levels on ``input_view``."""
    assert len(calls) == levels
    for index, (view, labels, result) in enumerate(calls):
        expected = input_view if index == 0 else calls[index - 1][2]
        assert view is expected
        # No call filters by the all-empty paths of level 0 (it would keep
        # every edge): every call comes after some level split the paths.
        assert len(np.unique(labels)) > 1
        # And each chained view is the one filtering the whole input gives.
        direct = UNPATCHED_FILTER(input_view, labels)
        assert np.array_equal(result.indptr_np, direct.indptr_np)
        assert np.array_equal(result.indices_np, direct.indices_np)


class TestLevelCallChain:
    def test_vertex_run_filters_once_per_level(self, filter_calls):
        network = graphs.random_regular(120, 24, seed=1)
        result = color_vertices(network, c=2, engine="vectorized")
        assert result.num_levels == 2
        assert_chained(filter_calls, result.num_levels, fast_view(network))
        # Level 1 ran on the first filtered view; level 0 on the input.
        assert result.levels[0].max_subgraph_degree == network.max_degree
        assert result.levels[1].max_subgraph_degree == filter_calls[0][2].max_degree

    def test_reference_engine_follows_the_same_chain(self, filter_calls):
        network = graphs.random_regular(40, 8, seed=1)
        result = color_vertices(network, c=2, engine="reference")
        assert result.num_levels == 1
        assert_chained(filter_calls, result.num_levels, fast_view(network))

    def test_run_without_levels_filters_nothing(self, filter_calls):
        network = graphs.random_regular(40, 8, seed=1)
        result = color_vertices(network, c=2, quality="superlinear")
        assert result.num_levels == 0
        assert filter_calls == []

    def test_edge_run_filters_the_line_graph_chain(self, filter_calls):
        network = graphs.random_regular(40, 16, seed=2)
        result = color_edges(network, quality="linear", route="direct")
        assert len(result.levels) >= 1
        line_view = filter_calls[0][0]
        assert line_view.line_meta is not None
        assert_chained(filter_calls, len(result.levels), line_view)
