"""Focused unit tests for the psi-selection loop of Algorithm 1 (Lemma 3.2)."""

from __future__ import annotations

from repro import graphs
from repro.core.defective_coloring import PsiSelectionPhase
from repro.local_model import Network, Scheduler, VectorizedScheduler


def run_psi(network, phi, p):
    """Run only the recoloring loop, with a given phi-coloring."""
    phase = PsiSelectionPhase(p=p, phi_key="phi", phi_palette=max(phi.values(), default=1))
    states = {node: {"phi": phi[node]} for node in network.nodes()}
    result = Scheduler(network).run(phase, initial_states=states)
    return result.extract(phase.output_key), result.metrics


class TestPsiSelection:
    def test_colors_within_palette(self, small_regular):
        phi = {node: small_regular.unique_id(node) for node in small_regular.nodes()}
        psi, _ = run_psi(small_regular, phi, p=3)
        assert set(psi.values()) <= {1, 2, 3}

    def test_lemma_3_2_round_bound(self):
        # A vertex with phi-color k selects within k rounds of the exchange, so
        # the loop finishes within (max phi) + O(1) rounds.
        path = graphs.path_graph(12)
        phi = {node: node + 1 for node in path.nodes()}
        _, metrics = run_psi(path, phi, p=2)
        assert metrics.rounds <= max(phi.values()) + 3

    def test_constant_phi_selects_in_constant_rounds(self, small_regular):
        # With a constant phi-coloring no vertex waits for anyone (only
        # strictly smaller phi-colors are waited for), so the loop ends in O(1)
        # rounds regardless of the graph.
        phi = {node: 1 for node in small_regular.nodes()}
        psi, metrics = run_psi(small_regular, phi, p=4)
        assert metrics.rounds <= 3
        assert set(psi.values()) <= {1, 2, 3, 4}

    def test_least_loaded_color_is_chosen_on_a_star(self):
        # The center has the largest phi-color, so it waits for all leaves and
        # then picks the psi-color used by the fewest of them.
        star = graphs.star_graph(4)
        phi = {("leaf", i): i + 1 for i in range(4)}
        phi["center"] = 10
        psi, _ = run_psi(star, phi, p=4)
        leaf_colors = [psi[("leaf", i)] for i in range(4)]
        center_load = sum(1 for color in leaf_colors if color == psi["center"])
        best_possible = min(
            sum(1 for color in leaf_colors if color == candidate) for candidate in range(1, 5)
        )
        assert center_load == best_possible

    def test_isolated_vertices_terminate(self):
        network = Network({1: [], 2: [], 3: []})
        psi, metrics = run_psi(network, {1: 1, 2: 2, 3: 3}, p=2)
        assert set(psi.values()) <= {1, 2}
        assert metrics.rounds <= 3

    def test_state_reuse_across_invocations_is_safe(self, small_regular):
        # Running the loop twice with different output keys on the same state
        # dictionaries (as Legal-Color does level by level) must not leak the
        # announcement flag of the first run into the second.
        phi = {node: small_regular.unique_id(node) for node in small_regular.nodes()}
        first_phase = PsiSelectionPhase(
            p=3, phi_key="phi", phi_palette=len(phi), output_key="psi_a"
        )
        second_phase = PsiSelectionPhase(
            p=3, phi_key="phi", phi_palette=len(phi), output_key="psi_b"
        )
        states = {node: {"phi": phi[node]} for node in small_regular.nodes()}
        first = Scheduler(small_regular).run(first_phase, initial_states=states)
        second = Scheduler(small_regular).run(second_phase, initial_states=first.states)
        assert all(value in {1, 2, 3} for value in second.extract("psi_b").values())

    def test_halted_states_hold_no_selection_scratch(self, small_regular):
        # The waiting set and the per-color counts are dead once a vertex
        # halts: the reference run drops them, and the vectorized run (which
        # never materializes them) ends in the identical states.
        phi = {node: small_regular.unique_id(node) % 5 + 1 for node in small_regular.nodes()}
        phase = PsiSelectionPhase(p=3, phi_key="phi", phi_palette=5)
        states = {node: {"phi": phi[node]} for node in small_regular.nodes()}
        reference = Scheduler(small_regular).run(phase, initial_states=states)
        for state in reference.states.values():
            assert "_psi_waiting" not in state
            assert "_psi_counts" not in state
        vectorized = VectorizedScheduler(small_regular).run(phase, initial_states=states)
        assert vectorized.states == reference.states
