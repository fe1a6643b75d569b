"""The four workloads: inputs, set-up, one op, and the checks of each output.

Every workload draws its inputs from its seed with the ``repro.graphs``
generators and hands the program only the generated arrays.  ``op`` is the
timed call into the public API; ``prepare`` (drawing the op's input) and
``check`` (verifying its output) run untimed around it.  A failed check
raises :class:`CheckFailed`, which the runner counts as a failed op.

Import this module only after ``repro`` is importable (``run.py`` puts the
checkout's ``src`` on ``sys.path`` and times the first ``import repro``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

import repro
import repro.verification
from repro import graphs
from repro.experiments import ExperimentRunner, GraphSpec, Scenario, run_scenario
from repro.local_model.engine import default_engine


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's correctness checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def edge_arrays(fast):
    """The canonical ``u < v`` endpoint arrays of a generated graph."""
    rows, cols = fast.rows_np, fast.indices_np
    forward = rows < cols
    return rows[forward].copy(), cols[forward].copy()


class Workload:
    """One workload; subclasses fill in the hooks the runner calls."""

    name = ""
    #: Timed ops a run makes even when ``--seconds`` runs out first.
    min_ops = 5
    #: Child processes whose peak RSS counts toward ``peak_rss_mb``.
    worker_processes = 0

    def __init__(self, seed: int, tiny: bool = False, workdir: Optional[Path] = None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Build the inputs (the ``graphs`` layer; never timed)."""

    def setup(self) -> None:
        """Set-up beyond the warm-up op, timed as part of ``setup_s``."""

    def prepare(self) -> None:
        """Draw the next op's input (untimed)."""

    def op(self):
        raise NotImplementedError

    def check(self, output) -> None:
        """Verify one op's output (untimed); raise :class:`CheckFailed`."""

    def finish(self) -> None:
        """Run-end checks (untimed)."""

    def edges(self, output) -> int:
        raise NotImplementedError

    def scenarios(self, output) -> int:
        return 1

    def observe(self, output, traced: bool) -> None:
        """Record a checked output of a timed op."""

    def counts(self) -> Dict[str, int]:
        """Counts that must repeat exactly for a given seed."""
        raise NotImplementedError

    def decision(self) -> Dict[str, object]:
        """What the program chose to run (for the run header)."""
        raise NotImplementedError

    def layer_metrics(self, traced_ops: int, traced_wall_ns: int) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}


class _Facade(Workload):
    """Shared shape of the two façade workloads: CSR build, color, verify."""

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.first_column = None

    def _color(self, fast):
        raise NotImplementedError

    def _verify(self, fast, column) -> None:
        raise NotImplementedError

    def op(self):
        fast = repro.FastNetwork.from_edge_array(self.u, self.v, num_nodes=self.num_nodes)
        result = self._color(fast)
        self._verify(fast, result.color_column)
        return result

    def check(self, result) -> None:
        column = np.asarray(result.color_column)
        require(len(column) == self.items, f"{len(column)} colors for {self.items} items")
        used = int(np.unique(column).size)
        require(used <= result.palette, f"{used} colors used > palette {result.palette}")
        if self.first_column is None:
            self.first_column = column.copy()
            self.rounds = result.metrics.rounds
            self.colors_used = used
            self.chosen = result.decision
            return
        require(
            np.array_equal(column, self.first_column) and result.metrics.rounds == self.rounds,
            "coloring drifted from the warm-up op on the same input",
        )

    def edges(self, result) -> int:
        return len(self.u)

    def counts(self):
        return {"colors_used": self.colors_used, "rounds": self.rounds}

    def decision(self):
        chosen = self.chosen
        return {
            "algorithm": chosen.algorithm,
            "engine": chosen.engine,
            "quality": chosen.quality,
            "route": chosen.route,
            "degraded_from": list(chosen.degraded_from),
        }


class VertexGeometric(_Facade):
    """``color_graph`` on a unit-disk graph (bounded growth, I(G) <= 5)."""

    name = "vertex-geometric"

    def make_inputs(self):
        n, radius = (2_000, 0.05) if self.tiny else (100_000, 0.0098)
        generated = graphs.random_geometric(n, radius, seed=self.seed, backend="fast")
        self.u, self.v = edge_arrays(generated)
        self.num_nodes = self.items = n

    def _color(self, fast):
        return repro.color_graph(fast, c=5)

    def _verify(self, fast, column):
        repro.verification.assert_legal_vertex_coloring(fast, column)


class EdgeRegular(_Facade):
    """``color_edges`` on a random regular graph (line-graph build dominates)."""

    name = "edge-regular"

    def make_inputs(self):
        n, degree = (200, 8) if self.tiny else (20_000, 16)
        generated = graphs.random_regular(n, degree, seed=self.seed, backend="fast")
        self.u, self.v = edge_arrays(generated)
        self.num_nodes = n
        self.items = len(self.u)

    def _color(self, fast):
        return repro.color_edges(fast)

    def _verify(self, fast, column):
        repro.verification.assert_legal_edge_coloring(fast, column)


class Churn(Workload):
    """``DynamicColoring.apply_updates`` batches of 1% edge churn."""

    name = "churn"
    c = 8

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.min_ops = 10 if tiny else 100
        #: Batches (warm-up included) whose counts must repeat exactly.
        self.window = 5 if tiny else 100
        self.reports = []
        self.colors_seen = []

    def make_inputs(self):
        n, degree = (1_000, 8) if self.tiny else (50_000, 8)
        generated = graphs.random_regular(n, degree, seed=self.seed, backend="fast")
        u, v = edge_arrays(generated)
        self.n = n
        self.u, self.v = u, v
        # The benchmark's own copy of the edge set, as sorted u * n + v keys.
        self.keys = np.sort(u * n + v)
        self.batch = len(u) // 100
        self.rng = np.random.default_rng([self.seed, 1])

    def setup(self):
        fast = repro.FastNetwork.from_edge_array(self.u, self.v, num_nodes=self.n)
        self.session = repro.DynamicColoring(fast, c=self.c)
        self.initial_rounds = self.session.metrics.rounds
        self.max_degree = self.session.network.max_degree

    def prepare(self):
        n, rng = self.n, self.rng
        pick = rng.choice(len(self.keys), size=self.batch, replace=False)
        gone = self.keys[pick]
        add_u = rng.integers(0, n, size=self.batch)
        add_v = (add_u + rng.integers(1, n, size=self.batch)) % n
        self.removed = (gone // n, gone % n)
        self.added = (add_u, add_v)
        # Removals apply before insertions, as in apply_updates.
        kept = np.delete(self.keys, pick)
        fresh = np.unique(np.minimum(add_u, add_v) * n + np.maximum(add_u, add_v))
        slots = np.searchsorted(kept, fresh)
        present = kept[np.minimum(slots, len(kept) - 1)] == fresh
        self.next_keys = np.insert(kept, slots[~present], fresh[~present])

    def op(self):
        return self.session.apply_updates(added=self.added, removed=self.removed)

    def check(self, report):
        self.keys = self.next_keys
        session = self.session
        session.verify()
        network = session.network
        require(
            network.num_edges == len(self.keys),
            f"session holds {network.num_edges} edges, expected {len(self.keys)}",
        )
        self.max_degree = max(self.max_degree, network.max_degree)
        used = int(np.unique(session.color_column).size)
        require(used <= session.palette_bound, f"{used} colors > bound {session.palette_bound}")
        self.reports.append(report)
        self.colors_seen.append(used)

    def finish(self):
        n = self.n
        expected = repro.FastNetwork.from_edge_array(self.keys // n, self.keys % n, num_nodes=n)
        actual = self.session.network
        require(
            np.array_equal(actual.indptr_np, expected.indptr_np)
            and np.array_equal(actual.indices_np, expected.indices_np),
            "patched CSR differs from a fresh build of the same edge set",
        )
        bound = self.session.palette_bound
        require(
            bound <= self.max_degree + 1,
            f"palette bound {bound} > Delta + 1 = {self.max_degree + 1}",
        )

    def edges(self, report):
        return report.edges_added + report.edges_removed

    def counts(self):
        reports = self.reports[: self.window]
        require(len(reports) == self.window, f"only {len(reports)} batches ran")
        return {
            # A mean over the window: one batch's count is a small integer.
            "colors_used": sum(self.colors_seen[: self.window]) / self.window,
            "rounds": self.initial_rounds,
            "conflicts": sum(r.conflicts for r in reports),
            "repaired": sum(r.repaired_nodes for r in reports),
        }

    def decision(self):
        return {
            "engine": default_engine(),
            "strategy": self.session.strategy,
            "ball_radius": self.session.ball_radius,
        }

    def layer_metrics(self, traced_ops, traced_wall_ns):
        counts = self.counts()
        return {
            "dynamic.conflicts_per_batch": counts["conflicts"] / self.window,
            "dynamic.repaired_per_batch": counts["repaired"] / self.window,
        }


#: ``SweepStats`` counters reported as ``experiments.<name>`` per traced op.
SWEEP_STATS = (
    "cache_hits",
    "fresh",
    "retries",
    "reassignments",
    "envelopes_rejected",
    "worker_replacements",
)


class Sweep(Workload):
    """A workdir-backend ``ExperimentRunner`` sweep over a sliding seed window."""

    name = "sweep"
    worker_processes = 2

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.width, self.slide = (6, 4) if tiny else (48, 32)
        self.min_ops = 2 if tiny else 5
        self.windows = 0
        self.reference: Dict[str, dict] = {}
        self.first_window = None
        self.first_stats = None
        self.layer = dict.fromkeys(("compute_s", "degraded") + SWEEP_STATS, 0)

    def make_inputs(self):
        self.base = self.seed * 1_000_003

    def setup(self):
        self.runner = ExperimentRunner(
            backend="workdir", max_workers=2, cache_dir=self.workdir / "cache"
        )

    def prepare(self):
        first = self.base + self.windows * self.slide
        self.windows += 1
        self.batch = [
            Scenario.make(
                name=f"rr48-s{seed}",
                graph=GraphSpec("random_regular", n=48, degree=4, seed=seed),
                algorithm="legal_coloring",
                params={"c": 4},
            )
            for seed in range(first, first + self.width)
        ]

    def op(self):
        return self.runner.run(self.batch)

    def check(self, results):
        stats = self.runner.last_stats
        hits = 0 if self.windows == 1 else self.width - self.slide
        fresh = self.width - hits
        healthy = stats.cache_hits == hits and stats.fresh == fresh and stats.failures == 0
        require(healthy, f"sweep stats {stats} != {hits} hits, {fresh} fresh")
        for result in results:
            require(result.ok and result.payload.get("verified"), f"{result.name}: {result.error}")
            token = result.scenario.cache_token()
            if token not in self.reference:
                self.reference[token] = run_scenario(result.scenario)
            expected = self.reference[token]
            for key in ("coloring_digest", "rounds", "colors_used"):
                require(
                    result.payload[key] == expected[key],
                    f"{result.name}: {key} differs from the in-process serial run",
                )
        if self.first_window is None:
            self.first_window = [result.payload for result in results]
        elif self.first_stats is None:
            self.first_stats = stats

    def observe(self, results, traced):
        if not traced:
            return
        stats = self.runner.last_stats
        layer = self.layer
        layer["compute_s"] += sum(r.payload["wall_time"] for r in results if not r.cached)
        for key in ("degraded",) + SWEEP_STATS:
            layer[key] += getattr(stats, key)

    def edges(self, results):
        return sum(result.payload["num_edges"] for result in results)

    def scenarios(self, results):
        return len(results)

    def counts(self):
        first = self.first_window
        return {
            "colors_used": max(payload["colors_used"] for payload in first),
            "rounds": max(payload["rounds"] for payload in first),
            "cache_hits": self.first_stats.cache_hits,
            "fresh": self.first_stats.fresh,
        }

    def decision(self):
        return {
            "backend": self.runner.backend,
            "workers": self.runner.max_workers,
            "engine": self.batch[0].engine,
            "algorithm": self.batch[0].algorithm,
        }

    def layer_metrics(self, traced_ops, traced_wall_ns):
        layer = self.layer
        ops = max(traced_ops, 1)
        fresh = max(layer["fresh"], 1)
        compute_ms = layer["compute_s"] * 1e3
        busy_ms = self.worker_processes * traced_wall_ns / 1e6
        metrics = {
            "experiments.compute_ms_per_task": compute_ms / fresh,
            "experiments.overhead_ms_per_task": (busy_ms - compute_ms) / fresh,
            "core.degraded_engines": layer["degraded"] / ops,
        }
        for key in SWEEP_STATS:
            metrics[f"experiments.{key}"] = layer[key] / ops
        return metrics


WORKLOADS = {
    workload.name: workload for workload in (VertexGeometric, EdgeRegular, Churn, Sweep)
}
