"""The measured cost model behind the portfolio's per-instance decisions.

The model is deliberately small: two families of coefficients, both
calibrated offline by ``benchmarks/bench_portfolio.py`` and persisted to
``benchmarks/results/portfolio_model.json`` next to the other committed
benchmark records.

* **Route** — seconds per line-graph CSR entry for the direct
  (Theorem 5.5) versus the Lemma 5.2 simulation route of ``color_edges``.
* **Rounds** — one fitted multiplier per Theorem 4.8 quality preset on top
  of the analytic round shapes (``Delta^eps + log* n``,
  ``log Delta + log* n``, ``(log Delta)^{1+eta} + log* n``), used to pick
  the best palette whose predicted round count fits a caller's ``budget``.

The engine is not priced: the façade runs the process-default array
engine, which dispatches the fused kernels whenever a kernel backend
resolved.

``CostModel.default()`` loads the committed record when the repository
checkout is present and falls back to the embedded snapshot of the same
numbers otherwise, so the portfolio works in an installed package too.  The
default model is loaded once per process.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.exceptions import InvalidParameterError
from repro.primitives.numbers import log_star

#: Quality presets ordered from best palette guarantee (fewest colors,
#: slowest) to fastest (most colors).  The budget search walks this order
#: and keeps the first preset whose predicted rounds fit.
QUALITY_ORDER = ("linear", "subpolynomial", "superlinear")

#: Embedded snapshot of ``benchmarks/results/portfolio_model.json`` — the
#: calibration numbers recorded by ``bench_portfolio.py`` on the reference
#: machine.  Kept in sync by the benchmark's ``--record`` run.
DEFAULT_MODEL = {
    "route": {
        "direct_us_per_line_entry": 0.4139,
        "simulation_us_per_line_entry": 0.4052,
    },
    "rounds": {
        "linear": {"coeff": 15.238, "const": 0.0},
        "subpolynomial": {"coeff": 6.877, "const": 0.0},
        "superlinear": {"coeff": 13.515, "const": 0.0},
    },
}

_COMMITTED_RECORD = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "portfolio_model.json"
)


def quality_round_shape(quality: str, delta: int, n: int, epsilon: float = 0.75) -> float:
    """The analytic Theorem 4.8 round shape of ``quality`` (unit coefficient)."""
    delta = max(2, delta)
    if quality == "linear":
        return float(delta**epsilon + log_star(n))
    if quality == "superlinear":
        return float(math.log2(delta) + log_star(n))
    if quality == "subpolynomial":
        return float(math.log2(delta) ** (1.0 + epsilon) + log_star(n))
    raise InvalidParameterError(f"unknown quality {quality!r}")


@dataclass(frozen=True)
class CostModel:
    """Calibrated decision coefficients (see the module docstring)."""

    route: Mapping[str, float]
    rounds: Mapping[str, Mapping[str, float]]
    source: str = "defaults"
    extras: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_mapping(cls, data: Mapping, source: str = "mapping") -> "CostModel":
        for section in ("route", "rounds"):
            if section not in data:
                raise InvalidParameterError(
                    f"cost model is missing its {section!r} section"
                )
        extras = {
            key: value for key, value in data.items() if key not in ("route", "rounds")
        }
        return cls(
            route=dict(data["route"]),
            rounds={key: dict(value) for key, value in data["rounds"].items()},
            source=source,
            extras=extras,
        )

    @classmethod
    def from_json(cls, path) -> "CostModel":
        path = Path(path)
        with path.open() as handle:
            return cls.from_mapping(json.load(handle), source=str(path))

    @classmethod
    @functools.cache
    def default(cls) -> "CostModel":
        """The committed calibration record, or its embedded snapshot.

        Loaded on the first call and cached for the life of the process.
        """
        if _COMMITTED_RECORD.exists():
            try:
                return cls.from_json(_COMMITTED_RECORD)
            except (OSError, ValueError):
                pass
        return cls.from_mapping(DEFAULT_MODEL, source="embedded-defaults")

    # ------------------------------------------------------------------ #
    # Predictions
    # ------------------------------------------------------------------ #

    def predict_route_seconds(self, route: str, line_entries: int) -> float:
        key = f"{route}_us_per_line_entry"
        if key not in self.route:
            raise InvalidParameterError(f"cost model has no route {route!r}")
        return self.route[key] * line_entries * 1e-6

    def choose_route(self, line_entries: int) -> str:
        direct = self.predict_route_seconds("direct", line_entries)
        simulation = self.predict_route_seconds("simulation", line_entries)
        # Ties go to the direct route: same wall cost, smaller messages.
        return "simulation" if simulation < direct else "direct"

    def predict_rounds(
        self, quality: str, delta: int, n: int, epsilon: float = 0.75
    ) -> float:
        fit = self.rounds.get(quality)
        if fit is None:
            raise InvalidParameterError(f"cost model has no quality {quality!r}")
        shape = quality_round_shape(quality, delta, n, epsilon=epsilon)
        return fit["coeff"] * shape + fit.get("const", 0.0)

    def choose_quality(
        self,
        delta: int,
        n: int,
        budget: Optional[float],
        epsilon: float = 0.75,
    ) -> str:
        """The best-palette preset whose predicted rounds fit ``budget``.

        With no budget the answer is always ``"linear"`` (the paper's
        ``O(Delta)``-colors guarantee).  An infeasible budget degrades to
        ``"superlinear"`` — the fastest preset — rather than failing.
        """
        if budget is None:
            return "linear"
        for quality in QUALITY_ORDER:
            if self.predict_rounds(quality, delta, n, epsilon=epsilon) <= budget:
                return quality
        return "superlinear"
