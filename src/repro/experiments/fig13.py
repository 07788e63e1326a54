"""Experiment: Figure 13 — effective capacity around Black Friday.

Two 4-day windows of the seasonal simulation: an ordinary window at the
start, and the Black Friday surge (hour ~2800 of the trace, i.e. day
~116).  The claim: the "Simple" clock-driven strategy looks adequate on
ordinary days but breaks on the surge, while P-Store (predictive +
reactive fallback) keeps effective capacity above the load even on
Black Friday.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import default_config
from ..sim import CapacitySimResult
from .common import capacity_payload
from .fig12 import SeasonSetup, cell_setup, season_run


@dataclass
class WindowSeries:
    """Load and per-strategy effective capacity for one 4-day window."""

    start_day: float
    hours: np.ndarray
    load_tps: np.ndarray
    eff_cap: Dict[str, np.ndarray]

    def insufficient_fraction(self, strategy: str) -> float:
        """Fraction of the window where load exceeds effective capacity."""
        cap = self.eff_cap[strategy]
        return float(np.mean(self.load_tps > cap + 1e-9))


@dataclass
class Figure13Result:
    """Ordinary and Black-Friday windows plus full runs."""

    ordinary: WindowSeries
    black_friday: WindowSeries
    runs: Dict[str, CapacitySimResult]
    setup: SeasonSetup


def _window(
    setup: SeasonSetup,
    runs: Dict[str, CapacitySimResult],
    start_day: float,
    n_days: float,
) -> WindowSeries:
    slots_per_day = 288
    lo = int(start_day * slots_per_day)
    hi = int((start_day + n_days) * slots_per_day)
    load = setup.eval_tps[lo:hi]
    hours = (np.arange(lo, hi) * 300.0) / 3600.0
    eff = {
        name: result.eff_cap_max[lo:hi] for name, result in runs.items()
    }
    return WindowSeries(
        start_day=start_day, hours=hours, load_tps=load, eff_cap=eff
    )


def run_figure13(
    n_days: int = 120,
    seed: int = 7,
    setup: Optional[SeasonSetup] = None,
    black_friday_day: int = 116,
) -> Figure13Result:
    """Simulate P-Store SPAR and Simple over the season; extract windows."""
    specs = grid(n_days=n_days, seed=seed)
    setup = setup or cell_setup(specs[0], default_config())
    runs = {spec.cell: season_run(spec, setup) for spec in specs}

    eval_days = len(setup.trace) / 288.0
    bf_start = min(black_friday_day - 1.5, eval_days - 4.0)
    return Figure13Result(
        ordinary=_window(setup, runs, start_day=0.5, n_days=4.0),
        black_friday=_window(setup, runs, start_day=max(0.0, bf_start), n_days=4.0),
        runs=runs,
        setup=setup,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid(n_days: int = 120, seed: int = 7) -> list:
    """P-Store SPAR and Simple at the default Q (Fig. 12's families)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig13",
            cell=family,
            seed=seed,
            overrides=(("family", family), ("n_days", int(n_days))),
        )
        for family in ("p-store-spar", "simple")
    ]


def run_cell(spec, config) -> dict:
    return capacity_payload(season_run(spec, cell_setup(spec, config)))


def summarize(result: Figure13Result) -> str:
    lines = []
    for name in result.runs:
        ordinary = result.ordinary.insufficient_fraction(name)
        surge = result.black_friday.insufficient_fraction(name)
        lines.append(
            f"{name}: insufficient {100 * ordinary:.1f}% of the ordinary "
            f"window, {100 * surge:.1f}% of the Black Friday window"
        )
    return "\n".join(lines)
