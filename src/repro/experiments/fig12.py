"""Experiment: Figure 12 — capacity-cost curves over 4.5 months.

Each allocation strategy is simulated over the August-December window
(including Black Friday, promotions, load tests and one unexpected
spike) once per value of the per-server target rate Q.  Every simulation
yields one point: (normalised cost, % of time with insufficient
capacity).  The paper's findings:

* "P-Store Oracle" (perfect predictions) bounds what P-Store can do;
* "P-Store SPAR" sits just behind the oracle;
* the reactive strategy can reach low violation rates only at much
  higher cost (big allocation buffers);
* "Simple" (clock-driven) and "Static" are dominated — they are
  inflexible and break on deviations from the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.capacity import CapacityCostCurve, SweepPoint
from ..config import PStoreConfig, default_config
from ..elasticity import (
    PStoreStrategy,
    ReactiveStrategy,
    SimpleStrategy,
    StaticStrategy,
)
from ..errors import ConfigurationError
from ..prediction import OraclePredictor, SparPredictor
from ..sim import CapacitySimResult, run_capacity_simulation
from ..workload import LoadTrace, b2w_like_trace, retail_season_calendar
from .common import TRAIN_DAYS, capacity_payload

#: Per-slot scale chosen so the seasonal trace peaks near 1.45k txn/s
#: (ordinary days) with Black Friday reaching ~3x that.
SEASON_BASE_LEVEL = 1250.0 * 300.0

#: Q sweep (fractions of the 438 txn/s saturation rate).
DEFAULT_Q_FRACTIONS = (0.45, 0.55, 0.65, 0.75)

#: Static cluster sizes plotted as points in Fig. 12.
STATIC_SIZES = (4, 6, 8, 10)

SATURATION_TPS = 438.0


@dataclass
class SeasonSetup:
    """The 4.5-month workload plus SPAR training artefacts."""

    config: PStoreConfig
    trace: LoadTrace                  # evaluation window (5-min slots)
    train_tps: np.ndarray             # per-slot tps of the training window
    eval_tps: np.ndarray
    spar: SparPredictor
    oracle: OraclePredictor


def season_setup(
    n_days: int = 135,
    seed: int = 7,
    config: Optional[PStoreConfig] = None,
    include_black_friday: bool = True,
) -> SeasonSetup:
    """Build the Aug-Dec workload: 4 training weeks + ``n_days`` eval."""
    config = config or default_config().with_interval(300.0)
    slots_per_day = 288
    rng = np.random.default_rng(seed)
    calendar = retail_season_calendar(
        slots_per_day=slots_per_day,
        n_days=n_days,
        rng=rng,
        black_friday_day=116 if (include_black_friday and n_days > 118) else -1,
    )
    # Shift the calendar past the training window.
    from ..workload.events import EventCalendar, LoadEvent

    shifted = EventCalendar(
        LoadEvent(
            start_slot=e.start_slot + TRAIN_DAYS * slots_per_day,
            duration_slots=e.duration_slots,
            magnitude=e.magnitude,
            shape=e.shape,
            label=e.label,
        )
        for e in calendar
    )
    full = b2w_like_trace(
        n_days=TRAIN_DAYS + n_days,
        slot_seconds=300.0,
        seed=rng,
        base_level=SEASON_BASE_LEVEL,
        calendar=shifted,
        name="b2w-aug-dec",
    )
    train = full.slice_days(0, TRAIN_DAYS)
    evaluation = full.slice_days(TRAIN_DAYS, n_days)
    train_tps = train.as_rate_per_second()
    eval_tps = evaluation.as_rate_per_second()
    spar = SparPredictor(period=slots_per_day, n_periods=7, m_recent=30).fit(
        train_tps
    )
    oracle = OraclePredictor(np.concatenate([train_tps, eval_tps]))
    return SeasonSetup(
        config=config,
        trace=evaluation,
        train_tps=train_tps,
        eval_tps=eval_tps,
        spar=spar,
        oracle=oracle,
    )


@dataclass
class Figure12Result:
    """Capacity-cost curves and the normalisation baseline."""

    curves: Dict[str, CapacityCostCurve]
    baseline_cost: float              # default P-Store SPAR run (cost = 1.0)
    setup: SeasonSetup

    def normalized_points(self) -> List[dict]:
        rows = []
        for name, curve in self.curves.items():
            for point in curve.points:
                rows.append(
                    {
                        "strategy": name,
                        "q_fraction": point.q_fraction,
                        "normalized_cost": point.cost_machine_slots
                        / self.baseline_cost,
                        "pct_insufficient": point.pct_time_insufficient,
                    }
                )
        return rows


def _initial_machines(setup: SeasonSetup, q: float) -> int:
    first_load = float(setup.eval_tps[0])
    return max(1, math.ceil(first_load * 1.3 / q))


#: Simple-strategy clock: scale out at 05:00, back in at 23:30.
SIMPLE_MORNING_HOUR = 5.0
SIMPLE_NIGHT_HOUR = 23.5


def simple_strategy_for(setup: SeasonSetup, config: PStoreConfig) -> SimpleStrategy:
    """Size the clock-driven Simple strategy the way an operator would:
    from the *typical* time-of-day profile of the training data.

    Day machines cover the typical daily peak (plus a small buffer);
    night machines cover the highest load seen inside the night window.
    Deviations from the pattern — promotions, spikes, Black Friday — are
    exactly what this sizing cannot anticipate (Fig. 13, right).
    """
    slots_per_day = 288
    usable = (setup.train_tps.size // slots_per_day) * slots_per_day
    profile = setup.train_tps[:usable].reshape(-1, slots_per_day).mean(axis=0)
    hours = np.arange(slots_per_day) * 24.0 / slots_per_day
    night_mask = (hours >= SIMPLE_NIGHT_HOUR) | (hours < SIMPLE_MORNING_HOUR)
    day_need = float(profile.max()) * 1.10
    night_need = float(profile[night_mask].max()) * 1.10
    day_machines = max(2, math.ceil(day_need / config.q))
    night_machines = max(1, math.ceil(night_need / config.q))
    return SimpleStrategy(
        day_machines=max(day_machines, night_machines),
        night_machines=min(day_machines, night_machines),
        slots_per_day=slots_per_day,
        morning_hour=SIMPLE_MORNING_HOUR,
        night_hour=SIMPLE_NIGHT_HOUR,
    )


def run_figure12(
    n_days: int = 135,
    seed: int = 7,
    q_fractions: Sequence[float] = DEFAULT_Q_FRACTIONS,
    setup: Optional[SeasonSetup] = None,
    include_oracle: bool = True,
) -> Figure12Result:
    """Sweep every allocation strategy over Q (Fig. 12).

    ``n_days`` and ``q_fractions`` can be reduced for quick runs; the
    paper uses the full 4.5 months.
    """
    specs = grid(n_days=n_days, seed=seed, q_fractions=q_fractions)
    setup = setup or cell_setup(specs[0], default_config())

    curves: Dict[str, CapacityCostCurve] = {}
    for spec in specs:
        family = str(spec.option("family"))
        if family == "p-store-oracle" and not include_oracle:
            continue
        result = season_run(spec, setup)
        curve = curves.setdefault(
            family, CapacityCostCurve(strategy=family, points=[])
        )
        curve.points.append(
            SweepPoint(
                strategy=spec.cell if family == "static" else family,
                q_fraction=float(spec.option("q_fraction", math.nan)),
                q=_cell_config(spec, setup).q,
                cost_machine_slots=result.cost_machine_slots,
                average_machines=result.average_machines,
                pct_time_insufficient=result.pct_time_insufficient,
            )
        )

    # Baseline: P-Store SPAR at the default Q (0.65 of saturation).
    default_fraction = min(q_fractions, key=lambda f: abs(f - 0.65))
    baseline = next(
        p for p in curves["p-store-spar"].points
        if p.q_fraction == default_fraction
    )
    return Figure12Result(
        curves=curves,
        baseline_cost=baseline.cost_machine_slots,
        setup=setup,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------

#: The Q-swept strategy families of Fig. 12.
SWEEP_FAMILIES = ("p-store-spar", "p-store-oracle", "reactive", "simple")


def grid(
    n_days: int = 135,
    seed: int = 7,
    q_fractions: Sequence[float] = DEFAULT_Q_FRACTIONS,
) -> list:
    """(family x Q-fraction) cells plus one cell per static size."""
    from ..runner import RunSpec

    specs = []
    for family in SWEEP_FAMILIES:
        for fraction in q_fractions:
            specs.append(
                RunSpec(
                    experiment="fig12",
                    cell=f"{family}@{fraction}",
                    seed=seed,
                    overrides=(
                        ("family", family),
                        ("q_fraction", float(fraction)),
                        ("n_days", int(n_days)),
                    ),
                )
            )
    for size in STATIC_SIZES:
        specs.append(
            RunSpec(
                experiment="fig12",
                cell=f"static-{size}",
                seed=seed,
                overrides=(
                    ("family", "static"),
                    ("size", int(size)),
                    ("n_days", int(n_days)),
                ),
            )
        )
    return specs


def cell_setup(spec, config: PStoreConfig) -> SeasonSetup:
    """The season a cell (of Fig. 12 or Fig. 13) runs on."""
    return season_setup(
        n_days=int(spec.option("n_days", 135)),
        seed=spec.seed,
        config=config.with_interval(300.0),
    )


def _cell_config(spec, setup: SeasonSetup) -> PStoreConfig:
    """The season config, with Q set from the cell's ``q_fraction``."""
    fraction = spec.option("q_fraction")
    if fraction is None:
        return setup.config
    return setup.config.with_q(
        min(float(fraction) * SATURATION_TPS, setup.config.q_hat)
    )


def season_run(spec, setup: SeasonSetup) -> CapacitySimResult:
    """Simulate one ``family`` cell on ``setup`` — the only construction
    of a season run, shared by Fig. 12 and Fig. 13."""
    family = str(spec.option("family"))
    if family == "static":
        size = int(spec.option("size"))
        return run_capacity_simulation(
            setup.trace, StaticStrategy(size), setup.config,
            initial_machines=size,
        )
    config = _cell_config(spec, setup)
    predictive = family.startswith("p-store")
    if family == "p-store-spar":
        strategy = PStoreStrategy(config, setup.spar, name=family)
    elif family == "p-store-oracle":
        strategy = PStoreStrategy(config, setup.oracle, name=family)
    elif family == "reactive":
        strategy = ReactiveStrategy(config, scale_in_patience=12)
    elif family == "simple":
        strategy = simple_strategy_for(setup, config)
    else:
        raise ConfigurationError(f"unknown season family {family!r}")
    return run_capacity_simulation(
        setup.trace,
        strategy,
        config,
        initial_machines=_initial_machines(setup, config.q),
        history_seed=list(setup.train_tps) if predictive else [],
    )


def run_cell(spec, config) -> dict:
    """One (strategy, Q) point of the capacity-cost plane."""
    setup = cell_setup(spec, config)
    payload = capacity_payload(season_run(spec, setup))
    payload["family"] = str(spec.option("family"))
    if spec.option("q_fraction") is not None:
        payload.update(
            q_fraction=float(spec.option("q_fraction")),
            q=_cell_config(spec, setup).q,
        )
    return payload


def summarize(result: Figure12Result) -> str:
    lines = []
    for row in result.normalized_points():
        fraction = row["q_fraction"]
        q_label = "-" if fraction != fraction else f"{fraction:.2f}"
        lines.append(
            f"{row['strategy']} (Q x {q_label}): cost "
            f"{row['normalized_cost']:.2f}, insufficient "
            f"{row['pct_insufficient']:.2f}%"
        )
    return "\n".join(lines)
