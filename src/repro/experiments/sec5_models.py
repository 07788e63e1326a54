"""Experiment: Section 5's model comparison — SPAR vs ARMA vs AR.

"For example, under tau = 60 minutes, the MRE for predicting the B2W
load is 10.4%, 12.2%, and 12.5% under SPAR, ARMA, and AR, respectively."
The absolute numbers depend on the trace; the *ordering* (SPAR best,
plain AR worst) is the claim this experiment reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigurationError
from ..prediction import ArmaPredictor, ArPredictor, SparPredictor
from ..workload import LoadTrace, b2w_like_trace


@dataclass
class ModelComparisonResult:
    """MRE per model at the comparison tau."""

    mre_by_model: Dict[str, float]   # model name -> MRE fraction

    @property
    def ordering(self):
        return sorted(self.mre_by_model, key=self.mre_by_model.get)


def run_model_comparison(
    train_days: int = 28,
    eval_days: int = 7,
    tau_minutes: int = 60,
    seed: int = 7,
    stride: int = 31,
) -> ModelComparisonResult:
    """Fit all three models on the same trace; compare tau-ahead MRE."""
    specs = grid(tau_minutes=tau_minutes, seed=seed, train_days=train_days,
                 eval_days=eval_days, stride=stride)
    trace = cell_trace(specs[0])
    return ModelComparisonResult(
        mre_by_model={
            str(spec.option("model")): model_mre(spec, trace)
            for spec in specs
        }
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid(
    tau_minutes: int = 60,
    seed: int = 7,
    train_days: int = 28,
    eval_days: int = 7,
    stride: int = 31,
) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="sec5",
            cell=model.lower(),
            seed=seed,
            overrides=(
                ("model", model),
                ("tau_minutes", int(tau_minutes)),
                ("train_days", int(train_days)),
                ("eval_days", int(eval_days)),
                ("stride", int(stride)),
            ),
        )
        for model in ("SPAR", "ARMA", "AR")
    ]


def cell_trace(spec) -> LoadTrace:
    """The training + evaluation trace a cell backtests on."""
    n_days = int(spec.option("train_days")) + int(spec.option("eval_days"))
    return b2w_like_trace(n_days=n_days, slot_seconds=60.0, seed=spec.seed)


def model_mre(spec, trace: LoadTrace) -> float:
    """Fit the cell's model on ``trace`` and return its tau-ahead MRE —
    the only construction of a Sec. 5 predictor."""
    period = trace.slots_per_day
    train = int(spec.option("train_days")) * period
    stop = train + int(spec.option("eval_days")) * period
    name = str(spec.option("model"))
    if name == "SPAR":
        model = SparPredictor(period=period, n_periods=7, m_recent=30)
    elif name == "ARMA":
        model = ArmaPredictor(p=30, q=10)
    elif name == "AR":
        model = ArPredictor(order=30)
    else:
        raise ConfigurationError(f"unknown sec5 model {name!r}")
    model.fit(trace.values[:train])
    backtest = model.backtest(
        trace.values,
        tau=int(spec.option("tau_minutes")),
        start=train,
        stop=stop,
        step=int(spec.option("stride")),
    )
    return backtest.mean_relative_error()


def run_cell(spec, config) -> dict:
    return {
        "model": str(spec.option("model")),
        "mre": model_mre(spec, cell_trace(spec)),
    }


def summarize(result: ModelComparisonResult) -> str:
    ranked = ", ".join(
        f"{name}: {100.0 * result.mre_by_model[name]:.1f}%"
        for name in result.ordering
    )
    return f"MRE at tau=60 min — {ranked} (best first)"
