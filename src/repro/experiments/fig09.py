"""Experiment: Figure 9 — comparison of elasticity approaches.

Runs the B2W benchmark (3 days at 10x speed, ~26k simulated seconds)
under four provisioning approaches:

* static allocation with 10 machines (peak-provisioned, Fig. 9a);
* static allocation with 4 machines (trough-provisioned, Fig. 9b);
* reactive provisioning in the E-Store style (Fig. 9c);
* P-Store with the SPAR predictive model (Fig. 9d).

The result feeds Figure 10 (tail-latency CDFs) and Table 2 (SLA
violations and machine usage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import default_config
from ..elasticity import StrategySpec
from ..sim import ElasticDbSimulator, SimulationResult
from ..sim.tensor import TensorProgram
from .common import BenchmarkSetup, benchmark_setup, run_scalar, sim_payload

#: Engine seed shared across approaches so they see the same skew.
ENGINE_SEED = 77

#: (approach name, strategy spec, initial machines) — the four runs of
#: Fig. 9, also the experiment's sweep-cell grid (reused by Fig. 10 and
#: Table 2).
APPROACH_SPECS = (
    ("static-10", "static:10", 10),
    ("static-4", "static:4", 4),
    ("reactive", "reactive:patience=10", 4),
    ("p-store", "p-store", 4),
)

_INITIAL_MACHINES = {name: initial for name, _, initial in APPROACH_SPECS}


@dataclass
class Figure9Result:
    """All four runs, keyed the way the paper names them."""

    runs: Dict[str, SimulationResult]
    setup: BenchmarkSetup

    @property
    def pstore(self) -> SimulationResult:
        return self.runs["p-store"]

    @property
    def reactive(self) -> SimulationResult:
        return self.runs["reactive"]

    @property
    def static_peak(self) -> SimulationResult:
        return self.runs["static-10"]

    @property
    def static_trough(self) -> SimulationResult:
        return self.runs["static-4"]


def run_figure9(
    eval_days: int = 3,
    seed: int = 21,
    setup: Optional[BenchmarkSetup] = None,
    approaches: Optional[Dict[str, bool]] = None,
) -> Figure9Result:
    """Run the Figure 9 comparison.

    ``eval_days`` can be reduced for quick runs (the paper uses 3).
    ``approaches`` optionally restricts which runs execute, keyed by
    "static-10" / "static-4" / "reactive" / "p-store".
    """
    specs = grid(eval_days=eval_days, seed=seed)
    setup = setup or cell_setup(specs[0], default_config())
    runs = {
        spec.cell: run_scalar(cell_program(spec, setup))
        for spec in specs
        if not approaches or approaches.get(spec.cell)
    }
    return Figure9Result(runs=runs, setup=setup)


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid(eval_days: int = 3, seed: int = 21) -> List:
    """One cell per provisioning approach (the paper's four runs)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig09",
            cell=name,
            strategy=spec_text,
            seed=seed,
            overrides=(("eval_days", int(eval_days)),),
        )
        for name, spec_text, _ in APPROACH_SPECS
    ]


def cell_setup(spec, config) -> BenchmarkSetup:
    """The benchmark workload a cell runs on."""
    return benchmark_setup(
        eval_days=int(spec.option("eval_days", 3)),
        seed=spec.seed,
        config=config,
    )


def cell_program(spec, setup: BenchmarkSetup) -> TensorProgram:
    """Build one approach on ``setup`` — the only construction of a
    Fig. 9 run.  The serial runner and :func:`run_cell` run the program
    on the scalar simulator; the tensor backend batches it."""
    parsed = StrategySpec.parse(spec.strategy)
    strategy = parsed.build(setup.config, predictor=setup.spar)
    simulator = ElasticDbSimulator(
        setup.config,
        max_machines=10,
        initial_machines=_INITIAL_MACHINES.get(spec.cell, 4),
        seed=ENGINE_SEED,
    )
    return TensorProgram(
        simulator=simulator,
        offered_tps=setup.offered_tps,
        strategy=strategy,
        history_seed_tps=(
            setup.train_interval_tps if parsed.kind == "p-store" else ()
        ),
        label=spec.label,
        finalize=sim_payload,
    )


def tensor_cell(spec, config) -> TensorProgram:
    return cell_program(spec, cell_setup(spec, config))


def run_cell(spec, config) -> dict:
    """Execute one approach hermetically (used by ``pstore sweep``)."""
    return sim_payload(run_scalar(tensor_cell(spec, config)))


def summarize(result: Figure9Result) -> str:
    return "\n".join(
        result.runs[name].summary()
        for name, _, _ in APPROACH_SPECS
        if name in result.runs
    )
