"""Each paper experiment's serial runner equals its own sweep cells.

``pstore experiment`` (the ``run_*`` functions) and ``pstore sweep``
(``run_cell`` / ``tensor_cell``) must produce the same numbers for the
same grid.  For every spec in a module's ``grid(...)`` at a minimal size,
the payload of the serial runner's run must equal ``run_cell(spec,
config)``; for the tensor-capable figures the tensor backend must agree
too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import default_config
from repro.experiments import (
    chaos,
    fig09,
    fig11,
    fig12,
    fig13,
    sec5_models,
)
from repro.experiments.common import capacity_payload, sim_payload
from repro.runner import run_sweep

CFG = default_config()


def _fig09():
    specs = fig09.grid(eval_days=1, seed=21)
    result = fig09.run_figure9(eval_days=1, seed=21)
    return specs, {name: sim_payload(run) for name, run in result.runs.items()}


def _fig11():
    specs = fig11.grid(eval_days=1, seed=33)
    result = fig11.run_figure11(eval_days=1, seed=33)
    return specs, {
        "rate-R": sim_payload(result.regular_rate),
        "rate-Rx8": sim_payload(result.boosted_rate),
    }


def _fig12():
    specs = fig12.grid(n_days=1, seed=7, q_fractions=(0.65,))
    result = fig12.run_figure12(n_days=1, seed=7, q_fractions=(0.65,))
    # The serial result keeps one SweepPoint per cell, not the full run.
    points = {}
    for family, curve in result.curves.items():
        for point in curve.points:
            swept = family != "static"
            cell = f"{family}@{point.q_fraction}" if swept else point.strategy
            row = {
                "cost_machine_slots": round(point.cost_machine_slots, 9),
                "average_machines": round(point.average_machines, 9),
                "pct_time_insufficient": round(point.pct_time_insufficient, 9),
            }
            if swept:
                row.update(q_fraction=point.q_fraction, q=point.q)
            points[cell] = row
    return specs, points


def _fig13():
    specs = fig13.grid(n_days=2, seed=7)
    result = fig13.run_figure13(n_days=2, seed=7)
    return specs, {
        name: capacity_payload(run) for name, run in result.runs.items()
    }


def _chaos_payload(run) -> dict:
    stats = run.stats
    payload = sim_payload(run.result)
    payload["recovery"] = {
        "injected": stats.injected,
        "detected": stats.detected,
        "recovered": stats.recovered,
        "mean_time_to_detect": stats.mean_time_to_detect,
        "mean_time_to_recover": stats.mean_time_to_recover,
        "max_time_to_recover": stats.max_time_to_recover,
        "converged": stats.all_recovered,
    }
    payload["chronicle"] = run.chronicle
    return payload


def _chaos():
    specs = chaos.grid(eval_days=1, seed=21)
    result = chaos.run_chaos(eval_days=1, seed=21)
    payloads = {"baseline": sim_payload(result.baseline)}
    payloads.update(
        {label: _chaos_payload(run) for label, run in result.runs.items()}
    )
    return specs, payloads


def _sec5():
    sizes = dict(tau_minutes=60, seed=7, train_days=9, eval_days=1)
    specs = sec5_models.grid(**sizes)
    result = sec5_models.run_model_comparison(**sizes)
    return specs, {
        name.lower(): {"model": name, "mre": mre}
        for name, mre in result.mre_by_model.items()
    }


CASES = {
    "fig09": (_fig09, fig09.run_cell, True),
    "fig11": (_fig11, fig11.run_cell, True),
    "fig12": (_fig12, fig12.run_cell, False),
    "fig13": (_fig13, fig13.run_cell, False),
    "chaos": (_chaos, chaos.run_cell, False),
    "sec5": (_sec5, sec5_models.run_cell, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_serial_runner_equals_its_cells(name):
    serial, run_cell, tensor = CASES[name]
    specs, expected = serial()
    assert sorted(expected) == sorted(spec.cell for spec in specs)
    for spec in specs:
        payload = run_cell(spec, CFG)
        want = expected[spec.cell]
        assert {k: payload[k] for k in want} == want, spec.label
    if tensor:
        report = run_sweep(specs, CFG, backend="tensor")
        assert report.backend == "tensor"
        for cell in report.cells:
            assert cell.payload == expected[cell.spec.cell], cell.label


@pytest.mark.parametrize(
    "run_cell, spec",
    [
        (fig12.run_cell, fig12.grid(n_days=1, q_fractions=(0.65,))[0]),
        (fig13.run_cell, fig13.grid(n_days=1)[0]),
    ],
    ids=["fig12", "fig13"],
)
def test_season_cells_honour_the_sweep_config(run_cell, spec):
    assert spec.cell.startswith("p-store-spar")
    inflated = dataclasses.replace(CFG, prediction_inflation=2.0)
    assert run_cell(spec, inflated) != run_cell(spec, CFG)
