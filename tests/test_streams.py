"""One fact, one stream: decisions and actions live in the chronicle,
per-interval samples and check findings in the event log, wall time in
spans.  Each run below must keep the three record streams disjoint."""

import json
import time

import numpy as np
import pytest

import repro.telemetry
from repro.benchmark import b2w_schema, load_b2w_data
from repro.cli import main
from repro.config import PStoreConfig
from repro.core import PStoreService
from repro.experiments import serve as serve_scenario
from repro.faults import FaultInjector, crash_during_migration_scenario
from repro.hstore import Cluster
from repro.prediction.base import Predictor
from repro.telemetry import Telemetry, telemetry_scope

#: Every kind the event log may hold.
SAMPLE_KINDS = {
    "interval", "interval.gap", "machines", "sweep.cell",
    "check.divergence", "invariant.violation",
}


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()][1:]


def _cli_run(tmp_path, *args):
    out = tmp_path / "run"
    assert main([*args, "--quiet", "--telemetry-out", str(out)]) == 0
    return (
        _read_jsonl(out / "events.jsonl"),
        _read_jsonl(out / "chronicle.jsonl"),
        _read_jsonl(out / "spans.jsonl"),
    )


def _bundle_streams(tel):
    return (
        tel.events.snapshot(), tel.chronicle.snapshot(),
        tel.tracer.snapshot(),
    )


def simulate_run(tmp_path, monkeypatch):
    return _cli_run(tmp_path, "simulate", "p-store", "--days", "1")


def chaos_run(tmp_path, monkeypatch):
    return _cli_run(tmp_path, "chaos", "--days", "1", "--no-reactive")


def serve_trigger_run(tmp_path, monkeypatch):
    """The drift replay: the error trigger fires and recovers."""
    bundles = []

    class Capturing(Telemetry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            bundles.append(self)

    monkeypatch.setattr(repro.telemetry, "Telemetry", Capturing)
    summary, _ = serve_scenario.run_scenario(
        serve_scenario.SERVE_SEED, serve_scenario.SERVE_TRIGGER
    )
    assert summary["trigger_fires"] >= 1
    assert summary["trigger_recoveries"] >= 1
    (tel,) = bundles
    return _bundle_streams(tel)


class _RampPredictor(Predictor):
    def __init__(self, level):
        super().__init__()
        self.level = level
        self._fitted = True

    @property
    def min_history(self):
        return 1

    def fit(self, series):
        return self

    def predict_horizon(self, history, horizon):
        return np.full(horizon, self.level)


def service_crash_run(tmp_path, monkeypatch):
    """A scale-out whose migration start crashes a node."""
    config = PStoreConfig(
        interval_seconds=60.0, d_seconds=600.0, database_kb=3000.0,
        partitions_per_node=3,
    )
    with telemetry_scope() as tel:
        cluster = Cluster(b2w_schema(), n_nodes=3, partitions_per_node=3,
                          n_buckets=192)
        load_b2w_data(cluster, n_stock=50, n_carts=60, n_checkouts=10, seed=1)
        service = PStoreService(
            cluster, config, _RampPredictor(config.q * 4.5), max_machines=6,
            injector=FaultInjector(crash_during_migration_scenario(seed=7)),
        )
        for _ in range(40):
            service.advance_time(30.0)
    kinds = [e.kind for e in service.events]
    assert "scale-out" in kinds and "node-down" in kinds
    return _bundle_streams(tel)


#: Each run with chronicle kinds it must produce.
RUNS = {
    "simulate": (simulate_run, {"forecast.snapshot", "migration.complete"}),
    "chaos": (chaos_run, {"fault.injected", "node.remove"}),
    "serve-trigger": (serve_trigger_run, {"forecast.accuracy"}),
    "service-crash": (
        service_crash_run,
        {"migration.aborted", "fault.recovered", "service.node-down"},
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_each_fact_has_one_stream(name, tmp_path, monkeypatch):
    run, expected = RUNS[name]
    wall_start = time.time()
    events, chronicle, spans = run(tmp_path, monkeypatch)
    wall_end = time.time()

    event_kinds = {e["kind"] for e in events}
    chronicle_kinds = {r["kind"] for r in chronicle}
    assert expected <= chronicle_kinds
    assert "interval" in event_kinds
    assert not event_kinds & chronicle_kinds
    assert event_kinds <= SAMPLE_KINDS
    # Spans measure wall time: every one lies inside the run's wall window.
    assert spans
    for span in spans:
        assert wall_start <= span["start"] <= span["end"] <= wall_end
