"""Tests for the sweep executor, result cache, and RunSpec hashing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import default_config
from repro.elasticity.base import StrategySpec
from repro.errors import ConfigurationError, StrategySpecError, SweepError
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    list_experiments,
)
from repro.runner import (
    ResultCache,
    RunSpec,
    SweepExecutor,
    jsonify,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def smoke_specs(n_days=1):
    return get_experiment("smoke").make_grid(
        strategies=("static:4", "static:6"), seeds=(7, 11), n_days=n_days
    )


class TestRunSpec:
    def test_label(self):
        spec = RunSpec(experiment="fig09", cell="p-store", seed=21)
        assert spec.label == "fig09/p-store#21"

    def test_overrides_sorted_and_canonical(self):
        a = RunSpec(
            experiment="x", cell="c",
            overrides=(("b", 2), ("a", 1)),
        )
        b = RunSpec(
            experiment="x", cell="c",
            overrides=(("a", 1), ("b", 2)),
        )
        assert a == b
        assert a.canonical() == b.canonical()

    def test_round_trip(self):
        spec = RunSpec(
            experiment="fig09", cell="reactive",
            strategy="reactive:patience=10", seed=3,
            overrides=(("eval_days", 2),),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_bad_strategy_rejected_eagerly(self):
        with pytest.raises(StrategySpecError):
            RunSpec(experiment="x", cell="c", strategy="quantum")

    def test_unjsonable_override_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(experiment="x", cell="c", overrides=(("f", object()),))

    def test_jsonify_numpy(self):
        import numpy as np

        assert jsonify(np.int64(3)) == 3
        assert jsonify(np.float64(0.5)) == 0.5
        assert jsonify(np.array([1, 2])) == [1, 2]


class TestCacheKey:
    def test_same_spec_same_key(self):
        config_hash = default_config().config_hash()
        a = RunSpec(experiment="x", cell="c", seed=1).cache_key(config_hash)
        b = RunSpec(experiment="x", cell="c", seed=1).cache_key(config_hash)
        assert a == b

    def test_key_varies_with_spec_and_config(self):
        h = default_config().config_hash()
        base = RunSpec(experiment="x", cell="c", seed=1)
        assert base.cache_key(h) != RunSpec(
            experiment="x", cell="c", seed=2
        ).cache_key(h)
        assert base.cache_key(h) != base.cache_key("other-config")

    def test_key_stable_across_processes(self):
        """The content-addressed key must not depend on process state
        (hash randomisation, dict order)."""
        code = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.runner import RunSpec; "
            "from repro.config import default_config; "
            "spec = RunSpec(experiment='fig09', cell='p-store', "
            "strategy='p-store', seed=21, overrides=(('eval_days', 3),)); "
            "print(spec.cache_key(default_config().config_hash()))"
            % SRC
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(keys) == 1
        here = RunSpec(
            experiment="fig09", cell="p-store", strategy="p-store", seed=21,
            overrides=(("eval_days", 3),),
        ).cache_key(default_config().config_hash())
        assert keys == {here}


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("ab" * 32) is None
        envelope = {
            "schema": "pstore.sweep-cell/v1",
            "key": "ab" * 32,
            "payload": {"x": 1},
        }
        cache.store("ab" * 32, envelope)
        assert cache.load("ab" * 32)["payload"] == {"x": 1}
        assert ("ab" * 32) in cache
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(key) is None

    def test_wrong_key_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.store(
            key,
            {"schema": "pstore.sweep-cell/v1", "key": "other", "payload": {}},
        )
        assert cache.load(key) is None


class TestSweepExecutor:
    def test_serial_executes_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        report = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert report.executed == len(specs)
        assert report.hits == 0
        rerun = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert rerun.hits == len(specs)
        assert rerun.executed == 0
        assert rerun.result_hash == report.result_hash

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        specs = smoke_specs()
        serial = SweepExecutor(
            default_config(), ResultCache(tmp_path / "a"), jobs=1
        ).run(specs)
        parallel = SweepExecutor(
            default_config(), ResultCache(tmp_path / "b"), jobs=2
        ).run(specs)
        assert parallel.result_hash == serial.result_hash
        by_label_serial = {c.spec.label: c.payload for c in serial.cells}
        by_label_parallel = {c.spec.label: c.payload for c in parallel.cells}
        assert by_label_serial == by_label_parallel

    def test_chaos_cells_parallel_bit_identical(self, tmp_path):
        specs = get_experiment("chaos").make_grid(eval_days=1)
        serial = SweepExecutor(
            default_config(), ResultCache(tmp_path / "a"), jobs=1
        ).run(specs)
        parallel = SweepExecutor(
            default_config(), ResultCache(tmp_path / "b"), jobs=2
        ).run(specs)
        assert parallel.result_hash == serial.result_hash
        payload = {c.spec.cell: c.payload for c in serial.cells}
        assert payload["p-store"]["recovery"]["injected"] >= 1
        assert "recovery" not in payload["baseline"]

    def test_failed_cell_raises_but_persists_completed(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = smoke_specs()
        bad = RunSpec(
            experiment="smoke", cell="boom", strategy="static:4", seed=7,
            overrides=(("explode", True),),
        )
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor(default_config(), cache, jobs=1).run(good + [bad])
        assert "boom" in str(excinfo.value)
        # The good cells were persisted before the failure surfaced:
        # a resume run serves them from cache.
        resumed = SweepExecutor(default_config(), cache, jobs=1).run(good)
        assert resumed.hits == len(good)

    def test_force_re_executes(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        SweepExecutor(default_config(), cache, jobs=1).run(specs)
        forced = SweepExecutor(default_config(), cache, jobs=1).run(
            specs, force=True
        )
        assert forced.hits == 0
        assert forced.executed == len(specs)

    def test_config_change_invalidates_cache(self, tmp_path):
        import dataclasses

        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        SweepExecutor(default_config(), cache, jobs=1).run(specs)
        bumped = dataclasses.replace(default_config(), q=300.0)
        report = SweepExecutor(bumped, cache, jobs=1).run(specs)
        assert report.hits == 0

    def test_manifest_and_events(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = smoke_specs()
        report = SweepExecutor(
            default_config(), cache, jobs=1, record_events=True
        ).run(specs)
        paths = report.write_manifest(tmp_path / "out")
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["schema"] == "pstore.sweep/v1"
        assert manifest["n_cells"] == len(specs)
        assert manifest["result_hash"] == report.result_hash
        lines = Path(paths["events"]).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "pstore.events/v1"

    def test_duplicate_keys_executed_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        report = SweepExecutor(default_config(), cache, jobs=1).run(
            specs + specs
        )
        assert len(report.cells) == 2 * len(specs)
        assert report.executed == len(specs)
        assert report.hits == len(specs)


def _probe_cell(spec, config):
    """Cell runner that reports whether it ran under live telemetry."""
    from repro.telemetry import get_telemetry

    return {"telemetry_enabled": get_telemetry().enabled}


def _register_probe():
    from repro.experiments.registry import ExperimentDef, register

    register(
        ExperimentDef(
            name="telemetry-probe",
            title="telemetry probe",
            module=__name__,
            run_cell="_probe_cell",
        )
    )


class TestCellTelemetry:
    """Cells swept without ``record_events`` run with telemetry off."""

    def probe_specs(self):
        return [
            RunSpec(experiment="telemetry-probe", cell=f"c{seed}", seed=seed)
            for seed in (1, 2)
        ]

    @pytest.fixture
    def probe(self, monkeypatch):
        from repro.experiments import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        _register_probe()

    def test_serial_cell_sees_null_telemetry(self, probe, tmp_path):
        report = SweepExecutor(
            default_config(), ResultCache(tmp_path), jobs=1, backend="serial"
        ).run(self.probe_specs())
        assert [c.payload["telemetry_enabled"] for c in report.cells] == [
            False, False,
        ]

    def test_process_worker_sees_null_telemetry(self, probe):
        import multiprocessing as mp

        from repro.runner.executor import _execute_cell

        tasks = [
            (i, spec.to_dict(), default_config().to_dict(), False)
            for i, spec in enumerate(self.probe_specs())
        ]
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=1, initializer=_register_probe) as pool:
            results = pool.map_async(_execute_cell, tasks).get(timeout=120)
        assert [r[-1] for r in results] == [None, None]
        assert [r[1]["telemetry_enabled"] for r in results] == [False, False]

    def test_tensor_builder_sees_null_telemetry(self, monkeypatch, tmp_path):
        from repro.experiments import registry, tensmoke
        from repro.telemetry import get_telemetry

        seen = []

        def builder(spec, config):
            seen.append(get_telemetry().enabled)
            return tensmoke.tensor_cell(spec, config)

        monkeypatch.setattr(tensmoke, "probe_tensor_cell", builder,
                            raising=False)
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        registry.register(
            registry.ExperimentDef(
                name="tensmoke", title="tensmoke", module=tensmoke.__name__,
                grid="grid", run_cell="run_cell",
                tensor_cell="probe_tensor_cell",
            )
        )
        specs = tensmoke.grid(strategies=("static:4",), seeds=(7, 11))
        SweepExecutor(
            default_config(), ResultCache(tmp_path), backend="tensor"
        ).run(specs)
        assert seen == [False, False]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_result_hash_independent_of_record_events(self, tmp_path, jobs):
        specs = smoke_specs()
        quiet, recorded = (
            SweepExecutor(
                default_config(), ResultCache(tmp_path / str(flag)),
                jobs=jobs, record_events=flag,
            ).run(specs)
            for flag in (False, True)
        )
        assert quiet.result_hash == recorded.result_hash


class TestRegistry:
    def test_every_experiment_registered(self):
        names = experiment_names()
        for expected in ("fig01", "fig09", "fig12", "chaos", "smoke",
                         "tab02", "ablations", "sec5"):
            assert expected in names

    def test_grids_are_runspecs(self):
        for defn in list_experiments():
            if not defn.has_grid:
                continue
            grid = defn.make_grid()
            assert grid, defn.name
            for spec in grid:
                assert isinstance(spec, RunSpec)

    def test_derived_experiments_reuse_fig09_cells(self):
        fig09 = {s.cache_key("h") for s in get_experiment("fig09").make_grid()}
        tab02 = {s.cache_key("h") for s in get_experiment("tab02").make_grid()}
        fig10 = {s.cache_key("h") for s in get_experiment("fig10").make_grid()}
        assert tab02 == fig09
        assert fig10 == fig09

    def test_unknown_experiment_raises(self):
        from repro.errors import UnknownExperimentError

        with pytest.raises(UnknownExperimentError):
            get_experiment("fig99")


class TestStrategySpecGrammar:
    def test_parse_and_canonical(self):
        spec = StrategySpec.parse("reactive:patience=10")
        assert spec.kind == "reactive"
        assert spec.param("patience") == 10
        assert spec.canonical() == "reactive:patience=10"

    def test_positional_static_and_simple(self):
        assert StrategySpec.parse("static:6").param("machines") == 6
        simple = StrategySpec.parse("simple:7/3")
        assert simple.param("day") == 7
        assert simple.param("night") == 3

    def test_round_trip_dict(self):
        spec = StrategySpec.parse("static:6")
        assert StrategySpec.from_dict(spec.to_dict()) == spec

    def test_bad_specs_raise_single_typed_error(self):
        for bad in ("quantum", "static:abc", "simple:6", "reactive:magic=1",
                    "", "static:"):
            with pytest.raises(StrategySpecError):
                StrategySpec.parse(bad)

    def test_build_static(self):
        from repro.elasticity import StaticStrategy

        built = StrategySpec.parse("static:6").build(default_config())
        assert isinstance(built, StaticStrategy)
        assert built.name == "static-6"

    def test_pstore_requires_predictor(self):
        with pytest.raises(StrategySpecError):
            StrategySpec.parse("p-store").build(default_config())
