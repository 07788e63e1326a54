"""Differential runner: engines that must agree, compared under load.

The reproduction has three execution paths that model the same system:

* the row-level :class:`~repro.hstore.engine.TransactionExecutor`,
* the analytic :class:`~repro.hstore.engine.QueueingEngine`,
* the vectorized :meth:`~repro.hstore.engine.QueueingEngine.step_block`
  fast path used by :class:`~repro.sim.simulator.ElasticDbSimulator`,

plus a migrator whose fluid-model data fractions must track the bucket
moves it actually commits, and serve's online controller, which must
replay the capacity simulator's provisioning one slot later.  Each
``diff_*`` function runs one pair
through the same workload and compares the results within a declared
tolerance; :func:`run_suite` bundles them into the report behind
``pstore check``.

Fairness notes (why the tolerances can be tight):

* The engine comparison submits a single fixed-cost read procedure at
  exponential interarrival times, so both sides model the same M/M/1
  mixture; the queueing engine runs with transient skew disabled and is
  fed the executor's *measured* per-partition arrival shares.  Saturated
  throughput is compared, but saturated latency is not — under overload
  both queues grow without bound and the instantaneous latencies depend
  on horizon length, not on model agreement.
* The fast path is documented (and tested elsewhere) as bit-identical
  to the scalar loop, so its tolerance is exactly zero.
* Migration accounting is compared at round commits, where the fluid
  fractions describe whole committed transfers; the gap to the bucket
  map is then pure bucket granularity plus plan imbalance.

Failures emit ``check.divergence`` telemetry events (and invariant
failures emit ``invariant.violation``), so a nonzero ``pstore check``
always leaves an auditable trail in the event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..config import default_config
from ..elasticity.manual import ManualStrategy
from ..errors import InvariantViolation, SimulationError
from ..hstore import Cluster, Column, Schema, Table
from ..hstore.engine import QueueingEngine, TransactionExecutor
from ..hstore.txn import StoredProcedure, Transaction, TxnContext
from ..sim.simulator import ElasticDbSimulator
from ..squall.migrator import ClusterMigrator
from ..telemetry import get_telemetry
from . import invariants

#: Fast path vs. scalar loop must match bit for bit.
FAST_PATH_TOL = 0.0
#: Relative throughput tolerance below saturation (both engines should
#: complete essentially everything that is offered).
THROUGHPUT_SUB_TOL = 0.05
#: Relative throughput tolerance at saturation (service-time sampling
#: noise on the executor side).
THROUGHPUT_SAT_TOL = 0.10
#: Relative tolerance on stationary latency percentiles.  Both sides
#: sample the same M/M/1 sojourn distribution, but from finite (and
#: differently batched) sample sets.
LATENCY_TOL = 0.25
#: Absolute tolerance between fluid migration fractions and committed
#: bucket fractions at round boundaries: bucket granularity (1/buckets)
#: times the worst per-node bucket imbalance seen in a balanced plan.
MIGRATION_FRACTION_TOL = 0.05


@dataclass(frozen=True)
class DiffCheck:
    """One comparison: measured divergence against its tolerance."""

    name: str
    delta: float
    tolerance: float
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    """Outcome of one differential run (or the whole suite)."""

    checks: List[DiffCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[DiffCheck]:
        return [check for check in self.checks if not check.ok]

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)

    def describe(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok  " if check.ok else "FAIL"
            line = (
                f"{status} {check.name:<38} "
                f"delta {check.delta:.3e} (tol {check.tolerance:.3e})"
            )
            if check.detail:
                line += f"  {check.detail}"
            lines.append(line)
        return "\n".join(lines)


def _record(
    checks: List[DiffCheck],
    name: str,
    delta: float,
    tolerance: float,
    detail: str = "",
) -> None:
    ok = bool(delta <= tolerance)
    checks.append(DiffCheck(name, float(delta), float(tolerance), ok, detail))
    tel = get_telemetry()
    if tel.enabled and not ok:
        tel.events.emit(
            "check.divergence",
            name=name,
            delta=float(delta),
            tolerance=float(tolerance),
            detail=detail,
        )
        tel.metrics.counter("check.divergences").inc()


def _record_violation(checks: List[DiffCheck], name: str, error: Exception) -> None:
    """An invariant tripped inside a differential run: report it as a
    failed check (the invariant already emitted its own event)."""
    checks.append(
        DiffCheck(name, float("inf"), 0.0, False, f"invariant: {error}")
    )


# ----------------------------------------------------------------------
# Fast path vs. scalar loop
# ----------------------------------------------------------------------


def _sinusoid(n: int, base: float = 500.0, amp: float = 300.0, seed: int = 0) -> np.ndarray:
    t = np.arange(n)
    rng = np.random.default_rng(seed)
    wave = base + amp * np.sin(2 * np.pi * t / max(n, 1))
    return np.maximum(0.0, wave + rng.normal(0.0, 25.0, n))


def diff_fast_path(
    seconds: int = 900, seed: int = 11, perturb: bool = False
) -> CheckReport:
    """Run one trace through the simulator twice — vectorized fast path
    and scalar per-second loop — and compare every output series.

    The fast path's contract is *bit-identical* results, so the
    tolerance is exactly zero.  ``perturb`` deliberately corrupts one
    fast-path output entry to prove the comparison has teeth.
    """
    config = default_config().with_interval(60.0)
    offered = _sinusoid(seconds, seed=seed)
    strategy_actions = [(2, 5), (10, 3)]

    def _run(fast_path: bool):
        sim = ElasticDbSimulator(
            config=config,
            max_machines=8,
            initial_machines=3,
            seed=seed,
            fast_path=fast_path,
        )
        return sim.run(offered, ManualStrategy(strategy_actions))

    fast = _run(True)
    scalar = _run(False)
    if perturb:
        # Inject a one-tick divergence into the fast-path output.
        fast.completed_tps[seconds // 2] += 0.1

    checks: List[DiffCheck] = []
    series = [
        ("machines", fast.machines, scalar.machines),
        ("migrating", fast.migrating.astype(float), scalar.migrating.astype(float)),
        ("completed_tps", fast.completed_tps, scalar.completed_tps),
    ]
    for q in (50.0, 95.0, 99.0):
        series.append(
            (f"p{int(q)}_ms", fast.latency.series(q), scalar.latency.series(q))
        )
    for label, a, b in series:
        delta = float(np.max(np.abs(a - b))) if a.size else 0.0
        _record(checks, f"fast-path.{label}", delta, FAST_PATH_TOL)
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Transaction engine vs. queueing engine
# ----------------------------------------------------------------------


class _ProbeRead(StoredProcedure):
    """Fixed-cost single-key read used for the engine differential.

    ``cost_weight`` is exactly 1.0 so the executor's mean service time is
    ``1 / mu_partition`` — the same rate the analytic engine uses.
    """

    name = "CheckProbeRead"
    read_only = True
    cost_weight = 1.0

    def routing_key(self, params: Mapping[str, Any]) -> Any:
        return params["k"]

    def run(self, ctx: TxnContext, params: Mapping[str, Any]) -> Any:
        return ctx.require("kv", params["k"])["v"]


def _probe_cluster(partitions: int, keys: int) -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(schema, 1, partitions, n_buckets=partitions * 16)
    for i in range(keys):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _run_executor(
    rate: float, duration: float, partitions: int, keys: int, seed: int
):
    """Open-loop Poisson arrivals of :class:`_ProbeRead` transactions.

    Returns (completed_tps, latencies_ms, per-partition arrival shares)
    with completion counted by *finish* time inside the horizon, so a
    saturated run reports the service capacity rather than the offered
    rate.
    """
    cluster = _probe_cluster(partitions, keys)
    executor = TransactionExecutor(cluster, seed=seed)
    rng = np.random.default_rng(seed + 1)
    probe = _ProbeRead()
    arrivals = np.zeros(partitions)
    latencies: List[float] = []
    finished_in_horizon = 0
    now = rng.exponential(1.0 / rate)
    while now < duration:
        key = f"key-{int(rng.integers(0, keys))}"
        result = executor.execute(
            Transaction(probe, {"k": key}, submit_time=now)
        )
        arrivals[result.partition_id] += 1
        latencies.append(result.latency_ms)
        if now + result.latency_ms / 1000.0 <= duration:
            finished_in_horizon += 1
        now += rng.exponential(1.0 / rate)
    completed_tps = finished_in_horizon / duration
    shares = arrivals / arrivals.sum()
    return completed_tps, np.asarray(latencies), shares


def _run_queueing(
    rate: float, duration: float, shares: np.ndarray, seed: int
):
    """The analytic engine on the same offered load and measured shares,
    with transient skew disabled (the executor has no hot-key process)."""
    engine = QueueingEngine(
        n_partitions=shares.size,
        seed=seed,
        skew_sigma=0.0,
        hot_episode_rate=0.0,
        samples_per_tick=512,
    )
    ticks = int(duration)
    completed = np.empty(ticks)
    p50 = np.empty(ticks)
    p95 = np.empty(ticks)
    for i in range(ticks):
        stats = engine.step(1.0, rate, shares)
        completed[i] = stats.completed_tps
        p50[i] = stats.p50_ms
        p95[i] = stats.p95_ms
    return completed, p50, p95


def diff_engines(
    seed: int = 7,
    partitions: int = 2,
    keys: int = 400,
    sub_rate: float = 80.0,
    sub_duration: float = 240.0,
    sat_factor: float = 1.5,
    sat_duration: float = 120.0,
) -> CheckReport:
    """Transaction engine vs. queueing engine on the same Poisson trace.

    Two load levels: one well below saturation (throughput *and*
    stationary latency must agree) and one 50% past it (only throughput
    — the completion rate must pin to the service capacity on both
    sides; overloaded latency depends on horizon length, not model
    agreement).
    """
    checks: List[DiffCheck] = []
    from ..hstore.engine import DEFAULT_MU_PARTITION

    capacity = DEFAULT_MU_PARTITION * partitions

    # --- below saturation ------------------------------------------------
    tput, latencies, shares = _run_executor(
        sub_rate, sub_duration, partitions, keys, seed
    )
    q_completed, q_p50, q_p95 = _run_queueing(sub_rate, sub_duration, shares, seed)
    warmup = int(0.1 * sub_duration)
    q_tput = float(q_completed.mean())
    _record(
        checks,
        "engines.throughput-subsat",
        abs(tput - q_tput) / max(q_tput, 1e-9),
        THROUGHPUT_SUB_TOL,
        f"executor {tput:.1f} vs queueing {q_tput:.1f} tps",
    )
    exec_p50 = float(np.percentile(latencies, 50))
    exec_p95 = float(np.percentile(latencies, 95))
    q_p50_m = float(np.median(q_p50[warmup:]))
    q_p95_m = float(np.median(q_p95[warmup:]))
    _record(
        checks,
        "engines.p50-subsat",
        abs(exec_p50 - q_p50_m) / max(q_p50_m, 1e-9),
        LATENCY_TOL,
        f"executor {exec_p50:.1f} vs queueing {q_p50_m:.1f} ms",
    )
    _record(
        checks,
        "engines.p95-subsat",
        abs(exec_p95 - q_p95_m) / max(q_p95_m, 1e-9),
        LATENCY_TOL,
        f"executor {exec_p95:.1f} vs queueing {q_p95_m:.1f} ms",
    )

    # --- past saturation -------------------------------------------------
    sat_rate = sat_factor * capacity
    tput_sat, _, shares_sat = _run_executor(
        sat_rate, sat_duration, partitions, keys, seed + 100
    )
    q_completed_sat, _, _ = _run_queueing(
        sat_rate, sat_duration, shares_sat, seed + 100
    )
    q_tput_sat = float(q_completed_sat.mean())
    _record(
        checks,
        "engines.throughput-saturated",
        abs(tput_sat - q_tput_sat) / max(q_tput_sat, 1e-9),
        THROUGHPUT_SAT_TOL,
        f"executor {tput_sat:.1f} vs queueing {q_tput_sat:.1f} tps "
        f"(capacity {capacity:.1f})",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Fluid migration accounting vs. committed buckets
# ----------------------------------------------------------------------


def _migration_cluster(nodes: int = 3, ppn: int = 2, buckets: int = 120,
                       rows: int = 3000) -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(schema, nodes, ppn, buckets)
    for i in range(rows):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _drop_one_bucket(cluster: Cluster, migrator: ClusterMigrator) -> int:
    """Corrupt the migration: silently discard the rows of one bucket
    that is scheduled to move (the injection behind ``--inject
    drop-bucket``).  Returns the sacrificed bucket id."""
    for moves in migrator._pair_buckets.values():
        for move in moves:
            bucket = move.bucket
            owner = cluster.partition(cluster.plan.owner(bucket))
            keys = set(cluster._bucket_keys[bucket]["kv"])
            if keys:
                owner.extract_rows("kv", keys)  # rows vanish, index stays
                return bucket
    raise SimulationError("no scheduled bucket with rows to drop")


def diff_migration_accounting(
    target_nodes: int = 5, drop_bucket: bool = False
) -> CheckReport:
    """Scale a row-level cluster and compare, at every round commit, the
    fluid-model data fractions against the bucket map's actual
    per-node fractions; verify rows are conserved end to end.

    ``drop_bucket`` corrupts the move (one scheduled bucket's rows are
    discarded mid-flight, *between* advances, the way a buggy transfer
    would lose them) — end-to-end row conservation must trip, and at
    the expensive tier the bucket-map cross-check flags the orphaned
    index entries.
    """
    checks: List[DiffCheck] = []
    cluster = _migration_cluster()
    migrator = ClusterMigrator(cluster, default_config())
    baseline = invariants.snapshot_row_counts(cluster)
    migrator.start_move(target_nodes)
    active = migrator.active
    assert active is not None
    node_map = dict(active.node_map or {})
    round_seconds = active.round_seconds
    worst = 0.0
    commits = 0
    try:
        while migrator.migrating:
            migrator.advance(round_seconds)
            commits += 1
            if drop_bucket and commits == 1:
                _drop_one_bucket(cluster, migrator)
            if migrator.migrating:
                fluid: Dict[int, float] = {}
                for logical, fraction in enumerate(active.data_fractions()):
                    fluid[node_map.get(logical, logical)] = float(fraction)
                committed = cluster.bucket_fractions_by_node()
                gap = max(
                    abs(fluid.get(node, 0.0) - committed.get(node, 0.0))
                    for node in set(fluid) | set(committed)
                )
                worst = max(worst, gap)
    except InvariantViolation as violation:
        # A runtime invariant (row conservation at a commit, bucket-map
        # agreement at finish) fired inside the migrator itself.
        _record_violation(checks, "migration.invariant", violation)
        return CheckReport(checks)
    _record(
        checks,
        "migration.fluid-vs-buckets",
        worst,
        MIGRATION_FRACTION_TOL,
        f"{commits} commits, {cluster.n_nodes} nodes",
    )
    final = invariants.snapshot_row_counts(cluster)
    _record(
        checks,
        "migration.rows-conserved",
        float(sum(abs(final[t] - baseline[t]) for t in baseline)),
        0.0,
        f"{sum(baseline.values())} rows",
    )
    if invariants.enabled(invariants.EXPENSIVE):
        try:
            invariants.check_bucket_map_agreement(
                cluster, "diff_migration_accounting"
            )
            _record(checks, "migration.bucket-map-agreement", 0.0, 0.0)
        except InvariantViolation as violation:
            _record_violation(checks, "migration.bucket-map-agreement", violation)
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Tensor batch engine vs. serial cells
# ----------------------------------------------------------------------


def diff_tensor(perturb: bool = False) -> CheckReport:
    """Run the tensmoke grid twice — serial per-cell and batched through
    the :class:`~repro.sim.tensor.TensorBatchEngine` — and compare every
    cell's canonical payload.

    The tensor backend's contract is *bit-identical* payloads, so the
    comparison is exact equality of the canonical JSON (the same
    material ``result_hash`` pins).  The grid includes migrating
    strategies, so the batch must evict and re-admit cells mid-run; a
    final check asserts the eviction path was actually exercised.
    ``perturb`` corrupts one tensor payload to prove the comparison has
    teeth.
    """
    from ..config import canonical_json
    from ..experiments import tensmoke
    from ..runner.spec import jsonify
    from ..sim.tensor import TensorBatchEngine

    config = default_config()
    specs = tensmoke.grid()
    serial = {
        spec.label: canonical_json(jsonify(tensmoke.run_cell(spec, config)))
        for spec in specs
    }
    programs = [tensmoke.tensor_cell(spec, config) for spec in specs]
    batch = TensorBatchEngine(programs).run()

    checks: List[DiffCheck] = []
    for spec, program, cell in zip(specs, programs, batch.outcomes):
        if cell.error is not None:
            checks.append(
                DiffCheck(
                    f"tensor.{spec.label}", float("inf"), 0.0, False,
                    f"batch error: {cell.error.splitlines()[-1]}",
                )
            )
            continue
        payload = jsonify(program.finalize(cell.result))
        if perturb and spec is specs[0]:
            payload = dict(payload, __perturbed__=True)
        delta = 0.0 if canonical_json(payload) == serial[spec.label] else 1.0
        _record(
            checks,
            f"tensor.{spec.label}",
            delta,
            FAST_PATH_TOL,
            f"{cell.batched_ticks} batched + {cell.scalar_ticks} scalar "
            f"ticks, {cell.evictions} evictions",
        )
    _record(
        checks,
        "tensor.evictions-exercised",
        0.0 if batch.evictions > 0 else 1.0,
        0.0,
        f"{batch.evictions} evictions over {batch.rounds} rounds",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Serve crash/resume vs. uninterrupted run
# ----------------------------------------------------------------------

#: Report index the crashing serve run dies at — past the drift slot
#: (72), so the checkpoint carries a hot accuracy window, a refit model,
#: and (typically) trigger state, the hardest state to reconstruct.
SERVE_RESUME_KILL_AFTER = 90


def diff_serve_resume(perturb: bool = False) -> CheckReport:
    """Crash a checkpointing serve run mid-stream, resume it, and compare
    against one uninterrupted run of the identical scenario.

    Convergence contract: the resumed run must finish with the same
    summary counters (intervals, violations, moves, trigger activity,
    final machine count) and the same chronicle projection — ``(kind,
    time)`` rows, ``service.*`` markers excluded — as if the crash never
    happened.  Equal interval counts plus an identical projection also
    rule out double-closed intervals: a re-closed slot would show up as
    extra interval records on both axes.  ``perturb`` corrupts one
    projection row to prove the comparison has teeth.
    """
    import tempfile

    from ..experiments.serve import (
        SERVE_SEED,
        SERVE_TRIGGER,
        chronicle_projection,
        run_resume_scenario,
        run_scenario,
    )

    baseline_summary, baseline_chronicle = run_scenario(
        SERVE_SEED, SERVE_TRIGGER
    )
    with tempfile.TemporaryDirectory(prefix="pstore-serve-resume-") as tmp:
        killed, resumed, merged = run_resume_scenario(
            SERVE_SEED,
            SERVE_TRIGGER,
            checkpoint_dir=tmp,
            kill_after=SERVE_RESUME_KILL_AFTER,
        )

    checks: List[DiffCheck] = []
    _record(
        checks,
        "serve-resume.crash-was-partial",
        0.0 if killed["intervals"] < baseline_summary["intervals"] else 1.0,
        0.0,
        f"killed at {killed['intervals']} of "
        f"{baseline_summary['intervals']} intervals",
    )
    _record(
        checks,
        "serve-resume.resumed-from-checkpoint",
        0.0 if resumed.get("resumed") else 1.0,
        0.0,
        f"checkpoint saves: {resumed.get('checkpoint_saves')}",
    )
    for field in (
        "intervals",
        "violations",
        "moves_started",
        "emergencies",
        "trigger_fires",
        "trigger_recoveries",
        "steady_machines",
    ):
        _record(
            checks,
            f"serve-resume.{field}",
            float(abs(resumed[field] - baseline_summary[field])),
            0.0,
            f"baseline={baseline_summary[field]} resumed={resumed[field]}",
        )
    _record(
        checks,
        "serve-resume.mode",
        0.0 if resumed["mode"] == baseline_summary["mode"] else 1.0,
        0.0,
        f"baseline={baseline_summary['mode']} resumed={resumed['mode']}",
    )
    base_proj = chronicle_projection(baseline_chronicle)
    merged_proj = chronicle_projection(merged)
    if perturb and merged_proj:
        merged_proj[-1] = ("__perturbed__", -1.0)
    mismatches = sum(
        1 for a, b in zip(base_proj, merged_proj) if a != b
    ) + abs(len(base_proj) - len(merged_proj))
    _record(
        checks,
        "serve-resume.chronicle-projection",
        float(mismatches),
        0.0,
        f"{len(base_proj)} baseline vs {len(merged_proj)} merged records",
    )
    _record(
        checks,
        "serve-resume.no-duplicate-reports-counted",
        0.0 if resumed["reports"] == baseline_summary["reports"] else 1.0,
        0.0,
        f"baseline={baseline_summary['reports']} resumed={resumed['reports']} "
        f"(duplicates suppressed: {resumed['duplicate_reports']})",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Serve replay vs. the capacity simulator
# ----------------------------------------------------------------------

#: ``(predictor, Q fraction, eval days)`` fig12 season cells replayed by
#: the serve-replay differential.
SERVE_REPLAY_CASES = (
    ("spar", 0.45, 4),
    ("oracle", 0.65, 4),
    ("spar", 0.85, 4),
)


def _migration_rows(records, shift: float = 0.0, until: float = np.inf):
    """``(kind, time + shift)`` of every ``migration.*`` chronicle row
    whose shifted time is at most ``until``."""
    return [
        (rec["kind"], rec["time"] + shift)
        for rec in records
        if rec["kind"].startswith("migration.")
        and rec["time"] + shift <= until
    ]


def diff_serve_replay(
    cases: Sequence = SERVE_REPLAY_CASES, seed: int = 7, perturb: bool = False
) -> CheckReport:
    """Replay fig12 season traces through serve's
    :class:`~repro.serve.controller.OnlineController` and through the
    :class:`~repro.sim.capacity_sim.CapacitySimulator`, and require the
    same provisioning one slot later.

    Both loops see the same fitted predictor and the same history (the
    training window, then one measured slot at a time); serve runs with
    no error trigger and no ``max_machines``.  The simulator decides at
    the start of slot s, after appending its load, and moves during s;
    serve decides at the close of s and moves from s+1.  So serve's
    mid-slot effective capacity and machine series must equal the
    simulator's shifted one slot later, bit for bit; both must start the
    same moves (and emergencies); and serve's ``migration.*`` chronicle
    ``(kind, time)`` rows must equal the simulator's shifted one slot
    later, up to the end of the trace.  ``perturb`` corrupts one serve
    sample to prove the comparison has teeth.
    """
    from ..elasticity import PStoreStrategy
    from ..experiments.fig12 import SATURATION_TPS, season_setup
    from ..serve.controller import OnlineController
    from ..sim.capacity_sim import CapacitySimulator
    from ..telemetry import telemetry_scope

    checks: List[DiffCheck] = []
    for index, (family, q_fraction, n_days) in enumerate(cases):
        setup = season_setup(n_days=n_days, seed=seed)
        config = setup.config.with_q(
            min(q_fraction * SATURATION_TPS, setup.config.q_hat)
        )
        predictor = setup.spar if family == "spar" else setup.oracle
        machines = max(1, math.ceil(float(setup.eval_tps[0]) * 1.3 / config.q))
        slot_seconds = config.interval_seconds
        name = f"serve-replay.{family}@{q_fraction:g}"

        with telemetry_scope() as tel:
            batch = CapacitySimulator(
                config,
                machines,
                history_seed=list(setup.train_tps),
                peak_sigma=0.0,
            ).run(setup.trace, PStoreStrategy(config, predictor))
            batch_rows = _migration_rows(
                tel.chronicle.snapshot(),
                shift=slot_seconds,
                until=setup.eval_tps.size * slot_seconds,
            )

        with telemetry_scope() as tel:
            controller = OnlineController(
                config, predictor, initial_machines=machines
            )
            history = list(setup.train_tps)
            samples = []
            for slot, tps in enumerate(setup.eval_tps):
                history.append(float(tps))
                controller.on_interval(
                    slot, history, (slot + 1) * slot_seconds
                )
                samples.append(controller.slot_capacity)
            serve_rows = _migration_rows(tel.chronicle.snapshot())
        serve_machines = np.array([m for m, _ in samples], dtype=float)
        serve_eff = np.array([e for _, e in samples])
        if perturb and index == 0:
            serve_eff[serve_eff.size // 2] += 1.0

        for label, served, simulated in (
            ("eff_cap", serve_eff, batch.eff_cap_max),
            ("machines", serve_machines, batch.machines),
        ):
            _record(
                checks,
                f"{name}.{label}",
                float(np.max(np.abs(served[1:] - simulated[:-1]))),
                FAST_PATH_TOL,
                f"{served.size - 1} slots shifted by one",
            )
        for label, served, simulated in (
            ("moves_started", controller.moves_started, batch.moves_started),
            ("emergencies", controller.emergencies, batch.emergencies),
        ):
            _record(
                checks,
                f"{name}.{label}",
                float(abs(served - simulated)),
                0.0,
                f"serve={served} sim={simulated}",
            )
        mismatches = sum(
            1 for a, b in zip(serve_rows, batch_rows) if a != b
        ) + abs(len(serve_rows) - len(batch_rows))
        _record(
            checks,
            f"{name}.chronicle-projection",
            float(mismatches),
            0.0,
            f"{len(serve_rows)} serve vs {len(batch_rows)} shifted sim rows",
        )
        steps = np.diff(batch.machines)
        _record(
            checks,
            f"{name}.scale-out-and-in-exercised",
            0.0 if (steps > 0).any() and (steps < 0).any() else 1.0,
            0.0,
            f"machines {batch.machines.min():g}..{batch.machines.max():g}",
        )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

SUITES = (
    "fast-path", "engines", "migration", "tensor", "serve-resume",
    "serve-replay",
)
INJECTIONS = (
    "drop-bucket",
    "perturb-fast-path",
    "perturb-tensor",
    "perturb-serve-resume",
    "perturb-serve-replay",
)


def run_suite(
    suites: Sequence[str] = SUITES,
    seconds: int = 900,
    inject: Optional[str] = None,
) -> CheckReport:
    """Run the selected differential suites and merge their reports.

    ``inject`` deliberately corrupts one path (``drop-bucket`` or
    ``perturb-fast-path``) so callers can verify the harness catches it.
    """
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise SimulationError(f"unknown differential suite(s): {sorted(unknown)}")
    if inject is not None and inject not in INJECTIONS:
        raise SimulationError(f"unknown injection {inject!r}; use {INJECTIONS}")
    report = CheckReport([])
    if "fast-path" in suites:
        report.extend(
            diff_fast_path(seconds=seconds, perturb=inject == "perturb-fast-path")
        )
    if "engines" in suites:
        report.extend(diff_engines())
    if "migration" in suites:
        report.extend(
            diff_migration_accounting(drop_bucket=inject == "drop-bucket")
        )
    if "tensor" in suites:
        report.extend(diff_tensor(perturb=inject == "perturb-tensor"))
    if "serve-resume" in suites:
        report.extend(
            diff_serve_resume(perturb=inject == "perturb-serve-resume")
        )
    if "serve-replay" in suites:
        report.extend(
            diff_serve_replay(perturb=inject == "perturb-serve-replay")
        )
    return report
