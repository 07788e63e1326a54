"""Full elastic-DBMS simulation: load, latency, and live migration.

:class:`ElasticDbSimulator` reproduces the paper's benchmark experiments
(Figures 7-11): it ticks second by second, feeding the offered load into
the calibrated per-partition queueing engine, consulting the provisioning
strategy once per planner interval, and executing reconfigurations with
the three-case parallel schedule — including just-in-time machine
allocation, the shifting data distribution (which sets each node's load
share), and the CPU interference of chunked data movement.

Outputs are per-second latency percentiles, throughput, and machine
allocation — the same series the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..check import invariants
from ..config import DEFAULT_CHUNK_KB, PStoreConfig
from ..elasticity.base import ProvisioningStrategy
from ..errors import SimulationError
from ..faults.injector import injector_from_config
from ..faults.retry import RetryPolicy
from ..hstore.engine import (
    MigrationInterference,
    QueueingEngine,
)
from ..hstore.latency import PercentileSeries
from ..squall.move import MoveTracker
from ..telemetry import get_telemetry


@dataclass
class BlockRequest:
    """One quiescent stretch the driver should advance in a batch.

    Yielded by :meth:`ElasticDbSimulator.drive`; the driver answers with
    the :class:`~repro.hstore.engine.BlockStats` of
    ``engine.step_block(1.0, offered, shares)``.  ``start``/``end`` are
    tick indices into the run's offered-load array (``end`` exclusive).
    """

    start: int
    end: int
    shares: np.ndarray
    offered: np.ndarray

    @property
    def ticks(self) -> int:
        return self.end - self.start


@dataclass
class SimulationResult:
    """Per-second series plus summary statistics of one benchmark run."""

    strategy_name: str
    latency: PercentileSeries
    offered_tps: np.ndarray
    completed_tps: np.ndarray
    machines: np.ndarray
    migrating: np.ndarray
    emergencies: int
    moves_started: int
    sla_ms: float

    @property
    def seconds(self) -> int:
        return int(self.offered_tps.size)

    @property
    def average_machines(self) -> float:
        return float(self.machines.mean())

    def sla_violations(self) -> Dict[float, int]:
        """Seconds above the SLA per tracked percentile (Table 2)."""
        return self.latency.violation_summary(self.sla_ms)

    def summary(self) -> str:
        violations = self.sla_violations()
        parts = ", ".join(
            f"p{int(q)}={violations[q]}" for q in sorted(violations)
        )
        return (
            f"{self.strategy_name}: SLA violations [{parts}] "
            f"avg machines {self.average_machines:.2f} "
            f"({self.moves_started} moves, {self.emergencies} emergency)"
        )


class ElasticDbSimulator:
    """Second-granularity elastic DBMS simulation.

    Parameters
    ----------
    config:
        model parameters; ``interval_seconds`` sets how often the
        strategy is consulted.
    max_machines:
        machines physically available (the paper's cluster has 10).
    initial_machines:
        active machines at t=0.
    chunk_kb:
        migration chunk size (Fig. 8 sweeps this).
    seed, engine_kwargs:
        forwarded to the queueing engine (skew/noise processes).
    injector:
        optional :class:`~repro.faults.FaultInjector`; defaults to the
        one described by ``config.faults`` (None when disabled, keeping
        fault-free runs bit-identical to pre-chaos builds).  Forecast
        drift is applied inside the strategy, so pass the same injector
        to :class:`~repro.elasticity.predictive.PStoreStrategy` when a
        scenario includes it.
    fast_path:
        advance quiescent stretches (no migration, no pending fault
        activity, constant machine count, away from planner boundaries)
        with the vectorized :meth:`QueueingEngine.step_block` kernel.
        Results are bit-identical to the scalar per-second loop
        (``fast_path=False``); the flag exists for differential testing
        and benchmarking.
    """

    #: Shortest quiescent stretch worth dispatching to the block kernel;
    #: below this the batched call's fixed overhead beats its savings.
    MIN_BLOCK_TICKS = 4

    def __init__(
        self,
        config: PStoreConfig,
        max_machines: int = 10,
        initial_machines: int = 4,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        seed: int = 1,
        engine_kwargs: Optional[dict] = None,
        telemetry=None,
        injector=None,
        fast_path: bool = True,
    ):
        if not 1 <= initial_machines <= max_machines:
            raise SimulationError(
                f"need 1 <= initial_machines <= max_machines "
                f"(got {initial_machines}, {max_machines})"
            )
        self.config = config
        self.max_machines = max_machines
        self.initial_machines = initial_machines
        self.chunk_kb = chunk_kb
        self.fast_path = fast_path
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._injector = (
            injector
            if injector is not None
            else injector_from_config(config, telemetry=telemetry)
        )
        p = config.partitions_per_node
        self.engine = QueueingEngine(
            n_partitions=max_machines * p,
            seed=seed,
            telemetry=self._telemetry,
            **(engine_kwargs or {}),
        )

    @property
    def injector(self):
        """The attached fault injector (None on fault-free runs)."""
        return self._injector

    # ------------------------------------------------------------------

    def run(
        self,
        offered_tps: Sequence[float],
        strategy: ProvisioningStrategy,
        history_seed_tps: Sequence[float] = (),
    ) -> SimulationResult:
        """Simulate ``len(offered_tps)`` seconds of the benchmark.

        ``offered_tps[t]`` is the aggregate offered load during second
        ``t``.  ``history_seed_tps`` pre-populates the strategy's
        per-interval load history (one value per planner interval) so
        predictive strategies start with enough context.

        Implemented as a pump over :meth:`drive`: every
        :class:`BlockRequest` the generator yields is answered with this
        simulator's own engine — the serial execution the tensor driver
        (:mod:`repro.sim.tensor`) must match bit-for-bit.
        """
        gen = self.drive(offered_tps, strategy, history_seed_tps)
        block = None
        while True:
            try:
                request = gen.send(block)
            except StopIteration as stop:
                return stop.value
            block = self.engine.step_block(
                1.0, request.offered, request.shares
            )

    def drive(
        self,
        offered_tps: Sequence[float],
        strategy: ProvisioningStrategy,
        history_seed_tps: Sequence[float] = (),
    ):
        """The simulation as a resumable block-request generator.

        Yields a :class:`BlockRequest` for every quiescent stretch the
        fast path would batch, and expects ``send(block_stats)`` with the
        result of ``engine.step_block(1.0, request.offered,
        request.shares)``.  All non-quiescent work — migration rounds,
        fault windows, planner boundaries — runs *inside* the generator
        on the scalar engine between yields, which is exactly the
        eviction/re-admission semantic of the cross-cell tensor driver:
        a cell is "evicted" while its generator advances scalar ticks
        internally and "re-admitted" at its next yield.  Returns the
        :class:`SimulationResult` via ``StopIteration.value``.
        """
        config = self.config
        offered = np.asarray(offered_tps, dtype=float)
        if offered.ndim != 1 or offered.size == 0:
            raise SimulationError("offered_tps must be a non-empty 1-D array")
        if np.any(offered < 0):
            raise SimulationError("offered load cannot be negative")
        interval = int(round(config.interval_seconds))
        if interval < 1:
            raise SimulationError("interval_seconds must be >= 1 second")

        p = config.partitions_per_node
        total_partitions = self.max_machines * p
        active: List[int] = list(range(self.initial_machines))
        machines = self.initial_machines
        strategy.reset(machines)

        tel = self._telemetry
        move = MoveTracker(config, tel)
        migration = None
        retiring: List[int] = []

        history: List[float] = [float(v) for v in history_seed_tps]
        interval_accumulator: List[float] = []

        n = offered.size
        engine_time_start = self.engine.time
        out_machines = np.empty(n)
        out_migrating = np.zeros(n, dtype=bool)
        out_completed = np.empty(n)
        p50 = np.empty(n)
        p95 = np.empty(n)
        p99 = np.empty(n)
        recording = tel.enabled
        chron = tel.chronicle
        # Per-interval accounting feeding the chronicle's sla.violation
        # records: seconds above the SLA, worst p99, and how many of the
        # interval's seconds were spent migrating / under fault activity.
        iv_viol = 0
        iv_viol_p99 = 0.0
        iv_migr = 0
        iv_fault = 0

        # Fault-injection state (inert on fault-free runs).
        injector = self._injector
        retry = RetryPolicy.from_config(config.faults)
        retry_rng = (
            np.random.default_rng(injector.seed + 1)
            if injector is not None
            else None
        )
        crashed: List[int] = []
        pending_recovery: List = []
        stall_watch = None
        stall_attempts = 0
        next_retry_at = 0.0
        resend_seconds = 0.0
        resend_records: List = []

        t = 0
        while t < n:
            # ---------------- fault injection --------------------------
            if injector is not None:
                injector.advance(float(t))
                for record in injector.take_new_crashes():
                    if len(active) <= 1:
                        # The last machine cannot be killed.
                        injector.mark_detected(record, float(t))
                        injector.mark_recovered(record, float(t))
                        continue
                    if migration is not None:
                        move.abort(float(t), "node crash")
                        migration = None
                        retiring = []
                        machines = len(active)
                        resend_seconds = 0.0
                        resend_records = []
                        stall_watch = None
                        strategy.notify_move_finished(machines)
                    victim = injector.resolve_crash_node(record, active)
                    injector.mark_detected(record, float(t))
                    active.remove(victim)
                    crashed.append(victim)
                    machines = len(active)
                    pending_recovery.append(record)
                    if recording:
                        tel.events.emit(
                            "sim.node-down",
                            time=float(t),
                            node=victim,
                            machines=machines,
                        )
                        chron.record(
                            "node.remove",
                            time=float(t),
                            parent=chron.last("fault.injected"),
                            node=victim,
                            machines=machines,
                            reason="crash",
                        )
            # ---------------- vectorized quiescent fast path -----------
            # A stretch with no migration, no upcoming fault activity,
            # and no planner boundary has constant shares, so the whole
            # span collapses into one batched engine call that is
            # bit-identical to the scalar per-second ticks it replaces.
            if self.fast_path and migration is None:
                block_end = self._quiescent_until(
                    t, n, interval, len(interval_accumulator), injector
                )
                if block_end - t >= self.MIN_BLOCK_TICKS:
                    shares = np.zeros(total_partitions)
                    for machine in active:
                        shares[machine * p : (machine + 1) * p] = 1.0 / (
                            machines * p
                        )
                    block = yield BlockRequest(
                        t, block_end, shares, offered[t:block_end]
                    )
                    out_machines[t:block_end] = machines
                    out_completed[t:block_end] = block.completed_tps
                    p50[t:block_end] = block.p50_ms
                    p95[t:block_end] = block.p95_ms
                    p99[t:block_end] = block.p99_ms
                    interval_accumulator.extend(offered[t:block_end].tolist())
                    if recording:
                        metrics = tel.metrics
                        for i in range(t, block_end):
                            metrics.histogram("sim.latency_p50_ms").observe(
                                float(p50[i])
                            )
                            metrics.histogram("sim.latency_p95_ms").observe(
                                float(p95[i])
                            )
                            metrics.histogram("sim.latency_p99_ms").observe(
                                float(p99[i])
                            )
                            if p99[i] > config.sla_latency_ms:
                                metrics.counter("sim.sla_violation_seconds").inc()
                                iv_viol += 1
                                iv_viol_p99 = max(iv_viol_p99, float(p99[i]))
                        if pending_recovery:
                            iv_fault += block_end - t
                    t = block_end
                    continue

            # ---------------- planning (per interval boundary) --------
            interval_accumulator.append(float(offered[t]))
            if len(interval_accumulator) == interval:
                mean_tps = float(np.mean(interval_accumulator))
                history.append(mean_tps)
                interval_accumulator.clear()
                if recording:
                    tel.events.emit(
                        "interval", time=float(t + 1),
                        slot=len(history) - 1, tps=mean_tps,
                    )
                    tel.events.emit(
                        "machines", time=float(t + 1),
                        slot=len(history) - 1, machines=int(machines),
                        migrating=migration is not None,
                    )
                    # Close the forecast-accuracy loop for this slot and,
                    # if the interval had SLA violations, chronicle them
                    # with the most plausible causal parent: an active
                    # fault beats migration overhead beats the forecast
                    # that sized the cluster.
                    harvest = tel.accuracy.observe(
                        len(history) - 1, mean_tps, time=float(t + 1)
                    )
                    expected = harvest[0] if harvest else None
                    if iv_viol:
                        if iv_fault and chron.last("fault.injected"):
                            parent = chron.last("fault.injected")
                        elif iv_migr and move.record_id:
                            parent = move.record_id
                        elif expected is not None:
                            parent = expected.get("snapshot_id")
                        else:
                            parent = chron.last("forecast.snapshot")
                        chron.record(
                            "sla.violation",
                            time=float(t + 1),
                            parent=parent,
                            slot=len(history) - 1,
                            seconds=iv_viol,
                            p99_max_ms=iv_viol_p99,
                            measured_tps=mean_tps,
                            machines=int(machines),
                            migrating_seconds=iv_migr,
                            fault_seconds=iv_fault,
                            predicted_tps=(
                                expected.get("predicted") if expected else None
                            ),
                            inflated_tps=(
                                expected.get("inflated") if expected else None
                            ),
                        )
                    iv_viol = 0
                    iv_viol_p99 = 0.0
                    iv_migr = 0
                    iv_fault = 0
                if migration is None:
                    slot = len(history) - 1
                    decision = strategy.decide(slot, history, machines)
                    target = decision.target_machines
                    if crashed and decision.acts and target is not None:
                        # Dead machines shrink the physical pool.
                        target = min(target, self.max_machines - len(crashed))
                    if (
                        decision.acts
                        and target != machines
                        and 1 <= target <= self.max_machines - len(crashed)
                    ):
                        node_map, retiring = self._place_move(
                            active, machines, target, excluded=crashed,
                        )
                        migration = move.start(
                            machines, target, decision, float(t + 1), slot,
                            chunk_kb=self.chunk_kb, node_map=node_map,
                        )
                        if recording and target > machines:
                            chron.record(
                                "node.add",
                                time=float(t + 1),
                                parent=move.record_id,
                                nodes=list(active[-(target - machines):]),
                            )
                        strategy.notify_move_started(target)
                        if injector is not None:
                            injector.notify_migration_started(float(t + 1))
                if migration is None and pending_recovery:
                    # A quiet planning boundary with the survivors: the
                    # controller saw the smaller cluster and needed no
                    # move (or its replacement move completed) — the
                    # allocation is feasible again.
                    for record in pending_recovery:
                        injector.mark_recovered(record, float(t + 1))
                    pending_recovery = []

            # ---------------- capacity state for this second ----------
            if migration is not None:
                fractions = migration.data_fractions()
                node_map = migration.node_map or {}
                shares = np.zeros(total_partitions)
                for logical, fraction in enumerate(fractions):
                    machine = node_map.get(logical, logical)
                    shares[machine * p : (machine + 1) * p] = fraction / p
                busy_machines = migration.physical_nodes(
                    migration.migrating_machines()
                )
                interference = self._interference(
                    total_partitions, busy_machines, move.rate_kbps
                )
                out_machines[t] = migration.machines_allocated()
                out_migrating[t] = True
            else:
                shares = np.zeros(total_partitions)
                for machine in active:
                    shares[machine * p : (machine + 1) * p] = 1.0 / (
                        machines * p
                    )
                interference = None
                out_machines[t] = machines

            capacity = None
            if injector is not None and injector.any_slowdown_active:
                machine_caps = injector.capacity_multipliers(
                    self.max_machines, float(t)
                )
                capacity = np.repeat(machine_caps, p)
            stats = self.engine.step(
                1.0, float(offered[t]), shares, interference,
                capacity_multipliers=capacity,
            )
            out_completed[t] = stats.completed_tps
            p50[t] = stats.p50_ms
            p95[t] = stats.p95_ms
            p99[t] = stats.p99_ms
            if recording:
                metrics = tel.metrics
                metrics.histogram("sim.latency_p50_ms").observe(stats.p50_ms)
                metrics.histogram("sim.latency_p95_ms").observe(stats.p95_ms)
                metrics.histogram("sim.latency_p99_ms").observe(stats.p99_ms)
                if stats.p99_ms > config.sla_latency_ms:
                    metrics.counter("sim.sla_violation_seconds").inc()
                    iv_viol += 1
                    iv_viol_p99 = max(iv_viol_p99, float(stats.p99_ms))
                if migration is not None:
                    iv_migr += 1
                if (
                    pending_recovery
                    or stall_watch is not None
                    or resend_seconds > 1e-9
                    or (injector is not None and injector.any_slowdown_active)
                ):
                    iv_fault += 1

            # ---------------- migration progress -----------------------
            if migration is not None:
                now = float(t + 1)
                stall = (
                    injector.stall_record(now)
                    if injector is not None and not migration.done
                    else None
                )
                if stall is not None:
                    # Wedged transfer: no progress this second.  The
                    # watchdog detects after the retry timeout and logs
                    # one re-drive per backoff interval.
                    if stall_watch is not stall:
                        stall_watch = stall
                        stall_attempts = 0
                        next_retry_at = (
                            stall.injected_at + retry.transfer_timeout_seconds
                        )
                    while (
                        now + 1e-9 >= next_retry_at
                        and retry.should_retry(stall_attempts + 1)
                    ):
                        if stall_attempts == 0:
                            injector.mark_detected(stall, next_retry_at)
                        stall_attempts += 1
                        backoff = retry.backoff_seconds(
                            stall_attempts, retry_rng
                        )
                        injector.mark_retry(stall, next_retry_at, backoff)
                        next_retry_at += backoff
                elif resend_seconds > 0.0:
                    # Paying for a corrupted transfer's re-send.
                    stall_watch = None
                    resend_seconds = max(0.0, resend_seconds - 1.0)
                    if resend_seconds <= 1e-9:
                        for record in resend_records:
                            injector.mark_recovered(record, now)
                        resend_records = []
                else:
                    stall_watch = None
                    completed_rounds = migration.advance(1.0)
                    if injector is not None:
                        for _ in completed_rounds:
                            corruption = injector.take_corruption()
                            if corruption is None:
                                continue
                            injector.mark_detected(corruption, now)
                            backoff = retry.backoff_seconds(1, retry_rng)
                            injector.mark_retry(corruption, now, backoff)
                            resend_seconds += migration.round_seconds + backoff
                            resend_records.append(corruption)
                if migration.done and resend_seconds <= 1e-9:
                    retired = list(retiring)
                    if retiring:
                        for machine in retiring:
                            active.remove(machine)
                        retiring = []
                    if recording and retired:
                        chron.record(
                            "node.remove",
                            time=now,
                            parent=move.record_id,
                            nodes=retired,
                            reason="scale-in",
                        )
                    machines = move.complete(now)
                    migration = None
                    strategy.notify_move_finished(machines)

            t += 1

        if invariants.enabled(invariants.CHEAP):
            # Every tick must pass through the engine exactly once — a
            # fast-path block dropping or double-counting ticks shows up
            # here no matter which branch mix the run took.
            invariants.check_time_accounting(
                self.engine.time - engine_time_start, float(n),
                "ElasticDbSimulator.run",
            )
        latency = PercentileSeries(
            seconds=np.arange(n),
            percentiles={50.0: p50, 95.0: p95, 99.0: p99},
            throughput=out_completed,
        )
        return SimulationResult(
            strategy_name=strategy.name,
            latency=latency,
            offered_tps=offered.copy(),
            completed_tps=out_completed,
            machines=out_machines,
            migrating=out_migrating,
            emergencies=move.emergencies,
            moves_started=move.moves_started,
            sla_ms=config.sla_latency_ms,
        )

    # ------------------------------------------------------------------

    def _quiescent_until(
        self,
        t: int,
        n: int,
        interval: int,
        accumulated: int,
        injector,
    ) -> int:
        """End (exclusive) of the quiescent stretch starting at tick ``t``.

        The stretch stops at the next planner-interval boundary tick
        (where the strategy is consulted and shares may change), at the
        end of the trace, and — when a fault injector is attached — at
        the tick where its next scheduled firing or window expiry would
        be observed.  An active node slowdown disables the fast path
        entirely (per-tick capacity multipliers apply).
        """
        boundary = t + (interval - accumulated - 1)
        end = min(n, boundary)
        if injector is not None:
            if injector.any_slowdown_active:
                return t
            horizon = injector.seconds_to_next_change(float(t))
            if math.isfinite(horizon):
                # The injector fires an event at absolute time ``tau``
                # on the first tick s with tau <= s + 1e-9; every tick
                # strictly before that must stay in the block so the
                # scalar path observes the event at the same tick.
                end = min(end, int(math.floor(t + horizon - 1e-9)) + 1)
        return max(end, t)

    def _place_move(
        self, active: List[int], before: int, after: int,
        excluded: Sequence[int] = (),
    ):
        """The move's logical->physical machine map and retiring nodes.

        Scale-out activates the lowest inactive machine indices; scale-in
        retires the highest active ones (drained just-in-time by the
        reversed schedule).  ``excluded`` machines (crashed) are never
        re-activated.
        """
        if after > before:
            inactive = [
                m for m in range(self.max_machines)
                if m not in active and m not in excluded
            ]
            newcomers = inactive[: after - before]
            if len(newcomers) < after - before:
                raise SimulationError(
                    f"cannot scale to {after}: only "
                    f"{len(active) + len(newcomers)} machines exist"
                )
            node_map = {i: m for i, m in enumerate(sorted(active) + newcomers)}
            active.extend(newcomers)
            retiring: List[int] = []
        else:
            ordered = sorted(active)
            survivors = ordered[:after]
            retiring = ordered[after:]
            node_map = {
                i: m for i, m in enumerate(survivors + retiring)
            }
        return node_map, retiring

    def _interference(
        self,
        total_partitions: int,
        busy_machines,
        rate_kbps: float,
    ) -> MigrationInterference:
        p = self.config.partitions_per_node
        partitions: List[int] = []
        for machine in busy_machines:
            partitions.extend(range(machine * p, (machine + 1) * p))
        return MigrationInterference.for_rate(
            total_partitions,
            partitions,
            rate_kbps=rate_kbps,
            chunk_kb=self.chunk_kb,
        )
