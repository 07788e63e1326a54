"""Simulated-time execution of reconfigurations (the Squall role).

:class:`ActiveMigration` advances one reconfiguration through its
schedule in simulated time, tracking per-machine data fractions, the
just-in-time machine allocation, and which machines are busy migrating —
everything the queueing engine and the capacity accounting need.

:class:`ClusterMigrator` binds migrations to a row-level
:class:`~repro.hstore.cluster.Cluster`: it computes the bucket-level
reconfiguration plan, and as each machine-pair transfer completes it
commits the corresponding bucket moves so the rows physically relocate.

When a :class:`~repro.faults.FaultInjector` is attached, the migrator
also runs the failure-recovery machinery: a stall watchdog that detects
wedged transfers after the :class:`~repro.faults.RetryPolicy` timeout
and re-drives them with exponential backoff, corrupted-transfer
re-sends (bucket moves only commit once a clean copy has arrived), and
an :meth:`ClusterMigrator.abort` path used when a node dies mid-move.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..check import invariants
from ..config import (
    DEFAULT_CHUNK_KB,
    DEFAULT_MIGRATION_RATE_KBPS,
    PStoreConfig,
)
from ..errors import MigrationError
from ..faults.retry import RetryPolicy
from ..hstore.cluster import Cluster
from ..telemetry import get_telemetry
from .plan import BucketMove, make_reconfiguration_plan
from .schedule import MigrationSchedule, Transfer, build_migration_schedule


def chunk_spacing_seconds(chunk_kb: float, rate_kbps: float) -> float:
    """Average spacing between migration chunks: one ``chunk_kb`` chunk
    every ``chunk_kb / R`` seconds at rate ``R`` (Sec. 8.1, footnote 1)."""
    if chunk_kb <= 0:
        raise MigrationError("chunk_kb must be positive")
    if rate_kbps <= 0:
        raise MigrationError("rate_kbps must be positive")
    return chunk_kb / rate_kbps


#: Spacing implied by the calibration defaults (1000 kB at R = 244 kB/s);
#: configured runs should derive their own via :func:`chunk_spacing_seconds`
#: or :attr:`ActiveMigration.chunk_spacing_seconds`.
CHUNK_SPACING_SECONDS = chunk_spacing_seconds(
    DEFAULT_CHUNK_KB, DEFAULT_MIGRATION_RATE_KBPS
)

#: Bucket bounds of the ``migrate.duration_seconds`` histogram.
DURATION_BOUNDS = tuple(float(2 ** i) for i in range(24))


class ActiveMigration:
    """One in-flight reconfiguration, advanced in simulated time.

    Machine indices are the *logical* indices of the schedule (the
    smaller cluster occupies 0..s-1); callers that operate on physical
    nodes supply a ``node_map`` from logical index to node id.

    Parameters
    ----------
    schedule:
        transfer schedule from :func:`build_migration_schedule`.
    database_kb:
        total database size; each transfer carries
        ``schedule.fraction_per_transfer * database_kb``.
    rate_kbps:
        migration rate of one partition-pair lane (the paper's ``R``;
        pass ``8 * R`` for the boosted reactive mode of Fig. 11).
    partitions_per_node:
        parallel lanes per machine pair.
    """

    def __init__(
        self,
        schedule: MigrationSchedule,
        database_kb: float,
        rate_kbps: float,
        partitions_per_node: int = 1,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        node_map: Optional[Mapping[int, int]] = None,
    ):
        if database_kb <= 0:
            raise MigrationError("database_kb must be positive")
        if rate_kbps <= 0:
            raise MigrationError("rate_kbps must be positive")
        if partitions_per_node < 1:
            raise MigrationError("partitions_per_node must be >= 1")
        if chunk_kb <= 0:
            raise MigrationError("chunk_kb must be positive")
        self.schedule = schedule
        self.database_kb = database_kb
        self.rate_kbps = rate_kbps
        self.partitions_per_node = partitions_per_node
        self.chunk_kb = chunk_kb
        self.node_map = dict(node_map) if node_map is not None else None

        self._pair_kb = schedule.fraction_per_transfer * database_kb
        # A machine pair moves its data over P parallel partition lanes.
        lane_rate = rate_kbps * partitions_per_node
        self._round_seconds = (
            self._pair_kb / lane_rate if schedule.n_rounds else 0.0
        )
        self._round_index = 0
        self._elapsed_in_round = 0.0
        self._progress_applied = 0.0
        larger = max(schedule.before, schedule.after)
        self._fractions = np.zeros(larger)
        smaller = min(schedule.before, schedule.after)
        self._fractions[:smaller] = 1.0 / schedule.before
        if schedule.before > schedule.after:
            self._fractions[smaller:] = 1.0 / schedule.before
        # Fraction vector as of the last committed round.  Commits rebuild
        # from this snapshot, so partial-step float increments within a
        # round can never drift the committed trajectory.
        self._round_base = self._fractions.copy()
        self._completed_rounds: List[Tuple[Transfer, ...]] = []

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._round_index >= self.schedule.n_rounds

    @property
    def round_seconds(self) -> float:
        return self._round_seconds

    @property
    def total_seconds(self) -> float:
        """Wall-clock duration of the whole reconfiguration."""
        return self._round_seconds * self.schedule.n_rounds

    @property
    def seconds_to_round_end(self) -> float:
        """Transfer time left in the current round (0 when done)."""
        if self.done:
            return 0.0
        return max(0.0, self._round_seconds - self._elapsed_in_round)

    @property
    def chunk_spacing_seconds(self) -> float:
        """Chunk spacing implied by this migration's chunk size and lane
        rate (replaces the old hardcoded calibration constant)."""
        return chunk_spacing_seconds(self.chunk_kb, self.rate_kbps)

    @property
    def elapsed_fraction(self) -> float:
        if self.schedule.n_rounds == 0:
            return 1.0
        done = self._round_index + (
            self._elapsed_in_round / self._round_seconds
            if self._round_seconds > 0 and not self.done
            else 0.0
        )
        return min(1.0, done / self.schedule.n_rounds)

    @property
    def fraction_moved(self) -> float:
        """Fraction of the *data being moved in this move* transferred
        so far (the ``f`` of Eq. 7)."""
        return self.elapsed_fraction

    def advance(self, dt: float) -> List[Tuple[Transfer, ...]]:
        """Advance ``dt`` seconds; returns the rounds completed in it."""
        if dt < 0:
            raise MigrationError("dt must be non-negative")
        completed: List[Tuple[Transfer, ...]] = []
        remaining = dt
        while remaining > 0 and not self.done:
            left_in_round = self._round_seconds - self._elapsed_in_round
            if remaining + 1e-12 >= left_in_round:
                remaining -= left_in_round
                round_ = self.schedule.rounds[self._round_index]
                # Commit exactly: restore the round-entry snapshot and
                # apply the whole round in one step, so the committed
                # vector equals the snapshot plus one exact transfer per
                # pair no matter how the round was sliced.
                np.copyto(self._fractions, self._round_base)
                self._apply_round(round_, fraction=1.0)
                self._round_base = self._fractions.copy()
                self._completed_rounds.append(round_)
                completed.append(round_)
                self._round_index += 1
                self._elapsed_in_round = 0.0
                self._progress_applied = 0.0
                if invariants.enabled(invariants.CHEAP):
                    invariants.check_fraction_conservation(
                        self._fractions, "ActiveMigration.advance"
                    )
            else:
                # Partial progress within the current round.
                step_fraction = remaining / self._round_seconds
                round_ = self.schedule.rounds[self._round_index]
                self._apply_round(round_, fraction=step_fraction)
                self._progress_applied += step_fraction
                self._elapsed_in_round += remaining
                remaining = 0.0
        return completed

    def _apply_round(self, round_: Tuple[Transfer, ...], fraction: float) -> None:
        delta = self.schedule.fraction_per_transfer * fraction
        for transfer in round_:
            self._fractions[transfer.sender] -= delta
            self._fractions[transfer.receiver] += delta

    def rollback_partial_round(self) -> float:
        """Discard partial progress inside the current round.

        Transfers commit at round granularity; an abort mid-round must
        not leave the fluid fractions between two committed states.
        Restores the round-entry snapshot and returns the fraction of the
        round that was rolled back (0.0 when already at a round boundary).
        """
        rolled = self._progress_applied
        if rolled > 0.0:
            np.copyto(self._fractions, self._round_base)
            self._elapsed_in_round = 0.0
            self._progress_applied = 0.0
        return rolled

    # ------------------------------------------------------------------
    # State exposed to engines and accounting
    # ------------------------------------------------------------------

    def data_fractions(self) -> np.ndarray:
        """Per-logical-machine fraction of the database (sums to 1).

        Drained machines are clipped at exactly zero (floating-point
        round-off in the per-round updates can leave values like -1e-18).
        """
        return np.clip(self._fractions, 0.0, None)

    def machines_allocated(self) -> int:
        """Machines physically present right now (just-in-time policy)."""
        if self.done:
            return self.schedule.after
        return self.schedule.allocation[self._round_index]

    def active_transfers(self) -> Tuple[Transfer, ...]:
        """Transfers running at this instant (empty when done)."""
        if self.done:
            return ()
        return self.schedule.rounds[self._round_index]

    def migrating_machines(self) -> Set[int]:
        """Logical machines currently sending or receiving."""
        busy: Set[int] = set()
        for transfer in self.active_transfers():
            busy.add(transfer.sender)
            busy.add(transfer.receiver)
        return busy

    def physical_nodes(self, machines: Set[int]) -> Set[int]:
        if self.node_map is None:
            return machines
        return {self.node_map[m] for m in machines}


class ClusterMigrator:
    """Drives bucket-accurate migrations on a row-level cluster.

    Scale-out: provision the new nodes, compute a balanced bucket plan
    over old + new partitions, build the machine schedule, and commit
    each machine pair's buckets when its transfer completes.  Scale-in is
    symmetric (retiring nodes are drained, then decommissioned).

    ``injector`` attaches the chaos layer: migration-stall windows
    freeze progress until the watchdog re-drives them, and completed
    rounds may arrive corrupted, costing a re-send before their bucket
    moves commit.  ``retry`` defaults to the policy described by
    ``config.faults``.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: PStoreConfig,
        chunk_kb: Optional[float] = None,
        rate_multiplier: float = 1.0,
        telemetry=None,
        injector=None,
        retry: Optional[RetryPolicy] = None,
    ):
        if rate_multiplier <= 0:
            raise MigrationError("rate_multiplier must be positive")
        self.cluster = cluster
        self.config = config
        self.chunk_kb = config.chunk_kb if chunk_kb is None else chunk_kb
        if self.chunk_kb <= 0:
            raise MigrationError("chunk_kb must be positive")
        self.rate_multiplier = rate_multiplier
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._injector = injector
        self.retry = retry if retry is not None else RetryPolicy.from_config(
            config.faults
        )
        self._retry_rng = np.random.default_rng(
            (injector.seed + 1) if injector is not None else 0
        )
        self._active: Optional[ActiveMigration] = None
        self._pair_buckets: Dict[Tuple[int, int], List[BucketMove]] = {}
        self._retiring_nodes: List[int] = []
        #: Cumulative simulated seconds this migrator has been advanced;
        #: the timeline used for migration.round records and durations.
        self._sim_time = 0.0
        self._move_started_at = 0.0
        self._move_before = 0
        self._move_after = 0
        self._round_started_at = 0.0
        self._rounds_committed = 0
        self._move_chronicle_id: Optional[str] = None
        # Failure-recovery state.
        self._stall_watch = None
        self._stall_attempts = 0
        self._next_retry_at = 0.0
        self._resend_seconds = 0.0
        self._pending_resends: List[Tuple[object, Tuple[Transfer, ...]]] = []
        self.aborted_moves = 0

    @property
    def sim_time(self) -> float:
        """The migrator's simulated clock (seconds).  Hosts with their own
        clock (e.g. :class:`~repro.core.service.PStoreService`) sync this
        before ``start_move`` so telemetry timestamps are absolute."""
        return self._sim_time

    @sim_time.setter
    def sim_time(self, value: float) -> None:
        self._sim_time = float(value)

    @property
    def active(self) -> Optional[ActiveMigration]:
        return self._active

    @property
    def migrating(self) -> bool:
        return self._active is not None

    def start_move(
        self, target_nodes: int, cause_id: Optional[str] = None
    ) -> ActiveMigration:
        """Begin reconfiguring the cluster to ``target_nodes`` machines.

        ``cause_id`` is the chronicle ID of the plan decision that asked
        for this move; it becomes the parent of the ``migration.start``
        record so ``pstore explain`` can walk forecast -> plan -> move.
        """
        if self.migrating:
            raise MigrationError("a migration is already in progress")
        before = self.cluster.n_nodes
        after = target_nodes
        if after < 1:
            raise MigrationError("target_nodes must be >= 1")
        if after == before:
            raise MigrationError("target equals current size; nothing to do")

        added_nodes: List[int] = []
        if after > before:
            new_nodes = self.cluster.add_nodes(after - before)
            added_nodes = [n.node_id for n in new_nodes]
            ordered_nodes = [n.node_id for n in self.cluster.nodes]
            # Logical: originals 0..B-1 then new machines B..A-1.
            originals = [nid for nid in ordered_nodes if nid not in
                         {n.node_id for n in new_nodes}]
            logical_order = originals + [n.node_id for n in new_nodes]
            self._retiring_nodes = []
        else:
            ordered_nodes = [n.node_id for n in self.cluster.nodes]
            survivors = ordered_nodes[:after]
            retiring = ordered_nodes[after:]
            logical_order = survivors + retiring
            self._retiring_nodes = retiring

        node_map = {i: nid for i, nid in enumerate(logical_order)}
        surviving = logical_order if after > before else logical_order[:after]
        target_partitions: List[int] = []
        for nid in surviving:
            node = next(n for n in self.cluster.nodes if n.node_id == nid)
            target_partitions.extend(node.partition_ids)

        plan = make_reconfiguration_plan(self.cluster.plan, target_partitions)
        node_of_partition = {
            pid: node.node_id
            for node in self.cluster.nodes
            for pid in node.partition_ids
        }
        self._pair_buckets = {
            pair: moves
            for pair, moves in plan.moves_by_node_pair(node_of_partition).items()
        }

        schedule = build_migration_schedule(before, after)
        rate_kbps = self.config.migration_rate_kbps * self.rate_multiplier
        self._active = ActiveMigration(
            schedule=schedule,
            database_kb=max(self.cluster.total_data_kb, 1.0),
            rate_kbps=rate_kbps,
            partitions_per_node=self.config.partitions_per_node,
            chunk_kb=self.chunk_kb,
            node_map=node_map,
        )
        self._move_started_at = self._sim_time
        self._round_started_at = self._sim_time
        self._move_before = before
        self._move_after = after
        self._rounds_committed = 0
        self._reset_fault_state()
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("migrate.moves_started").inc()
            rec = tel.chronicle.record(
                "migration.start",
                time=self._sim_time,
                parent=cause_id,
                before=before,
                after=after,
                rate_kbps=rate_kbps,
                rounds=schedule.n_rounds,
                est_seconds=self._active.total_seconds,
            )
            self._move_chronicle_id = rec.get("id")
            if added_nodes:
                tel.chronicle.record(
                    "node.add",
                    time=self._sim_time,
                    parent=self._move_chronicle_id,
                    nodes=added_nodes,
                )
        if self._injector is not None:
            self._injector.notify_migration_started(self._sim_time)
        return self._active

    def advance(self, dt: float) -> bool:
        """Advance the active migration; returns True when it completes."""
        if self._active is None:
            raise MigrationError("no active migration")
        if dt < 0:
            raise MigrationError("dt must be non-negative")
        if self._injector is None:
            self._step_migration(dt)
        else:
            self._advance_with_faults(dt)
        if (
            self._active is not None
            and self._active.done
            and self._resend_seconds <= 1e-9
            and not self._pending_resends
        ):
            self._finish_telemetry()
            self._finish()
            return True
        return False

    def abort(self, reason: str = "node failure") -> None:
        """Cancel the in-flight migration without completing it.

        Bucket moves already committed stay committed (the plan is always
        consistent); pending pair transfers are dropped, and retiring
        nodes remain active since they may still own buckets.  The
        controller is expected to re-plan from the resulting topology.
        """
        if self._active is None:
            return
        # A partially-applied round is neither committed nor absent; roll
        # the fluid fractions back to the last round boundary so the
        # post-abort topology matches what the row store actually holds.
        rolled_back = self._active.rollback_partial_round()
        self.aborted_moves += 1
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("migrate.moves_aborted").inc()
            tel.chronicle.record(
                "migration.aborted",
                time=self._sim_time,
                parent=self._move_chronicle_id,
                before=self._move_before,
                after=self._move_after,
                reason=reason,
                elapsed=self._sim_time - self._move_started_at,
                rolled_back_fraction=rolled_back,
            )
            self._move_chronicle_id = None
        self._pair_buckets = {}
        self._retiring_nodes = []
        self._active = None
        self._reset_fault_state()

    # ------------------------------------------------------------------
    # Fault-free fast path
    # ------------------------------------------------------------------

    def _step_migration(self, dt: float) -> None:
        """Advance transfers by ``dt`` and commit the completed rounds."""
        assert self._active is not None
        round_seconds = self._active.round_seconds
        completed_rounds = self._active.advance(dt)
        self._sim_time += dt
        for round_ in completed_rounds:
            corruption = (
                self._injector.take_corruption()
                if self._injector is not None
                else None
            )
            if corruption is not None:
                self._begin_resend(corruption, round_)
                continue
            self._commit_round(round_, round_seconds)

    def _commit_round(self, round_: Tuple[Transfer, ...], round_seconds: float) -> None:
        # Bracket the commit itself rather than diffing against a
        # start-of-move snapshot: live workload legitimately changes row
        # counts *between* advances, but a bucket move must never.
        check_rows = invariants.enabled(invariants.CHEAP)
        before = invariants.snapshot_row_counts(self.cluster) if check_rows else None
        for transfer in round_:
            self._commit_transfer(transfer)
        if check_rows:
            invariants.check_row_conservation(
                self.cluster, before,
                "ClusterMigrator.commit", time=self._sim_time,
            )
        tel = self._telemetry
        if tel.enabled:
            # Rounds are equal-length, so reconstruct each round's
            # window on the simulated timeline (re-sends stretch it).
            end = min(self._round_started_at + round_seconds, self._sim_time)
            end = max(end, self._round_started_at)
            tel.chronicle.record(
                "migration.round",
                time=end,
                parent=self._move_chronicle_id,
                round=self._rounds_committed,
                transfers=len(round_),
            )
            self._round_started_at = end
        self._rounds_committed += 1

    # ------------------------------------------------------------------
    # Fault-aware path
    # ------------------------------------------------------------------

    def _advance_with_faults(self, dt: float) -> None:
        injector = self._injector
        remaining = float(dt)
        while remaining > 1e-9 and self._active is not None:
            injector.advance(self._sim_time)
            boundary = injector.seconds_to_next_change(self._sim_time)
            stall = injector.stall_record(self._sim_time)
            if stall is not None:
                # Wedged: time passes, no data moves; the watchdog
                # detects and re-drives after the retry timeout.
                step = min(remaining, max(min(boundary, remaining), 1e-9))
                self._sim_time += step
                remaining -= step
                self._watch_stall(stall)
                continue
            self._stall_watch = None
            if self._resend_seconds > 1e-9:
                step = min(remaining, self._resend_seconds)
                self._resend_seconds -= step
                self._sim_time += step
                remaining -= step
                if self._resend_seconds <= 1e-9:
                    self._finish_resends()
                continue
            if self._active.done:
                # Only waiting on re-sends/stalls, which are drained above.
                break
            # Never run past the current round's completion or the next
            # fault boundary, so rounds are handled one at a time.
            step = min(
                remaining,
                max(self._active.seconds_to_round_end, 1e-9),
                max(boundary, 1e-9),
            )
            self._step_migration(step)
            remaining -= step

    def _watch_stall(self, record) -> None:
        """Detect a wedged transfer after the retry timeout and emit one
        re-drive attempt per backoff interval (all in simulated time)."""
        if self._stall_watch is not record:
            self._stall_watch = record
            self._stall_attempts = 0
            self._next_retry_at = (
                record.injected_at + self.retry.transfer_timeout_seconds
            )
        while self._sim_time + 1e-9 >= self._next_retry_at:
            if not self.retry.should_retry(self._stall_attempts + 1):
                break
            if self._stall_attempts == 0:
                self._injector.mark_detected(record, self._next_retry_at)
            attempt = self._stall_attempts + 1
            backoff = self.retry.backoff_seconds(attempt, self._retry_rng)
            self._injector.mark_retry(record, self._next_retry_at, backoff)
            self._stall_attempts = attempt
            self._next_retry_at += backoff

    def _begin_resend(self, record, round_: Tuple[Transfer, ...]) -> None:
        """A round arrived corrupted: hold its bucket commits and pay for
        a full re-send (plus one backoff) before committing."""
        assert self._active is not None
        self._injector.mark_detected(record, self._sim_time)
        backoff = self.retry.backoff_seconds(1, self._retry_rng)
        self._injector.mark_retry(record, self._sim_time, backoff)
        self._resend_seconds += self._active.round_seconds + backoff
        self._pending_resends.append((record, round_))

    def _finish_resends(self) -> None:
        assert self._active is not None
        self._resend_seconds = 0.0
        pending, self._pending_resends = self._pending_resends, []
        for record, round_ in pending:
            self._commit_round(round_, self._active.round_seconds)
            self._injector.mark_recovered(record, self._sim_time)

    def _reset_fault_state(self) -> None:
        self._stall_watch = None
        self._stall_attempts = 0
        self._next_retry_at = 0.0
        self._resend_seconds = 0.0
        self._pending_resends = []

    # ------------------------------------------------------------------

    def _finish_telemetry(self) -> None:
        tel = self._telemetry
        if not tel.enabled:
            return
        seconds = self._sim_time - self._move_started_at
        tel.metrics.histogram(
            "migrate.duration_seconds", bounds=DURATION_BOUNDS
        ).observe(seconds)
        if self._retiring_nodes:
            # _finish() decommissions these right after; chronicle them
            # while the list is still known.
            tel.chronicle.record(
                "node.remove",
                time=self._sim_time,
                parent=self._move_chronicle_id,
                nodes=list(self._retiring_nodes),
                reason="scale-in",
            )
        tel.chronicle.record(
            "migration.complete",
            time=self._sim_time,
            parent=self._move_chronicle_id,
            before=self._move_before,
            after=self._move_after,
            seconds=seconds,
        )
        self._move_chronicle_id = None

    def _commit_transfer(self, transfer: Transfer) -> None:
        assert self._active is not None and self._active.node_map is not None
        src_node = self._active.node_map[transfer.sender]
        dst_node = self._active.node_map[transfer.receiver]
        for move in self._pair_buckets.pop((src_node, dst_node), []):
            self.cluster.move_bucket(move.bucket, move.destination_partition)

    def _finish(self) -> None:
        check_rows = invariants.enabled(invariants.CHEAP)
        before = invariants.snapshot_row_counts(self.cluster) if check_rows else None
        # Commit any residual bucket moves (pairs whose buckets were not
        # perfectly covered by the machine schedule's transfers).
        for moves in self._pair_buckets.values():
            for move in moves:
                self.cluster.move_bucket(move.bucket, move.destination_partition)
        self._pair_buckets = {}
        if self._retiring_nodes:
            self.cluster.remove_nodes(self._retiring_nodes)
            self._retiring_nodes = []
        if check_rows:
            invariants.check_row_conservation(
                self.cluster, before,
                "ClusterMigrator.finish", time=self._sim_time,
            )
        if invariants.enabled(invariants.EXPENSIVE):
            invariants.check_bucket_map_agreement(
                self.cluster, "ClusterMigrator.finish", time=self._sim_time
            )
        self._active = None
        self._reset_fault_state()
