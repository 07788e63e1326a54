"""One in-flight fluid move, shared by every loop that drives one.

P-Store's control cycle is predict -> plan -> migrate (Sec. 6).  The
capacity simulator, the online serve controller, and the full elastic
DBMS simulator all run the migrate step on the fluid
:class:`~repro.squall.migrator.ActiveMigration` model; :class:`MoveTracker`
owns its lifecycle so each transition is written in one place:

* :meth:`MoveTracker.start` builds the schedule and the migration, counts
  the move (and emergencies), and records ``migration.start``;
* :meth:`MoveTracker.step_slot` advances one planner slot in two half
  steps, sampling Eq. 7's effective capacity at the slot midpoint;
* :meth:`MoveTracker.complete` / :meth:`MoveTracker.abort` record the
  outcome and clear the move;
* :meth:`MoveTracker.state_dict` / :meth:`MoveTracker.restore_state`
  checkpoint the move as its inputs plus the applied half-step count,
  and restore by replaying those half steps (round commits rebuild from
  snapshots, so the replay lands on the same float trajectory).

The loops keep their own clocks and ordering; the tracker only owns the
move.  The row-level :class:`~repro.squall.migrator.ClusterMigrator`
keeps its own lifecycle.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..config import DEFAULT_CHUNK_KB, PStoreConfig
from .migrator import ActiveMigration
from .schedule import build_migration_schedule

#: Bucket bounds of the ``migrate.duration_seconds`` histogram.
DURATION_BOUNDS = tuple(float(2 ** i) for i in range(24))


class MoveTracker:
    """Lifecycle of at most one in-flight fluid reconfiguration.

    ``moves_started`` and ``emergencies`` count every move started over
    the tracker's lifetime.  Telemetry is written only when the bundle
    is enabled; the move state advances either way.
    """

    def __init__(self, config: PStoreConfig, telemetry) -> None:
        self.config = config
        self._telemetry = telemetry
        self.moves_started = 0
        self.emergencies = 0
        self._clear()

    def _clear(self) -> None:
        self.migration: Optional[ActiveMigration] = None
        self.before = 0
        self.target = 0
        self.started = 0.0
        self.rate_kbps = 0.0
        self.emergency = False
        #: Half-slot ``advance`` calls applied so far (checkpoint replay).
        self.half_steps = 0
        #: Chronicle ID of the move's ``migration.start`` record.
        self.record_id: Optional[str] = None

    def _begin(
        self, before: int, target: int, started: float, rate_kbps: float,
        **migration_options,
    ) -> None:
        config = self.config
        self._clear()
        self.migration = ActiveMigration(
            schedule=build_migration_schedule(before, target),
            database_kb=config.database_kb,
            rate_kbps=rate_kbps,
            partitions_per_node=config.partitions_per_node,
            **migration_options,
        )
        self.before = before
        self.target = target
        self.started = started
        self.rate_kbps = rate_kbps

    @property
    def active(self) -> bool:
        return self.migration is not None

    @property
    def done(self) -> bool:
        return self.migration is not None and self.migration.done

    def start(
        self,
        before: int,
        target: int,
        decision,
        now: float,
        slot: int,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        node_map: Optional[Mapping[int, int]] = None,
    ) -> ActiveMigration:
        """Begin moving from ``before`` to ``target`` machines at the
        rate ``decision`` asks for; the ``migration.start`` record
        parents on the decision's chronicle record."""
        rate_kbps = self.config.migration_rate_kbps * decision.rate_multiplier
        self._begin(
            before, target, now, rate_kbps, chunk_kb=chunk_kb,
            node_map=node_map,
        )
        self.emergency = decision.emergency
        self.moves_started += 1
        if decision.emergency:
            self.emergencies += 1
        tel = self._telemetry
        if tel.enabled:
            fields = dict(
                before=before,
                after=target,
                emergency=decision.emergency,
                reason=decision.reason,
                rate_kbps=rate_kbps,
                est_seconds=self.migration.total_seconds,
            )
            tel.events.emit("migration.start", time=now, **fields)
            rec = tel.chronicle.record(
                "migration.start",
                time=now,
                parent=getattr(decision, "record_id", None),
                **fields,
                slot=slot,
            )
            self.record_id = rec.get("id")
        return self.migration

    def step_slot(
        self, machines: int, slot_seconds: float
    ) -> Tuple[int, float, float]:
        """Advance the move across one planner slot.

        Returns the slot's ``(machines allocated, eff Q, eff Q-hat)``
        sampled at its midpoint (Eq. 7: capacity is set by the machine
        holding the largest data fraction).  With no move in flight the
        sample is the steady ``machines`` cluster.
        """
        config = self.config
        migration = self.migration
        if migration is None:
            return machines, config.q * machines, config.q_hat * machines
        migration.advance(slot_seconds / 2.0)
        largest = float(migration.data_fractions().max())
        sample = (
            migration.machines_allocated(),
            config.q / largest,
            config.q_hat / largest,
        )
        migration.advance(slot_seconds / 2.0)
        self.half_steps += 2
        return sample

    def complete(self, now: float) -> int:
        """Record the finished move and clear it; returns the new size."""
        tel = self._telemetry
        if tel.enabled:
            seconds = now - self.started
            fields = dict(
                before=self.before,
                after=self.target,
                seconds=seconds,
                emergency=self.emergency,
            )
            tel.events.emit("migration.complete", time=now, **fields)
            tel.metrics.histogram(
                "migrate.duration_seconds", bounds=DURATION_BOUNDS
            ).observe(seconds)
            tel.chronicle.record(
                "migration.complete", time=now, parent=self.record_id,
                **fields,
            )
        target = self.target
        self._clear()
        return target

    def abort(self, now: float, reason: str, rollback: bool = False) -> None:
        """Drop the move.  With ``rollback`` a partially applied round is
        first rolled back to its last committed boundary and the rolled
        back fraction is recorded."""
        fields = dict(before=self.before, after=self.target, reason=reason)
        if rollback:
            fields["rolled_back_fraction"] = (
                self.migration.rollback_partial_round()
            )
        tel = self._telemetry
        if tel.enabled:
            tel.events.emit("migration.aborted", time=now, **fields)
            tel.chronicle.record(
                "migration.aborted", time=now, parent=self.record_id,
                **fields,
            )
        self._clear()

    def state_dict(self) -> Optional[dict]:
        """The in-flight move as its inputs, or ``None`` when idle."""
        if self.migration is None:
            return None
        return {
            "before": self.before,
            "target": self.target,
            "started": self.started,
            "rate_kbps": self.rate_kbps,
            "half_steps": self.half_steps,
            "move_rec_id": self.record_id,
        }

    def restore_state(self, doc: Optional[dict]) -> None:
        """Rebuild from :meth:`state_dict` output by replaying the
        checkpointed half steps on a fresh migration.

        The checkpoint does not carry the emergency flag, so a restored
        move completes with ``emergency=False``.
        """
        if doc is None:
            self._clear()
            return
        self._begin(
            int(doc["before"]), int(doc["target"]), float(doc["started"]),
            float(doc["rate_kbps"]),
        )
        self.record_id = doc.get("move_rec_id")
        half = self.config.interval_seconds / 2.0
        steps = int(doc.get("half_steps", 0))
        for _ in range(steps):
            self.migration.advance(half)
        self.half_steps = steps
