"""Tests for the shared fluid-move lifecycle (repro.squall.move)."""

import numpy as np
import pytest

from repro.config import default_config
from repro.elasticity.base import ScaleDecision
from repro.squall.move import MoveTracker
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: 60 s slots: a 77 s round commits inside a half step, so the replayed
#: trajectory crosses round boundaries mid-slot.
CONFIG = default_config().with_interval(60.0)
HALF = CONFIG.interval_seconds / 2.0


def started(before, after, telemetry=NULL_TELEMETRY, **decision):
    tracker = MoveTracker(CONFIG, telemetry)
    tracker.start(
        before, after, ScaleDecision(target_machines=after, **decision),
        now=0.0, slot=0,
    )
    return tracker


def reference_fractions(before, after):
    """Fractions after each half step of one uninterrupted move."""
    tracker = started(before, after)
    trajectory = [tracker.migration.data_fractions().copy()]
    while not tracker.migration.done:
        tracker.migration.advance(HALF)
        trajectory.append(tracker.migration.data_fractions().copy())
    return trajectory


class TestRestore:
    @pytest.mark.parametrize("before,after", [(2, 5), (5, 2)])
    def test_restore_at_every_half_step_is_bit_exact(self, before, after):
        trajectory = reference_fractions(before, after)
        assert len(trajectory) > 4  # spans several slots
        doc = started(before, after).state_dict()
        for half_steps, expected in enumerate(trajectory):
            restored = MoveTracker(CONFIG, NULL_TELEMETRY)
            restored.restore_state(dict(doc, half_steps=half_steps))
            np.testing.assert_array_equal(
                restored.migration.data_fractions(), expected
            )
            assert restored.half_steps == half_steps

    @pytest.mark.parametrize("before,after", [(2, 5), (5, 2)])
    def test_checkpoint_each_slot_then_continue(self, before, after):
        trajectory = reference_fractions(before, after)
        tracker = started(before, after)
        while not tracker.done:
            restored = MoveTracker(CONFIG, NULL_TELEMETRY)
            restored.restore_state(tracker.state_dict())
            tracker.step_slot(before, CONFIG.interval_seconds)
            restored.step_slot(before, CONFIG.interval_seconds)
            for side in (tracker, restored):
                np.testing.assert_array_equal(
                    side.migration.data_fractions(),
                    trajectory[min(side.half_steps, len(trajectory) - 1)],
                )
        assert tracker.complete(CONFIG.interval_seconds) == after
        assert not tracker.active

    @pytest.mark.parametrize("before,after", [(2, 5), (5, 2)])
    def test_restored_emergency_move_completes_as_emergency(
        self, before, after
    ):
        trajectory = reference_fractions(before, after)
        doc = started(before, after, emergency=True).state_dict()
        for half_steps in range(len(trajectory)):
            tel = Telemetry()
            restored = MoveTracker(CONFIG, tel)
            restored.restore_state(dict(doc, half_steps=half_steps))
            assert restored.emergency is True
            restored.complete(CONFIG.interval_seconds)
            (complete,) = tel.chronicle.by_kind("migration.complete")
            assert complete["emergency"] is True

    def test_checkpoint_without_emergency_key_restores_as_planned(self):
        doc = started(2, 5, emergency=True).state_dict()
        doc.pop("emergency", None)
        restored = MoveTracker(CONFIG, NULL_TELEMETRY)
        restored.restore_state(doc)
        assert restored.emergency is False

    def test_idle_state_round_trips_as_none(self):
        tracker = MoveTracker(CONFIG, NULL_TELEMETRY)
        assert tracker.state_dict() is None
        tracker.restore_state(None)
        assert not tracker.active


class TestLifecycle:
    def test_idle_slot_samples_the_steady_cluster(self):
        tracker = MoveTracker(CONFIG, NULL_TELEMETRY)
        assert tracker.step_slot(4, 60.0) == (
            4, CONFIG.q * 4, CONFIG.q_hat * 4,
        )
        assert tracker.half_steps == 0

    def test_start_and_complete_are_chronicled_once(self):
        tel = Telemetry()
        tracker = started(2, 5, telemetry=tel, emergency=True,
                          rate_multiplier=8.0, record_id="pd-1")
        assert (tracker.moves_started, tracker.emergencies) == (1, 1)
        assert tracker.rate_kbps == CONFIG.migration_rate_kbps * 8.0
        while not tracker.done:
            tracker.step_slot(2, CONFIG.interval_seconds)
        tracker.complete(120.0)
        start, complete = tel.chronicle.snapshot()
        assert start["kind"] == "migration.start"
        assert start["parent"] == "pd-1"
        assert complete["kind"] == "migration.complete"
        assert complete["parent"] == start["id"]
        assert complete["emergency"] is True
        assert complete["seconds"] == 120.0
        # The lifecycle lives in the chronicle only.
        assert tel.events.snapshot() == []
        assert tel.metrics.histogram("migrate.duration_seconds").count == 1

    @pytest.mark.parametrize("rollback", [False, True])
    def test_abort(self, rollback):
        tel = Telemetry()
        tracker = started(2, 5, telemetry=tel)
        tracker.migration.advance(HALF)
        tracker.abort(30.0, "test", rollback=rollback)
        assert not tracker.active
        assert tracker.record_id is None
        aborted = tel.chronicle.snapshot()[-1]
        assert aborted["kind"] == "migration.aborted"
        assert aborted["reason"] == "test"
        assert ("rolled_back_fraction" in aborted) is rollback
        if rollback:
            assert aborted["rolled_back_fraction"] > 0.0
