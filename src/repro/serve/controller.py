"""The online controller: refit, re-plan, reconfigure — and notice when
the model has gone stale.

Per closed interval the controller mirrors one slot of the batch
:class:`~repro.sim.capacity_sim.CapacitySimulator` loop (advance the
in-flight migration, sample effective capacity Eq. 7, chronicle
violations), plus the piece the batch loop lacks entirely:
**error-triggered re-planning**.  The PR-6
:class:`~repro.telemetry.accuracy.AccuracyTracker` keeps rolling
MAPE/bias per (predictor, tau); when the active tau's error crosses the
configured threshold the controller

1. files a ``forecast.accuracy`` chronicle record (parented on the last
   forecast snapshot — the stale model's own evidence),
2. forces an immediate :meth:`OnlinePredictor.refit_now` on the window,
3. runs an *unscheduled* predictive re-plan whose ``plan.decision``
   record parents on the accuracy record (so ``pstore explain`` walks
   violation -> decision -> accuracy breach -> stale forecast), and
4. falls back to reactive provisioning until rolling error recovers
   below the hysteresis threshold.

While reactive, the predictive model keeps forecasting in *shadow* so
the tracker scores the refit model on live traffic; recovery flips the
mode back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import PStoreConfig
from ..elasticity.base import ScaleDecision
from ..elasticity.predictive import PStoreStrategy
from ..elasticity.reactive import ReactiveStrategy
from ..errors import PredictionError, SimulationError
from ..prediction.online import OnlinePredictor
from ..squall.move import MoveTracker
from ..telemetry import get_telemetry


@dataclass(frozen=True)
class TriggerSpec:
    """One ``metric:threshold`` clause of ``--error-trigger``."""

    metric: str        # "mape" | "smape" | "bias"
    threshold: float   # fractional (0.3 == 30%)


_TRIGGER_METRICS = {"mape": "mape_pct", "smape": "smape_pct", "bias": "bias_pct"}


def parse_error_trigger(text: str) -> Optional["ErrorTrigger"]:
    """Parse ``mape:0.3`` / ``mape:0.3,bias:0.25`` / ``off``."""
    spec = text.strip().lower()
    if spec in ("", "off", "none"):
        return None
    clauses: List[TriggerSpec] = []
    for part in spec.split(","):
        metric, _, value = part.partition(":")
        metric = metric.strip()
        if metric not in _TRIGGER_METRICS:
            raise SimulationError(
                f"unknown error-trigger metric {metric!r} "
                f"(want {'|'.join(sorted(_TRIGGER_METRICS))})"
            )
        try:
            threshold = float(value)
        except ValueError:
            raise SimulationError(
                f"bad error-trigger threshold in {part!r}"
            ) from None
        if threshold <= 0:
            raise SimulationError("error-trigger thresholds must be > 0")
        clauses.append(TriggerSpec(metric=metric, threshold=threshold))
    return ErrorTrigger(tuple(clauses))


class ErrorTrigger:
    """Threshold + hysteresis over the accuracy tracker's rolling stats.

    ``breach(stats)`` reports the first clause over its threshold;
    ``recovered(stats)`` requires *every* clause below
    ``recovery_fraction`` of its threshold (classic hysteresis so the
    mode doesn't flap on the boundary).  Both gate on ``min_pairs``
    scored forecast/actual pairs so a cold window can't fire.
    """

    def __init__(
        self,
        clauses: Sequence[TriggerSpec],
        tau: int = 1,
        min_pairs: int = 12,
        recovery_fraction: float = 0.8,
    ) -> None:
        if not clauses:
            raise SimulationError("error trigger needs at least one clause")
        self.clauses = tuple(clauses)
        self.tau = int(tau)
        self.min_pairs = int(min_pairs)
        self.recovery_fraction = float(recovery_fraction)

    def describe(self) -> str:
        return ",".join(f"{c.metric}:{c.threshold:g}" for c in self.clauses)

    def breach(self, stats: Optional[dict]) -> Optional[dict]:
        if not stats or stats.get("pairs_window", 0) < self.min_pairs:
            return None
        for clause in self.clauses:
            value_pct = stats.get(_TRIGGER_METRICS[clause.metric])
            if value_pct is None:
                continue
            if abs(value_pct) > clause.threshold * 100.0:
                return {
                    "metric": clause.metric,
                    "value_pct": float(value_pct),
                    "threshold_pct": clause.threshold * 100.0,
                }
        return None

    def recovered(self, stats: Optional[dict]) -> bool:
        if not stats or stats.get("pairs_window", 0) < self.min_pairs:
            return False
        for clause in self.clauses:
            value_pct = stats.get(_TRIGGER_METRICS[clause.metric])
            if value_pct is None:
                return False
            limit = clause.threshold * 100.0 * self.recovery_fraction
            if abs(value_pct) > limit:
                return False
        return True


class OnlineController:
    """Drives provisioning from a live interval stream.

    One :meth:`on_interval` call per closed planner slot, with the
    measured history up to and including that slot.  Drives the
    capacity-level move through the same
    :class:`~repro.squall.move.MoveTracker` as the batch capacity
    simulator, so a serve run and a batch run over the same trace are
    directly comparable: the simulator decides at the start of slot s
    (after appending its load) and moves during s, while serve decides
    at the close of s and moves from s+1 — the same series, one slot
    later (pinned by ``pstore check --suite serve-replay``).
    """

    def __init__(
        self,
        config: PStoreConfig,
        predictor,
        initial_machines: int = 2,
        max_machines: Optional[int] = None,
        trigger: Optional[ErrorTrigger] = None,
        telemetry=None,
    ) -> None:
        if initial_machines < 1:
            raise SimulationError("initial_machines must be >= 1")
        self.config = config
        self.predictor = predictor
        self.machines = initial_machines
        self.max_machines = max_machines
        self.trigger = trigger
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        # Registry slug of the forecaster (OnlinePredictor delegates
        # to its base), keying accuracy windows and chronicle records.
        self._predictor_name = (
            getattr(predictor, "name", "") or type(predictor).__name__
        )

        self._strategy: Optional[PStoreStrategy] = None
        self._reactive = ReactiveStrategy(
            config, max_machines=max_machines, scale_in_patience=6
        )
        self._reactive.reset(initial_machines)
        self._ensure_strategy()
        #: "warmup" (predictor unfitted / history short), "predictive",
        #: or "reactive" (error-triggered fallback).
        self.mode = "predictive" if self._predictive_ready([]) else "warmup"

        self.move = MoveTracker(config, self._telemetry)
        self._fa_record_id: Optional[str] = None

        #: ``(machines, eff Q-hat)`` at the midpoint of the last closed
        #: interval — the per-slot series the capacity simulator reports.
        self.slot_capacity: Optional[Tuple[int, float]] = None
        self.violations = 0
        self.trigger_fires = 0
        self.trigger_recoveries = 0
        self.intervals_seen = 0
        self.last_decision_reason = ""
        self.last_error_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    # Mode machinery
    # ------------------------------------------------------------------

    def _ensure_strategy(self) -> None:
        if self._strategy is None and self.predictor.is_fitted:
            self._strategy = PStoreStrategy(
                self.config, self.predictor, telemetry=self._telemetry
            )

    def _predictive_ready(self, history: Sequence[float]) -> bool:
        self._ensure_strategy()
        if self._strategy is None:
            return False
        return len(history) >= self._strategy.min_history or len(history) == 0

    @property
    def migrating(self) -> bool:
        return self.move.active

    @property
    def moves_started(self) -> int:
        return self.move.moves_started

    @property
    def emergencies(self) -> int:
        return self.move.emergencies

    def error_stats(self) -> Optional[dict]:
        tau = self.trigger.tau if self.trigger is not None else 1
        return self._telemetry.accuracy.errors(self._predictor_name, tau)

    # ------------------------------------------------------------------
    # The per-interval step
    # ------------------------------------------------------------------

    def on_interval(
        self, slot: int, history: Sequence[float], now: float
    ) -> None:
        """Process one closed planner interval.

        ``history`` is the measured tps series up to and including
        ``slot``; ``now`` is the slot's closing boundary in simulated
        seconds.  The monitor has already harvested this slot into the
        accuracy tracker (it does so on interval close), so trigger
        evaluation here sees fully up-to-date rolling stats.
        """
        tel = self._telemetry
        self.intervals_seen += 1
        tps = float(history[-1])
        slot_seconds = self.config.interval_seconds

        # Feed the learner (the batch service does the same per close).
        if isinstance(self.predictor, OnlinePredictor):
            self.predictor.observe(tps)
            self._ensure_strategy()
        if self.mode == "warmup" and self._predictive_ready(history):
            self.mode = "predictive"

        # Step the in-flight migration across the slot, sampling
        # effective capacity (Eq. 7) at the midpoint like the batch loop.
        machines_mid, _, eff_qhat = self.move.step_slot(
            self.machines, slot_seconds
        )
        self.slot_capacity = (machines_mid, eff_qhat)
        if self.move.done:
            self.machines = self.move.complete(now)
            if self._strategy is not None:
                self._strategy.notify_move_finished(self.machines)
            self._reactive.notify_move_finished(self.machines)

        if tel.enabled:
            tel.metrics.gauge("serve.machines").set(self._machines_now())
            tel.metrics.gauge("serve.eff_cap_tps").set(eff_qhat)
            if tps > eff_qhat + 1e-9:
                self.violations += 1
                tel.metrics.counter("serve.capacity_insufficient").inc()
                if self.migrating and self.move.record_id:
                    parent = self.move.record_id
                else:
                    parent = tel.chronicle.last("forecast.snapshot")
                tel.chronicle.record(
                    "capacity.insufficient",
                    time=now,
                    parent=parent,
                    slot=slot,
                    load_tps=tps,
                    peak_tps=tps,
                    eff_cap=eff_qhat,
                    machines=self._machines_now(),
                    migrating=self.migrating,
                )
        elif tps > eff_qhat + 1e-9:
            self.violations += 1

        # Accuracy-triggered mode transitions, then the planning cycle.
        self._check_trigger(history, slot, now)
        if not self.migrating:
            self._plan(history, slot, now)

    def _machines_now(self) -> int:
        if self.move.migration is not None:
            return self.move.migration.machines_allocated()
        return self.machines

    # ------------------------------------------------------------------
    # Error-triggered re-planning
    # ------------------------------------------------------------------

    def _check_trigger(
        self, history: Sequence[float], slot: int, now: float
    ) -> None:
        if self.trigger is None:
            return
        stats = self.error_stats()
        self.last_error_stats = stats
        tel = self._telemetry
        if self.mode == "predictive":
            breach = self.trigger.breach(stats)
            if breach is None:
                return
            self.trigger_fires += 1
            fa_id: Optional[str] = None
            if tel.enabled:
                rec = tel.chronicle.record(
                    "forecast.accuracy",
                    time=now,
                    parent=tel.chronicle.last("forecast.snapshot"),
                    predictor=self._predictor_name,
                    tau=self.trigger.tau,
                    metric=breach["metric"],
                    value_pct=breach["value_pct"],
                    threshold_pct=breach["threshold_pct"],
                    pairs=stats.get("pairs_window") if stats else None,
                    action="refit-replan-fallback",
                )
                fa_id = rec.get("id")
                tel.events.emit(
                    "serve.trigger",
                    time=now,
                    metric=breach["metric"],
                    value_pct=breach["value_pct"],
                    threshold_pct=breach["threshold_pct"],
                )
                tel.metrics.counter("serve.trigger_fired").inc()
            self._fa_record_id = fa_id
            refitted = False
            if isinstance(self.predictor, OnlinePredictor):
                refitted = self.predictor.refit_now()
            # The unscheduled re-plan: run the predictive cycle right now
            # with the (possibly refit) model, parenting its decision on
            # the accuracy record, then drop to reactive while the
            # rolling window stays hot.
            if self._strategy is not None and not self.migrating:
                self._strategy.controller.replan_parent = fa_id
                self._execute_decision(
                    self._strategy.decide(slot, history, self.machines),
                    now,
                    slot,
                )
            self.mode = "reactive"
            self._reactive.reset(self.machines)
            if tel.enabled:
                tel.events.emit(
                    "serve.mode",
                    time=now,
                    mode="reactive",
                    refitted=refitted,
                )
        elif self.mode == "reactive":
            # Shadow-forecast so the tracker keeps scoring the refit
            # model on live traffic; without it the window goes stale
            # and recovery could never be observed.
            self._shadow_forecast(history, now)
            if self.trigger.recovered(stats):
                self.trigger_recoveries += 1
                self.mode = "predictive"
                if tel.enabled:
                    tel.chronicle.record(
                        "forecast.accuracy",
                        time=now,
                        parent=self._fa_record_id,
                        predictor=self._predictor_name,
                        tau=self.trigger.tau,
                        action="recovered",
                        mape_pct=stats.get("mape_pct") if stats else None,
                        bias_pct=stats.get("bias_pct") if stats else None,
                    )
                    tel.events.emit("serve.mode", time=now, mode="predictive")
                    tel.metrics.counter("serve.trigger_recovered").inc()
                self._fa_record_id = None

    def _shadow_forecast(self, history: Sequence[float], now: float) -> None:
        tel = self._telemetry
        if not tel.enabled or not self.predictor.is_fitted:
            return
        tau = self.trigger.tau if self.trigger is not None else 1
        try:
            forecast = self.predictor.predict_horizon(history, tau)
        except PredictionError:
            return
        inflated = np.asarray(forecast) * self.config.prediction_inflation
        tel.accuracy.record_forecast(
            origin_slot=len(history) - 1,
            predicted=forecast,
            inflated=inflated,
            predictor=self._predictor_name,
            snapshot_id=None,
            time=now,
        )

    # ------------------------------------------------------------------
    # Planning + execution
    # ------------------------------------------------------------------

    def _plan(self, history: Sequence[float], slot: int, now: float) -> None:
        if self.mode == "predictive" and self._predictive_ready(history):
            if len(history) < self._strategy.min_history:
                return
            decision = self._strategy.decide(slot, history, self.machines)
        else:
            decision = self._reactive.decide(slot, history, self.machines)
            if decision.acts:
                decision = self._chronicle_reactive(decision, now)
        self._execute_decision(decision, now, slot)

    def _chronicle_reactive(
        self, decision: ScaleDecision, now: float
    ) -> ScaleDecision:
        """Reactive strategies don't chronicle; file the decision here so
        fallback actions stay walkable (parented on the accuracy breach
        that forced the fallback, when there is one)."""
        tel = self._telemetry
        if not tel.enabled:
            return decision
        kind = "reactive-fallback" if self.mode == "reactive" else "reactive-warmup"
        rec = tel.chronicle.record(
            "plan.decision",
            time=now,
            parent=self._fa_record_id,
            decision_kind=kind,
            reason=decision.reason,
            target_machines=decision.target_machines,
            emergency=decision.emergency,
            rate_multiplier=decision.rate_multiplier,
            machines=self.machines,
        )
        return replace(decision, record_id=rec.get("id"))

    def _execute_decision(
        self, decision: ScaleDecision, now: float, slot: int
    ) -> None:
        if not decision.acts or self.migrating:
            return
        target = decision.target_machines
        if self.max_machines is not None:
            target = min(target, self.max_machines)
        if target == self.machines or target < 1:
            return
        self.move.start(self.machines, target, decision, now, slot)
        self.last_decision_reason = decision.reason
        if self._telemetry.enabled:
            self._telemetry.metrics.counter("serve.moves_started").inc()
        if self._strategy is not None:
            self._strategy.notify_move_started(target)

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of all mutable controller state.

        The in-flight migration is stored as its *inputs* (see
        :meth:`~repro.squall.move.MoveTracker.state_dict`), restored by
        half-step replay.
        """
        strategy_doc = None
        if self._strategy is not None:
            inner = self._strategy.controller
            strategy_doc = {
                "scale_in_streak": inner._scale_in_streak,
                "last_snapshot_id": inner._last_snapshot_id,
            }
        return {
            "machines": self.machines,
            "mode": self.mode,
            "violations": self.violations,
            "moves_started": self.moves_started,
            "emergencies": self.emergencies,
            "trigger_fires": self.trigger_fires,
            "trigger_recoveries": self.trigger_recoveries,
            "intervals_seen": self.intervals_seen,
            "last_decision_reason": self.last_decision_reason,
            "fa_record_id": self._fa_record_id,
            "reactive_below_streak": self._reactive._below_streak,
            "strategy": strategy_doc,
            "migration": self.move.state_dict(),
        }

    def restore_state(self, doc: dict) -> None:
        """Rebuild from :meth:`state_dict` output.

        The predictor must already be restored (the plane restores it
        first), so the predictive strategy can be re-created here when
        the checkpointed mode needs one.
        """
        self.machines = int(doc["machines"])
        self.mode = str(doc.get("mode", "warmup"))
        self.violations = int(doc.get("violations", 0))
        self.move.moves_started = int(doc.get("moves_started", 0))
        self.move.emergencies = int(doc.get("emergencies", 0))
        self.trigger_fires = int(doc.get("trigger_fires", 0))
        self.trigger_recoveries = int(doc.get("trigger_recoveries", 0))
        self.intervals_seen = int(doc.get("intervals_seen", 0))
        self.last_decision_reason = str(doc.get("last_decision_reason", ""))
        self._fa_record_id = doc.get("fa_record_id")
        self._reactive.reset(self.machines)
        self._reactive._below_streak = int(doc.get("reactive_below_streak", 0))
        self._ensure_strategy()
        self.move.restore_state(doc.get("migration"))
        if self.move.active:
            if self._strategy is not None:
                self._strategy.notify_move_started(self.move.target)
            self._reactive.notify_move_started(self.move.target)
        # Strategy counters go last: the move-started notification above
        # zeroes the scale-in streak, and the checkpointed values are the
        # post-notification ones.
        strategy_doc = doc.get("strategy")
        if strategy_doc is not None:
            if self._strategy is None:
                raise SimulationError(
                    "checkpoint carries predictive-strategy state but the "
                    "restored predictor is not fitted"
                )
            inner = self._strategy.controller
            inner._scale_in_streak = int(strategy_doc.get("scale_in_streak", 0))
            inner._last_snapshot_id = strategy_doc.get("last_snapshot_id")

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, now: float, reason: str = "SIGINT") -> None:
        """Deterministic drain: a partially-applied migration round rolls
        back to its last committed boundary and the abort is chronicled,
        so the exported run directory never shows in-between state."""
        if not self.move.active:
            return
        self.move.abort(now, reason, rollback=True)
        if self._telemetry.enabled:
            self._telemetry.metrics.counter("serve.moves_aborted").inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        stats = self.last_error_stats
        return {
            "mode": self.mode,
            "machines": self._machines_now(),
            "steady_machines": self.machines,
            "migrating": self.migrating,
            "intervals": self.intervals_seen,
            "violations": self.violations,
            "moves_started": self.moves_started,
            "emergencies": self.emergencies,
            "trigger": self.trigger.describe() if self.trigger else None,
            "trigger_fires": self.trigger_fires,
            "trigger_recoveries": self.trigger_recoveries,
            "error_stats": stats,
            "last_decision": self.last_decision_reason,
            "predictor": self._predictor_name,
            "predictor_fitted": bool(self.predictor.is_fitted),
        }
