"""Head-to-head detection matrix: Tagger-on vs detection-only vs both.

One fuzz scenario, one CBD trigger recipe (the Fig. 10 throttle, as the
dynamic oracle runs it), three fabrics:

- ``tagger``   — the scenario's Tagger plan, detector observing
  (prevention should leave the detector nothing to confirm);
- ``detect``   — plain PFC, detector + quarantine recovery (prevention
  off: the deadlock forms, must be detected and broken);
- ``both``     — Tagger plan *and* the full detection/quarantine/
  rollback loop (belt and braces).

Every cell runs the seeded :class:`~repro.simulator.deadlock.
OracleSampler` alongside, so detector-vs-oracle latency is measured on
one consistent clock. A fourth, ``transient`` cell replays congestion
that cannot form a cycle (a single leg of the trigger pair) — the
false-positive control the fuzz harness asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.detect.arbiter import RecoveryArbiter
from repro.detect.coordinator import RecoveryCoordinator
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fuzz.oracle import Trigger
    from repro.fuzz.scenarios import Scenario
    from repro.simulator.detection import DetectorConfig


@dataclass
class CellResult:
    """One fabric's run: oracle ground truth vs detector behaviour."""

    name: str
    #: Oracle (ground truth) facts, on the sampler's seeded clock.
    oracle_deadlocked: bool = False
    oracle_first_cycle_time: Optional[float] = None
    oracle_deadlocked_at_end: bool = False
    #: Detector facts.
    confirms: int = 0
    first_confirm_time: Optional[float] = None
    suspects: int = 0
    clears: Dict[str, int] = field(default_factory=dict)
    #: Recovery facts.
    quarantines: int = 0
    packets_moved: int = 0
    rearms: int = 0
    rollback_outcomes: Dict[str, str] = field(default_factory=dict)
    delivered_at_confirm: Optional[int] = None
    delivered_end: int = 0
    lossless_drops: int = 0

    @property
    def detection_latency(self) -> Optional[float]:
        """First confirm minus first oracle sighting (same sim clock)."""
        if self.first_confirm_time is None:
            return None
        if self.oracle_first_cycle_time is None:
            return None
        return self.first_confirm_time - self.oracle_first_cycle_time

    @property
    def progress_restored(self) -> bool:
        """Did delivery resume after the confirm, with no live cycle left?"""
        if self.delivered_at_confirm is None:
            return False
        return (
            self.delivered_end > self.delivered_at_confirm
            and not self.oracle_deadlocked_at_end
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "oracle_deadlocked": self.oracle_deadlocked,
            "oracle_first_cycle_time": self.oracle_first_cycle_time,
            "oracle_deadlocked_at_end": self.oracle_deadlocked_at_end,
            "confirms": self.confirms,
            "first_confirm_time": self.first_confirm_time,
            "detection_latency": self.detection_latency,
            "suspects": self.suspects,
            "clears": dict(sorted(self.clears.items())),
            "quarantines": self.quarantines,
            "packets_moved": self.packets_moved,
            "rearms": self.rearms,
            "rollbacks": dict(sorted(self.rollback_outcomes.items())),
            "progress_restored": self.progress_restored,
            "delivered_end": self.delivered_end,
            "lossless_drops": self.lossless_drops,
        }


@dataclass
class MatrixOutcome:
    """The whole matrix for one scenario."""

    ran: bool
    reason: str = ""
    pairs_tried: int = 0
    cells: Dict[str, CellResult] = field(default_factory=dict)
    #: Upper bound on acceptable detect-vs-oracle latency (what the
    #: fuzzer's ``detect-latency`` invariant asserts).
    latency_bound: float = 0.0

    def cell(self, name: str) -> Optional[CellResult]:
        return self.cells.get(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ran": self.ran,
            "reason": self.reason,
            "pairs_tried": self.pairs_tried,
            "latency_bound": self.latency_bound,
            "cells": {
                name: cell.to_dict()
                for name, cell in sorted(self.cells.items())
            },
        }


def latency_bound_for(
    detector_config: "DetectorConfig", oracle_period: float
) -> float:
    """Worst acceptable (first confirm - first oracle sighting).

    The detector needs ``confirm_scans`` consecutive re-observations
    after the loop closes; the oracle may have sampled the cycle up to
    one period earlier. One extra scan of slack absorbs chain
    propagation (PFC delays are microseconds against millisecond
    polls).
    """
    return (
        detector_config.poll * (detector_config.confirm_scans + 1)
        + oracle_period
    )


def run_cell(
    name: str,
    topo: Any,
    legs: Any,
    duration: float,
    plan: Any = None,
    quarantine: bool = True,
    rollback: bool = False,
    detector_config: Optional["DetectorConfig"] = None,
    oracle_period: float = 0.005,
    seed: int = 0,
) -> CellResult:
    """Run one fabric with detector + sampler and collect the facts."""
    from repro.detect.rollback import RolloutDriver
    from repro.fuzz.oracle import drive_trigger
    from repro.routing.shortest import shortest_path_tables
    from repro.simulator.deadlock import OracleSampler
    from repro.simulator.detection import DeadlockDetector, DetectorConfig
    from repro.simulator.network import SimNetwork

    config = detector_config or DetectorConfig()
    table = shortest_path_tables(topo)
    if plan is not None:
        net = SimNetwork.with_plan(topo, table, plan)
    else:
        net = SimNetwork(topo, table)
    sampler = OracleSampler(net, period=oracle_period, seed=seed)
    sampler.install()
    detector = DeadlockDetector(net, config)
    result = CellResult(name=name)
    if quarantine:
        driver = None
        if rollback and plan is not None:
            driver = RolloutDriver(topo, plan.tables, seed=seed)
        coordinator = RecoveryCoordinator(
            net, arbiter=RecoveryArbiter(), rollout_driver=driver
        )

        def _on_confirm(detection: Any) -> None:
            if result.delivered_at_confirm is None:
                result.delivered_at_confirm = sum(
                    net.metrics.delivered_packets.values()
                )
            coordinator.on_confirm(detection)

        detector.on_confirm = _on_confirm
    else:
        coordinator = None

        def _observe_confirm(detection: Any) -> None:
            if result.delivered_at_confirm is None:
                result.delivered_at_confirm = sum(
                    net.metrics.delivered_packets.values()
                )

        detector.on_confirm = _observe_confirm
    detector.install()
    drive_trigger(net, legs, duration)

    result.oracle_deadlocked = sampler.deadlock_seen
    result.oracle_first_cycle_time = sampler.first_cycle_time
    result.oracle_deadlocked_at_end = sampler.deadlocked_at_end()
    result.confirms = detector.confirms
    result.first_confirm_time = detector.first_confirm_time()
    result.suspects = detector.suspects_raised
    result.clears = detector.clear_reasons()
    result.delivered_end = sum(net.metrics.delivered_packets.values())
    result.lossless_drops = net.metrics.drops.get("lossless_overflow", 0)
    if coordinator is not None:
        result.quarantines = len(coordinator.quarantines)
        result.packets_moved = sum(
            q.moved for q in coordinator.quarantines
        )
        result.rearms = coordinator.rearms
        result.rollback_outcomes = dict(coordinator.rollback_outcomes)
    return result


def detection_matrix(
    scenario: "Scenario",
    duration: float = 0.3,
    detector_config: Optional["DetectorConfig"] = None,
    oracle_period: float = 0.005,
    max_pairs: int = 8,
    seed: int = 0,
    triggers: Optional[List["Trigger"]] = None,
) -> MatrixOutcome:
    """Run the full head-to-head matrix for one fuzz scenario.

    The viable triggers (the dynamic oracle's search,
    :func:`repro.fuzz.oracle.viable_triggers`, handed in through
    ``triggers`` when the caller already ran it) are tried through the
    ``detect`` cell until one actually deadlocks; the Tagger cells then
    replay that trigger. The ``transient`` cell always runs when any
    viable pair exists.
    """
    from repro.fuzz.oracle import plan_for, viable_triggers
    from repro.simulator.detection import DetectorConfig

    config = detector_config or DetectorConfig()
    topo = scenario.build_topology()
    elp = scenario.build_elp(topo)
    if triggers is None:
        triggers, skip_reason = viable_triggers(
            topo, elp.paths, max_pairs=max_pairs
        )
        if not triggers:
            return MatrixOutcome(ran=False, reason=skip_reason)
    viable = [legs for _pair, legs in triggers]

    outcome = MatrixOutcome(
        ran=True,
        latency_bound=latency_bound_for(config, oracle_period),
    )
    detect_cell: Optional[CellResult] = None
    trigger_legs = None
    for legs in viable:
        outcome.pairs_tried += 1
        cell = run_cell(
            "detect",
            topo,
            legs,
            duration,
            plan=None,
            quarantine=True,
            detector_config=config,
            oracle_period=oracle_period,
            seed=seed,
        )
        detect_cell = cell
        if cell.oracle_deadlocked:
            trigger_legs = legs
            break
    assert detect_cell is not None
    outcome.cells["detect"] = detect_cell

    # False-positive control: one leg of the (last-tried) pair is a
    # congestion tree — same throttle, no cycle to close.
    transient_legs = [viable[0][0]]
    outcome.cells["transient"] = run_cell(
        "transient",
        topo,
        transient_legs,
        duration,
        plan=None,
        quarantine=True,
        detector_config=config,
        oracle_period=oracle_period,
        seed=seed,
    )

    if trigger_legs is not None:
        try:
            plan = plan_for(scenario, topo, elp)
        except ReproError as exc:
            outcome.reason = f"no plan for scenario: {exc}"
            return outcome
        outcome.cells["tagger"] = run_cell(
            "tagger",
            topo,
            trigger_legs,
            duration,
            plan=plan,
            quarantine=False,
            detector_config=config,
            oracle_period=oracle_period,
            seed=seed,
        )
        outcome.cells["both"] = run_cell(
            "both",
            topo,
            trigger_legs,
            duration,
            plan=plan,
            quarantine=True,
            rollback=True,
            detector_config=config,
            oracle_period=oracle_period,
            seed=seed,
        )
    return outcome


def false_positive_cells(outcome: MatrixOutcome) -> List[CellResult]:
    """Cells whose ground truth showed *no* cycle (FP assertion targets)."""
    return [
        cell
        for cell in outcome.cells.values()
        if not cell.oracle_deadlocked
    ]
