"""Fuzzing orchestrator: generate -> cross-check -> oracle -> shrink.

:func:`run_fuzz` is what ``repro-tagger fuzz`` drives. Each iteration
draws one scenario from the seeded generator, runs the static
differential cross-check (optionally with an injected fault, to prove
the harness catches regressions), and — within a configurable budget —
replays CBD-prone scenarios through the simulator oracle. Failing
scenarios are shrunk with delta debugging and persisted to the
regression corpus.

The report is JSON-serializable so CI and humans consume the same
artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.crosscheck import cross_check
from repro.fuzz.faults import check_fault_name, fault_row
from repro.fuzz.oracle import (
    OracleOutcome,
    Trigger,
    run_oracle,
    viable_triggers,
)
from repro.fuzz.scenarios import Scenario, ScenarioGenerator
from repro.fuzz.shrink import shrink_scenario
from repro.obs.events import EV_FUZZ_SCENARIO, EV_FUZZ_VIOLATION
from repro.obs.telemetry import Telemetry
from repro.simulator.sweep import run_sweep

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.detect.matrix import MatrixOutcome

#: The dynamic stages — the simulator replays :func:`run_fuzz` schedules
#: within its budgets — as ``(stage, invariants)`` rows shaped like
#: ``crosscheck.STAGES`` minus ``run``. ``oracle-strict`` is the part of
#: an oracle replay evaluated only under ``--strict-oracle``; ``harness``
#: is no stage but the sentinel recorded when one crashes.
DYNAMIC_STAGES: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    (
        "oracle",
        (("oracle-tagged-deadlock", "deadlock under the Tagger plan"),),
    ),
    (
        "oracle-strict",
        (("oracle-insensitive", "untagged control run never deadlocked"),),
    ),
    (
        "detect",
        (
            ("detect-latency", "confirmed deadlock not recovered in time"),
            ("detect-false-positive", "confirmation with no true cycle"),
        ),
    ),
    ("harness", (("harness-error", "a stage or replay raised"),)),
)


def _declared(stage: str) -> int:
    """How many invariants the dynamic stage called ``stage`` declares."""
    return len(dict(DYNAMIC_STAGES)[stage])


@dataclass
class FuzzConfig:
    """Knobs for one fuzzing run."""

    seed: int = 7
    iterations: int = 50
    #: Max scenarios replayed through the simulator (0 disables the stage).
    oracle_budget: int = 3
    #: Wall-clock cap in seconds (None = unlimited); checked per chunk.
    time_budget: Optional[float] = None
    shrink: bool = True
    #: Artificial bug injected into every iteration (harness self-test).
    inject_fault: Optional[str] = None
    #: Where shrunk counterexamples are written (None = don't persist).
    corpus_dir: Optional[str] = None
    #: Treat a non-deadlocking untagged control run as a violation.
    strict_oracle: bool = False
    oracle_duration: float = 0.2
    #: Max scenarios run through the head-to-head detection matrix
    #: (Tagger-on vs detection-only vs both; 0 disables the stage).
    detect_budget: int = 0
    detect_duration: float = 0.3
    #: Worker processes the scenario sweep fans out over (1 = inline).
    #: Any count produces the identical report (modulo
    #: ``elapsed_seconds``); with more than one worker the wall-clock
    #: time budget is enforced at chunk boundaries rather than per
    #: scenario.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.inject_fault is not None:
            check_fault_name(self.inject_fault)


@dataclass
class FuzzReport:
    """Machine-readable outcome of one fuzzing run.

    ``invariant_checks`` sums the declared invariants of the stages that
    **ran**: per scenario every ``crosscheck.STAGES`` row that returned
    no skip reason, per oracle replay the ``oracle`` row (plus
    ``oracle-strict`` under ``strict_oracle``), per detection-matrix
    replay the ``detect`` row. Skipped stages and crashed scenarios or
    replays count nothing.
    """

    config: FuzzConfig
    iterations_run: int = 0
    scenarios_by_kind: Dict[str, int] = field(default_factory=dict)
    invariant_checks: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)
    oracle_runs: int = 0
    oracle_skips: int = 0
    oracle_control_deadlocks: int = 0
    oracle_misses: List[str] = field(default_factory=list)
    detect_runs: int = 0
    detect_skips: int = 0
    detect_deadlocks: int = 0
    detect_matrix: List[Dict[str, Any]] = field(default_factory=list)
    corpus_entries: List[CorpusEntry] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Optional observability hookup (pure observer; not serialized).
    #: Every recorded violation also becomes a ``fuzz.violation`` event
    #: plus a per-invariant counter via :meth:`note_violation`, the one
    #: choke point all violation appends go through.
    telemetry: Optional[Telemetry] = field(
        default=None, repr=False, compare=False
    )

    def note_violation(
        self, scenario_id: str, invariant: str, detail: str, now: float = 0.0
    ) -> None:
        self.violations.append(
            {
                "scenario_id": scenario_id,
                "invariant": invariant,
                "detail": detail,
            }
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                EV_FUZZ_VIOLATION,
                time=now,
                scenario=scenario_id,
                invariant=invariant,
            )
            self.telemetry.registry.counter(
                "fuzz_violations_total",
                "Invariant violations found, by invariant.",
                labelnames=("invariant",),
            ).inc(invariant=invariant)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fault_caught(self) -> bool:
        """With an injected fault: did an invariant its row ``trips`` fire?

        A ``harness-error`` or an unrelated invariant is reported but is
        not a catch.
        """
        if self.config.inject_fault is None:
            return False
        trips = fault_row(self.config.inject_fault).trips
        return any(v["invariant"] in trips for v in self.violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "iterations": self.iterations_run,
            "inject_fault": self.config.inject_fault,
            "scenarios_by_kind": dict(sorted(self.scenarios_by_kind.items())),
            "invariant_checks": self.invariant_checks,
            "violations": self.violations,
            "oracle": {
                "runs": self.oracle_runs,
                "skips": self.oracle_skips,
                "control_deadlocks": self.oracle_control_deadlocks,
                "misses": self.oracle_misses,
            },
            "detect": {
                "runs": self.detect_runs,
                "skips": self.detect_skips,
                "deadlocks": self.detect_deadlocks,
                "matrix": self.detect_matrix,
            },
            "corpus_entries": [
                {"id": e.entry_id, "path": e.path, "violations": e.violations}
                for e in self.corpus_entries
            ],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "CLEAN" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.scenarios_by_kind.items())
        )
        return (
            f"{verdict}: {self.iterations_run} scenario(s) [{kinds}], "
            f"{self.invariant_checks} invariant checks, oracle "
            f"{self.oracle_runs} run(s) / {self.oracle_control_deadlocks} "
            f"control deadlock(s), detect matrix {self.detect_runs} "
            f"run(s) / {self.detect_deadlocks} deadlock(s), "
            f"{len(self.corpus_entries)} corpus "
            f"entr(y/ies), {self.elapsed_seconds:.1f}s"
        )


#: Static-phase task: (scenario, injected fault, search for triggers?).
_StaticTask = Tuple[Scenario, Optional[str], bool]
#: Dynamic-phase task: ("oracle" | "detect", scenario, config, triggers).
_DynamicTask = Tuple[str, Scenario, FuzzConfig, List[Trigger]]


def _static_worker(task: _StaticTask) -> Dict[str, Any]:
    """Static-phase sweep worker: cross-check plus the viable triggers.

    Module-level (fork-pool discipline); returns a compact picklable
    dict. A ``ReproError`` is a harness error reported with its own
    text; any other exception reaches the fold as the sweep's
    structured worker-error. The trigger search runs only when a
    dynamic stage still has budget (``want_triggers``) and the scenario
    passed the static checks.
    """
    scenario, fault, want_triggers = task
    try:
        result = cross_check(scenario, fault=fault)
    except ReproError as exc:
        return {"error": str(exc)}
    triggers: List[Trigger] = []
    if want_triggers and result.ok:
        topo = scenario.build_topology()
        elp = scenario.build_elp(topo)
        triggers, _ = viable_triggers(topo, elp.paths)
    return {
        "error": None,
        "ok": result.ok,
        "checks": result.checks,
        "details": [str(v) for v in result.violations],
        "triggers": triggers,
    }


def _dynamic_worker(task: _DynamicTask) -> Any:
    """Dynamic-phase sweep worker: one oracle or detection-matrix replay.

    The matrix's ``ReproError`` is a harness error reported with its
    own text (returned as a dict); every other exception reaches the
    fold as the sweep's structured worker-error.
    """
    kind, scenario, config, triggers = task
    if kind == "oracle":
        return run_oracle(
            scenario, duration=config.oracle_duration, triggers=triggers
        )
    from repro.detect.matrix import detection_matrix

    try:
        return detection_matrix(
            scenario,
            duration=config.detect_duration,
            seed=config.seed,
            triggers=triggers,
        )
    except ReproError as exc:
        return {"harness_error": str(exc)}


def run_fuzz(
    config: FuzzConfig, telemetry: Optional[Telemetry] = None
) -> FuzzReport:
    """Run the full differential fuzzing loop.

    One chunked loop serves every worker count. Each chunk runs:

    1. **static phase** — the cross-check (plus the trigger search) of
       every scenario in the chunk, through
       :func:`repro.simulator.sweep.run_sweep`;
    2. **assignment** — one pass over the static results, in scenario
       order, that spends the oracle / detection budgets: a scenario
       that passed the static checks takes a stage's budget when its
       viable-trigger list is non-empty and counts as a skip otherwise;
    3. **dynamic phase** — the assigned simulator replays, through
       ``run_sweep`` again;
    4. **fold** — one pass in scenario order that owns *every* report
       mutation.

    Because the fold owns all mutations and runs in scenario order, the
    report does not depend on ``config.workers`` (modulo
    ``elapsed_seconds``); ``tests/fuzz/test_parallel.py`` pins this. At
    ``workers=1`` the sweep runs inline and a chunk is one scenario, so
    the time budget is checked before every scenario; with more workers
    a chunk is ``4 * workers`` scenarios and the budget is checked at
    chunk boundaries. An exception escaping a worker is recorded as a
    ``harness-error`` violation at every worker count.
    """
    started = time.monotonic()
    report = FuzzReport(config=config, telemetry=telemetry)
    generator = ScenarioGenerator(config.seed)
    budget_left = {
        "oracle": config.oracle_budget,
        "detect": config.detect_budget,
    }
    chunk_size = 1 if config.workers <= 1 else 4 * config.workers
    produced = 0

    while produced < config.iterations:
        if (
            config.time_budget is not None
            and time.monotonic() - started > config.time_budget
        ):
            break
        count = min(chunk_size, config.iterations - produced)
        scenarios = [next(generator) for _ in range(count)]
        want_triggers = any(left > 0 for left in budget_left.values())
        static_results = run_sweep(
            _static_worker,
            [(s, config.inject_fault, want_triggers) for s in scenarios],
            workers=config.workers,
            seed=config.seed + produced,
        )

        # Assignment pass: the only place the budgets are spent. A key
        # in ``slot`` means the stage had budget when the scenario came
        # up; its value is the replay's task index, or None for a skip.
        dynamic_tasks: List[_DynamicTask] = []
        slot: Dict[Tuple[str, int], Optional[int]] = {}
        for i, static in enumerate(static_results):
            if not (
                static.ok
                and static.value["error"] is None
                and static.value["ok"]
            ):
                continue  # a statically broken scenario feeds no replay
            triggers = static.value["triggers"]
            for kind in ("oracle", "detect"):
                if budget_left[kind] <= 0:
                    continue
                if not triggers:
                    slot[(kind, i)] = None
                    continue
                budget_left[kind] -= 1
                slot[(kind, i)] = len(dynamic_tasks)
                dynamic_tasks.append((kind, scenarios[i], config, triggers))
        dynamic_results = run_sweep(
            _dynamic_worker,
            dynamic_tasks,
            workers=config.workers,
            seed=config.seed + produced,
        )

        # Fold: one pass in scenario order owns every report mutation.
        for i, scenario in enumerate(scenarios):
            iteration = produced + i
            elapsed = time.monotonic() - started
            _note_scenario(report, scenario, elapsed)
            static = static_results[i]
            error = (
                static.value["error"]
                if static.ok
                else f"{static.error_kind}: {static.error}"
            )
            if error is not None:
                report.note_violation(
                    scenario.scenario_id, "harness-error", error, now=elapsed
                )
                continue
            report.invariant_checks += static.value["checks"]
            if not static.value["ok"]:
                _record_failure(
                    report,
                    scenario,
                    static.value["details"],
                    iteration,
                    now=elapsed,
                )
                continue

            for kind in ("oracle", "detect"):
                if (kind, i) not in slot:
                    continue  # the stage's budget is spent
                index = slot[(kind, i)]
                if index is None:
                    if kind == "oracle":
                        report.oracle_skips += 1
                    else:
                        report.detect_skips += 1
                    continue
                res = dynamic_results[index]
                if not res.ok:
                    report.note_violation(
                        scenario.scenario_id,
                        "harness-error",
                        f"{kind} {res.error_kind}: {res.error}",
                        now=elapsed,
                    )
                elif isinstance(res.value, dict):
                    report.note_violation(
                        scenario.scenario_id,
                        "harness-error",
                        res.value["harness_error"],
                        now=elapsed,
                    )
                elif kind == "oracle":
                    _apply_oracle_outcome(
                        report, scenario, res.value, iteration, now=elapsed
                    )
                else:
                    _apply_matrix_outcome(
                        report, scenario, res.value, now=elapsed
                    )
        produced += count

    return _finalize_report(report, telemetry, started)


def _note_scenario(
    report: FuzzReport, scenario: Scenario, elapsed: float
) -> None:
    """Count one drawn scenario and mirror it onto the telemetry bus."""
    report.iterations_run += 1
    report.scenarios_by_kind[scenario.kind] = (
        report.scenarios_by_kind.get(scenario.kind, 0) + 1
    )
    telemetry = report.telemetry
    if telemetry is not None:
        telemetry.emit(
            EV_FUZZ_SCENARIO,
            time=elapsed,
            scenario=scenario.scenario_id,
            scenario_kind=scenario.kind,
        )
        telemetry.registry.counter(
            "fuzz_scenarios_total",
            "Scenarios generated, by kind.",
            labelnames=("kind",),
        ).inc(kind=scenario.kind)


def _finalize_report(
    report: FuzzReport, telemetry: Optional[Telemetry], started: float
) -> FuzzReport:
    report.elapsed_seconds = time.monotonic() - started
    if telemetry is not None:
        telemetry.registry.counter(
            "fuzz_invariant_checks_total",
            "Invariant evaluations performed (stages that ran).",
        ).inc(report.invariant_checks)
        telemetry.registry.gauge(
            "fuzz_elapsed_seconds", "Wall seconds the last fuzz run took."
        ).set(report.elapsed_seconds)
    return report


def _apply_oracle_outcome(
    report: FuzzReport,
    scenario: Scenario,
    outcome: OracleOutcome,
    iteration: int,
    now: float = 0.0,
) -> None:
    """Fold one oracle outcome into the report."""
    config = report.config
    report.oracle_runs += 1
    report.invariant_checks += _declared("oracle")
    if config.strict_oracle:
        report.invariant_checks += _declared("oracle-strict")
    if outcome.control_deadlocked:
        report.oracle_control_deadlocks += 1
    else:
        report.oracle_misses.append(scenario.scenario_id)
        if config.strict_oracle:
            report.note_violation(
                scenario.scenario_id,
                "oracle-insensitive",
                "untagged control run with a CBD path pair "
                "did not deadlock",
                now=now,
            )
    if outcome.tagged_deadlocked:
        _record_failure(
            report,
            scenario,
            [
                "oracle-tagged-deadlock: simulator found a "
                f"wait-for cycle under the Tagger plan "
                f"(trigger={outcome.trigger_pair}, "
                f"pairs_tried={outcome.pairs_tried})"
            ],
            iteration,
            shrinkable=False,
            now=now,
        )


def _apply_matrix_outcome(
    report: FuzzReport,
    scenario: Scenario,
    outcome: "MatrixOutcome",
    now: float = 0.0,
) -> None:
    """Fold one detection-matrix outcome into the report.

    Evaluates the ``detect`` row's two invariants:

    - ``detect-latency`` on the Tagger-disabled cell whenever the
      ground-truth oracle confirmed a deadlock: the local detector must
      confirm within the matrix latency bound and quarantine must
      restore forward progress;
    - ``detect-false-positive`` on every cell whose ground truth stayed
      cycle-free (including the dedicated transient-congestion cell):
      the detector must report zero confirmations.
    """
    from repro.detect.matrix import false_positive_cells

    report.detect_runs += 1
    report.invariant_checks += _declared("detect")
    summary = outcome.to_dict()
    summary["scenario_id"] = scenario.scenario_id
    report.detect_matrix.append(summary)

    cell = outcome.cell("detect")
    if cell is not None and cell.oracle_deadlocked:
        report.detect_deadlocks += 1
        latency = cell.detection_latency
        if cell.confirms < 1 or latency is None:
            report.note_violation(
                scenario.scenario_id,
                "detect-latency",
                f"detect-latency: oracle confirmed a deadlock at "
                f"t={cell.oracle_first_cycle_time} but the local detector "
                f"never confirmed",
                now=now,
            )
        elif latency > outcome.latency_bound:
            report.note_violation(
                scenario.scenario_id,
                "detect-latency",
                f"detect-latency: detection latency {latency:.6f}s "
                f"exceeds bound {outcome.latency_bound:.6f}s",
                now=now,
            )
        elif not cell.progress_restored:
            report.note_violation(
                scenario.scenario_id,
                "detect-latency",
                f"detect-latency: quarantine did not restore forward "
                f"progress (deadlocked_at_end="
                f"{cell.oracle_deadlocked_at_end}, delivered "
                f"{cell.delivered_at_confirm} -> {cell.delivered_end})",
                now=now,
            )
    for fp_cell in false_positive_cells(outcome):
        if fp_cell.confirms > 0:
            report.note_violation(
                scenario.scenario_id,
                "detect-false-positive",
                f"detect-false-positive: cell {fp_cell.name!r} had "
                f"{fp_cell.confirms} confirmation(s) with no "
                f"ground-truth cycle",
                now=now,
            )


def _record_failure(
    report: FuzzReport,
    scenario: Scenario,
    details: List[str],
    iteration: int,
    shrinkable: bool = True,
    now: float = 0.0,
) -> None:
    """Record ``"<invariant>: ..."`` details; shrink and persist if asked."""
    config = report.config
    names = [detail.split(":", 1)[0] for detail in details]
    for name, detail in zip(names, details):
        report.note_violation(scenario.scenario_id, name, detail, now=now)
    if not (config.shrink and shrinkable and config.corpus_dir):
        return
    invariants = sorted(set(names))
    try:
        shrunk, still = shrink_scenario(
            scenario, fault=config.inject_fault, targets=invariants
        )
    except ReproError:
        shrunk, still = scenario, invariants
    entry = save_entry(
        config.corpus_dir,
        shrunk,
        violations=still or invariants,
        inject_fault=config.inject_fault,
        found_by={"seed": config.seed, "iteration": iteration},
    )
    report.corpus_entries.append(entry)


def replay_entry(entry: CorpusEntry) -> Dict[str, Any]:
    """Replay one corpus entry both ways (with and without its fault).

    Returns a dict with ``reproduced`` (the recorded violations fire
    with the fault injected) and ``clean_without_fault`` (the healthy
    pipeline passes on the same scenario).
    """
    with_fault = cross_check(entry.scenario, fault=entry.inject_fault)
    if entry.inject_fault is None:
        # A real-bug entry: after the fix that closed it, it must replay
        # clean forever.
        return {
            "id": entry.entry_id,
            "reproduced": None,
            "clean_without_fault": with_fault.ok,
            "violations_seen": with_fault.invariants_violated(),
            "ok": with_fault.ok,
        }
    clean = cross_check(entry.scenario, fault=None)
    reproduced = bool(
        set(entry.violations) & set(with_fault.invariants_violated())
    )
    return {
        "id": entry.entry_id,
        "reproduced": reproduced,
        "clean_without_fault": clean.ok,
        "violations_seen": with_fault.invariants_violated(),
        "ok": reproduced and clean.ok,
    }
