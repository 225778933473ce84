"""Fault-tolerant rollout of rule-table transitions (paper §7).

:class:`RolloutOrchestrator` takes a fleet of deployed tables and a
target plan and drives the transition over a lossy management network:

1. **Plan waves.** Switches with non-empty diffs are grouped into waves
   by topology layer, core first (spine → leaf → ToR), chunked to
   ``max_wave_size``. Updating the core first means the switches whose
   rules fan out widest settle while the edge still runs the old,
   certified tables.
2. **Certify the transition.** The wave ordering goes through
   :func:`~repro.deploy.verifier.certify_rollout` *before any RPC is
   sent*. If the certificate fails, the orchestrator retries with
   singleton waves (the finest ordering); if that fails too, the rollout
   is **refused** — zero RPCs, fleet untouched.
3. **Execute.** Each wave's diffs are compiled to idempotent batches
   (one epoch per wave, batch ids reused across retries) and pushed with
   capped exponential backoff + jitter on a virtual clock. Acked
   switches are readback-verified; a divergent readback triggers a
   reconcile batch. A per-switch circuit breaker opens after too many
   consecutive failures.
4. **Degrade or roll back.** A switch that exhausts its budget is
   *quarantined* — demoted to safeguard-only (lossy) mode by wiping
   every rule the transition touches, or simply left behind if even the
   wipe cannot be delivered — provided the certificate covers straggler
   states. Otherwise the whole fleet rolls back to the last certified
   plan under a fresh (higher) epoch, so late reordered deliveries of
   superseded wave batches bounce off the agents' stale-epoch guard.
5. **Verify the outcome.** Final tables are read from the agents (ground
   truth, not the orchestrator's beliefs), compared against the target,
   and linted.

All delays are simulated time: the orchestrator never sleeps, so chaos
sweeps of hundreds of schedules run in seconds while still exercising
real backoff arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.pipeline import QueueMap
from repro.core.rules import MatchKey, RuleDiff, RuleTable, diff_tables, tables_equal
from repro.deploy.agent import (
    ACK_STALE,
    ApplyBatch,
    ApplyOp,
    OP_REMOVE,
    OP_SET,
    SwitchAgent,
    fleet_from_tables,
    ops_from_diff,
    ops_to_table,
)
from repro.deploy.transport import FaultPlan, ManagementNetwork
from repro.deploy.verifier import (
    TransitionCertificate,
    certify_rollout,
    transition_queue_map,
)
from repro.exceptions import DeploymentError
from repro.lint import LintSections, lint_tables
from repro.obs.events import (
    EV_DEPLOY_BREAKER_CLOSE,
    EV_DEPLOY_BREAKER_OPEN,
    EV_DEPLOY_OUTCOME,
    EV_DEPLOY_QUARANTINE,
    EV_DEPLOY_RETRY,
    EV_DEPLOY_ROLLBACK,
    EV_DEPLOY_RPC,
)
from repro.obs.instrument import observe_timings
from repro.obs.telemetry import Telemetry
from repro.perf.timing import StageTimer
from repro.topology.base import Topology

Tables = Dict[str, RuleTable]

#: Terminal rollout outcomes.
CONVERGED = "converged"  # every switch runs the target plan
DEGRADED = "degraded"  # target deployed, stuck switches quarantined
ROLLED_BACK = "rolled-back"  # fleet restored to the old certified plan
REFUSED = "refused"  # transition not certifiable; no RPC sent
FAILED = "failed"  # budget exhausted with the fleet in limbo

#: Outcomes in which the fleet provably runs a certified, R1/R2-safe
#: plan (possibly with lossy quarantined stragglers).
SAFE_OUTCOMES = (CONVERGED, DEGRADED, ROLLED_BACK, REFUSED)


@dataclass(frozen=True)
class RolloutConfig:
    """Retry, backoff, wave and degradation policy."""

    max_attempts: int = 8
    #: Retry budget for the rollback path. Rollback is the last-ditch
    #: safety action: it runs with its own (deliberately generous)
    #: budget and with the circuit breaker suspended, so a tight rollout
    #: budget cannot starve the restore that follows its own failure.
    rollback_attempts: int = 16
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.1
    max_wave_size: int = 8
    breaker_threshold: int = 6
    quarantine: bool = True
    lint_boundaries: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DeploymentError("max_attempts must be >= 1")
        if self.rollback_attempts < 1:
            raise DeploymentError("rollback_attempts must be >= 1")
        if self.max_wave_size < 1:
            raise DeploymentError("max_wave_size must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise DeploymentError("backoff parameters must be >= 0")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (1-based): capped exponential
        with multiplicative jitter, on the virtual clock."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SwitchOutcome:
    """Per-switch rollout bookkeeping, exposed for tests and reports."""

    switch: str
    attempts: int = 0
    reconciles: int = 0
    quarantined: bool = False
    rolled_back: bool = False
    converged: bool = False
    breaker_open: bool = False
    detail: str = ""


@dataclass
class RolloutReport:
    """Everything a rollout did and proved."""

    outcome: str = FAILED
    detail: str = ""
    certificate: Optional[TransitionCertificate] = None
    waves: List[List[str]] = field(default_factory=list)
    switch_outcomes: Dict[str, SwitchOutcome] = field(default_factory=dict)
    quarantined: List[str] = field(default_factory=list)
    rpc_count: int = 0
    #: Batch re-sends: attempts beyond the first for any logical batch.
    #: Counted at the exact point a ``deploy.retry`` telemetry event is
    #: emitted, so stream and report reconcile by construction.
    retries: int = 0
    #: Fleet-wide rollback operations (0 or 1 per run); incremented at
    #: the same point the ``deploy.rollback`` event is emitted.
    rollbacks: int = 0
    epochs_used: int = 0
    virtual_time: float = 0.0
    final_lint_ok: bool = False
    final_matches_target: bool = False
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the fleet ended on a certified plan (incl. refusal)."""
        return self.outcome in SAFE_OUTCOMES

    @property
    def converged(self) -> bool:
        return self.outcome in (CONVERGED, DEGRADED)

    def describe(self) -> str:
        lines = [
            f"outcome: {self.outcome} — {self.detail}",
            f"waves: {len(self.waves)}, rpcs: {self.rpc_count}, "
            f"epochs: {self.epochs_used}, "
            f"virtual time: {self.virtual_time:.3f}s",
        ]
        if self.certificate is not None:
            lines.append(f"certificate: {self.certificate.describe()}")
        if self.quarantined:
            lines.append(f"quarantined: {', '.join(self.quarantined)}")
        lines.append(
            f"final tables: lint {'OK' if self.final_lint_ok else 'DIRTY'}, "
            f"{'match' if self.final_matches_target else 'do not match'} target"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "ok": self.ok,
            "waves": [list(w) for w in self.waves],
            "quarantined": list(self.quarantined),
            "rpc_count": self.rpc_count,
            "retries": self.retries,
            "rollbacks": self.rollbacks,
            "epochs_used": self.epochs_used,
            "virtual_time": self.virtual_time,
            "final_lint_ok": self.final_lint_ok,
            "final_matches_target": self.final_matches_target,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
            "timings": dict(self.timings),
        }


def plan_waves(
    topo: Topology,
    diffs: Dict[str, RuleDiff],
    max_wave_size: int,
) -> List[List[str]]:
    """Dependency-ordered waves: higher layers (core) first, chunked.

    Unlayered switches sort after layered ones, alphabetically.
    """
    def sort_key(switch: str) -> Tuple[int, str]:
        layer = topo.layer_of(switch) if switch in topo.nodes else None
        return (-(layer if layer is not None else -(10**6)), switch)

    ordered = sorted((s for s in diffs if not diffs[s].is_empty), key=sort_key)
    waves: List[List[str]] = []
    current: List[str] = []
    current_layer: Optional[int] = None
    for switch in ordered:
        layer = topo.layer_of(switch) if switch in topo.nodes else None
        if current and (layer != current_layer or len(current) >= max_wave_size):
            waves.append(current)
            current = []
        current.append(switch)
        current_layer = layer
    if current:
        waves.append(current)
    return waves


class RolloutOrchestrator:
    """Drives one table transition over a (possibly faulty) fleet."""

    def __init__(
        self,
        topo: Topology,
        old: Tables,
        new: Tables,
        config: Optional[RolloutConfig] = None,
        faults: Optional[FaultPlan] = None,
        agents: Optional[Dict[str, SwitchAgent]] = None,
        network: Optional[ManagementNetwork] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topo = topo
        self.old = old
        self.new = new
        self.config = config or RolloutConfig()
        if agents is None:
            agents = fleet_from_tables(
                old, extra_switches=tuple(sorted(set(new) - set(old)))
            )
        if network is None:
            network = ManagementNetwork(agents, faults)
        elif faults is not None:
            raise DeploymentError("pass faults or a prebuilt network, not both")
        self.network = network
        self.agents = network.agents
        self._rng = random.Random(self.config.seed)
        self._clock = 0.0
        self._epoch = 0
        self._batch_seq = 0
        self._breaker_fails: Dict[str, int] = {}
        #: Pure observer; events are stamped with the virtual clock.
        self.telemetry = telemetry
        self._retries = 0

    def _emit(self, kind: str, **fields: object) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(kind, time=self._clock, **fields)

    # ------------------------------------------------------------------
    # Batch plumbing
    # ------------------------------------------------------------------
    def _new_batch(self, switch: str, ops: Tuple[ApplyOp, ...]) -> ApplyBatch:
        self._batch_seq += 1
        return ApplyBatch(
            batch_id=f"b{self._batch_seq:04d}.{switch}",
            switch=switch,
            epoch=self._epoch,
            ops=ops,
        )

    def _breaker_is_open(self, switch: str) -> bool:
        return self._breaker_fails.get(switch, 0) >= self.config.breaker_threshold

    def _count(self, name: str, help_text: str, **labels: object) -> None:
        if self.telemetry is None:
            return
        self.telemetry.registry.counter(
            name, help_text, labelnames=tuple(sorted(labels))
        ).inc(**labels)

    def _note_failure(self, switch: str) -> None:
        failures = self._breaker_fails.get(switch, 0) + 1
        self._breaker_fails[switch] = failures
        if failures == self.config.breaker_threshold:
            self._emit(EV_DEPLOY_BREAKER_OPEN, switch=switch, failures=failures)
            self._count(
                "deploy_breaker_opens_total",
                "Circuit-breaker open transitions.",
                switch=switch,
            )

    def _note_success(self, switch: str) -> None:
        if self._breaker_fails.get(switch, 0) >= self.config.breaker_threshold:
            self._emit(EV_DEPLOY_BREAKER_CLOSE, switch=switch)
        self._breaker_fails[switch] = 0

    def _push_batch(
        self,
        switch: str,
        ops: Tuple[ApplyOp, ...],
        outcome: SwitchOutcome,
        attempts: Optional[int] = None,
        use_breaker: bool = True,
    ) -> bool:
        """Deliver one logical batch with retry/backoff; True on ack.

        Retries reuse the batch id so a retry of a batch whose *ack* was
        lost dedupes instead of re-applying, and every attempt ticks the
        circuit breaker. The rollback path passes its own ``attempts``
        budget and ``use_breaker=False`` — giving up early is the wrong
        instinct when the goal is restoring the last safe plan.
        """
        if not ops:
            return True
        budget = self.config.max_attempts if attempts is None else attempts
        batch = self._new_batch(switch, ops)
        for attempt in range(1, budget + 1):
            if use_breaker and self._breaker_is_open(switch):
                outcome.breaker_open = True
                outcome.detail = "circuit breaker open"
                return False
            outcome.attempts += 1
            if attempt > 1:
                self._retries += 1
                self._emit(EV_DEPLOY_RETRY, switch=switch, attempt=attempt)
                self._count(
                    "deploy_retries_total", "Batch re-send attempts."
                )
            reply = self.network.send(batch)
            self._emit(
                EV_DEPLOY_RPC,
                switch=switch,
                status=reply.status,
                attempt=attempt,
            )
            self._count(
                "deploy_rpcs_total",
                "Batch RPCs sent, by reply status.",
                status=reply.status,
            )
            if reply.acked:
                self._note_success(switch)
                return True
            self._note_failure(switch)
            if reply.status == ACK_STALE:
                # A higher epoch already landed on this agent; this
                # batch is obsolete and retrying cannot change that.
                outcome.detail = "superseded by a newer epoch"
                return False
            if attempt < budget:
                self._clock += self.config.backoff(attempt, self._rng)
        outcome.detail = f"retry budget exhausted ({budget})"
        return False

    def _readback_verify(
        self,
        switch: str,
        target: Dict[MatchKey, int],
        outcome: SwitchOutcome,
        attempts: Optional[int] = None,
        use_breaker: bool = True,
    ) -> bool:
        """Read the live table back and reconcile divergence.

        Acks can lie (buggy agents, lost removes): convergence is judged
        on observed state, never on replies alone.
        """
        budget = self.config.max_attempts if attempts is None else attempts
        for attempt in range(1, budget + 1):
            snapshot = self.network.read(switch)
            if snapshot is None:
                self._note_failure(switch)
                if use_breaker and self._breaker_is_open(switch):
                    outcome.breaker_open = True
                    outcome.detail = "circuit breaker open during readback"
                    return False
                self._clock += self.config.backoff(attempt, self._rng)
                continue
            self._note_success(switch)
            if snapshot == target:
                return True
            ops = ops_to_table(snapshot, target)
            outcome.reconciles += 1
            if not self._push_batch(
                switch, ops, outcome, attempts=attempts, use_breaker=use_breaker
            ):
                return False
        outcome.detail = "readback budget exhausted"
        return False

    # ------------------------------------------------------------------
    # Degradation paths
    # ------------------------------------------------------------------
    def _touched_keys(self, switch: str) -> Set[MatchKey]:
        keys: Set[MatchKey] = set()
        for tables in (self.old, self.new):
            table = tables.get(switch)
            if table is not None:
                keys.update(table.rules)
        return keys

    def _quarantine(self, switch: str, outcome: SwitchOutcome) -> None:
        """Demote a stuck switch to safeguard-only (lossy) mode.

        Best effort: one wipe batch removing every key the transition
        knows about. If even that cannot be delivered the switch is left
        behind on whatever mix it holds — safe regardless, because
        quarantine is only reachable when the certificate covers
        arbitrary straggler states.
        """
        outcome.quarantined = True
        wipe = tuple(
            ApplyOp(OP_REMOVE, key) for key in sorted(self._touched_keys(switch))
        )
        self._breaker_fails[switch] = 0  # give the wipe its own budget
        wiped = self._push_batch(switch, wipe, outcome)
        outcome.detail = (
            "quarantined: demoted to safeguard-only"
            if wiped
            else "quarantined: unreachable, left on certified mixed state"
        )
        self._emit(EV_DEPLOY_QUARANTINE, switch=switch, wiped=wiped)
        self._count(
            "deploy_quarantines_total",
            "Switches demoted to safeguard-only mode.",
        )

    def _rollback(self, report: RolloutReport) -> str:
        """Restore every touched switch to the old plan; returns outcome.

        Runs under a fresh epoch so late deliveries of superseded wave
        batches are rejected as stale. The op set is unconditional
        (set every old rule, remove every new-only key), hence correct
        from *any* intermediate state without needing a readback first.
        Uses the dedicated ``rollback_attempts`` budget with the circuit
        breaker suspended: any *finite* fault schedule shorter than that
        budget is guaranteed a clean slot, so converge-or-rollback holds
        whenever switches are not wedged forever.
        """
        self._epoch += 1
        touched = sum(len(wave) for wave in report.waves)
        report.rollbacks += 1
        self._emit(EV_DEPLOY_ROLLBACK, switches=touched)
        self._count(
            "deploy_rollbacks_total", "Fleet-wide rollback operations."
        )
        failures: List[str] = []
        for wave in report.waves:
            for switch in wave:
                outcome = report.switch_outcomes[switch]
                if outcome.quarantined:
                    continue
                old_rules = (
                    self.old[switch].rules if switch in self.old else {}
                )
                new_keys = (
                    set(self.new[switch].rules) if switch in self.new else set()
                )
                ops = tuple(
                    [ApplyOp(OP_SET, k, t) for k, t in sorted(old_rules.items())]
                    + [
                        ApplyOp(OP_REMOVE, k)
                        for k in sorted(new_keys - set(old_rules))
                    ]
                )
                self._breaker_fails[switch] = 0  # fresh budget for rollback
                budget = self.config.rollback_attempts
                if self._push_batch(
                    switch, ops, outcome, attempts=budget, use_breaker=False
                ) and self._readback_verify(
                    switch,
                    dict(old_rules),
                    outcome,
                    attempts=budget,
                    use_breaker=False,
                ):
                    outcome.rolled_back = True
                    outcome.converged = False
                else:
                    failures.append(switch)
        if not failures:
            return ROLLED_BACK
        cert = report.certificate
        if (
            self.config.quarantine
            and cert is not None
            and cert.covers_stragglers
        ):
            for switch in failures:
                self._quarantine(switch, report.switch_outcomes[switch])
                report.quarantined.append(switch)
            return ROLLED_BACK
        return FAILED

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self) -> RolloutReport:
        timer = StageTimer()
        report = RolloutReport()
        diffs = diff_tables(self.old, self.new)

        with timer.stage("plan-waves"):
            waves = plan_waves(self.topo, diffs, self.config.max_wave_size)
        report.waves = waves
        report.switch_outcomes = {
            s: SwitchOutcome(switch=s) for wave in waves for s in wave
        }

        # One rollout lints the same fabric W+2 times or more; every
        # lint below shares its per-switch stage through this object.
        sections = LintSections(self.topo)
        with timer.stage("certify"):
            queue_map = transition_queue_map(self.old, self.new)
            cert = certify_rollout(
                self.topo,
                self.old,
                self.new,
                waves,
                lint_boundaries=self.config.lint_boundaries,
                sections=sections,
                queue_map=queue_map,
            )
            if not cert.ok and any(len(w) > 1 for w in waves):
                singleton = [[s] for wave in waves for s in wave]
                retry = certify_rollout(
                    self.topo,
                    self.old,
                    self.new,
                    singleton,
                    lint_boundaries=self.config.lint_boundaries,
                    sections=sections,
                    queue_map=queue_map,
                )
                if retry.ok:
                    waves, cert = singleton, retry
                    report.waves = waves
        report.certificate = cert
        if not cert.ok:
            report.outcome = REFUSED
            report.detail = (
                f"transition not certifiable: {cert.first_error()}"
            )
            report.timings = timer.timings()
            report.rpc_count = self.network.rpc_count
            report.retries = self._retries
            self._publish_outcome(report, sections)
            return report

        if not waves:
            report.outcome = CONVERGED
            report.detail = "already at target; nothing to deploy"
            report.rpc_count = self.network.rpc_count
            self._finalize(report, timer, sections, queue_map)
            return report

        with timer.stage("execute"):
            need_rollback = False
            for wave in waves:
                self._epoch += 1
                report.epochs_used = self._epoch
                stuck: List[str] = []
                for switch in wave:
                    outcome = report.switch_outcomes[switch]
                    target = (
                        dict(self.new[switch].rules)
                        if switch in self.new
                        else {}
                    )
                    ops = ops_from_diff(diffs[switch])
                    if self._push_batch(switch, ops, outcome) and (
                        self._readback_verify(switch, target, outcome)
                    ):
                        outcome.converged = True
                    else:
                        stuck.append(switch)
                if not stuck:
                    continue
                if self.config.quarantine and cert.covers_stragglers:
                    for switch in stuck:
                        self._quarantine(
                            switch, report.switch_outcomes[switch]
                        )
                        report.quarantined.append(switch)
                else:
                    need_rollback = True
                    break

        if need_rollback:
            with timer.stage("rollback"):
                report.epochs_used = self._epoch + 1
                report.outcome = self._rollback(report)
            report.detail = (
                "wave exhausted its retry budget; fleet restored to the "
                "last certified plan"
                if report.outcome == ROLLED_BACK
                else "rollback could not restore every switch"
            )
        elif report.quarantined:
            report.outcome = DEGRADED
            report.detail = (
                f"target deployed; {len(report.quarantined)} switch(es) "
                "quarantined to safeguard-only mode"
            )
        else:
            report.outcome = CONVERGED
            report.detail = "every switch acked and readback-verified"

        self._finalize(report, timer, sections, queue_map)
        return report

    # ------------------------------------------------------------------
    def _finalize(
        self,
        report: RolloutReport,
        timer: StageTimer,
        sections: LintSections,
        queue_map: QueueMap,
    ) -> None:
        """Ground-truth verification: what do the agents actually hold?"""
        with timer.stage("verify-final"):
            self.network.flush_deferred()
            final: Tables = {}
            for switch, agent in self.agents.items():
                if agent.rules:
                    final[switch] = agent.table()
            lint = lint_tables(
                self.topo, final, queue_map, sections=sections
            )
            report.final_lint_ok = lint.ok
            quarantined = set(report.quarantined)
            expected = {
                s: t
                for s, t in (
                    self.old if report.outcome == ROLLED_BACK else self.new
                ).items()
                if s not in quarantined
            }
            observed = {
                s: t for s, t in final.items() if s not in quarantined
            }
            report.final_matches_target = tables_equal(observed, expected)
            if not lint.ok:
                report.outcome = FAILED
                report.detail = (
                    "final tables fail lint: "
                    + "; ".join(d.render() for d in lint.errors[:3])
                )
            elif not report.final_matches_target and report.outcome in (
                CONVERGED,
                DEGRADED,
                ROLLED_BACK,
            ):
                report.outcome = FAILED
                report.detail = "final tables diverge from the expected plan"
        report.rpc_count = self.network.rpc_count
        report.retries = self._retries
        report.virtual_time = self._clock
        report.timings = timer.timings()
        self._publish_outcome(report, sections)

    def _publish_outcome(
        self, report: RolloutReport, sections: LintSections
    ) -> None:
        if self.telemetry is None:
            return
        self._emit(
            EV_DEPLOY_OUTCOME, outcome=report.outcome, rpcs=report.rpc_count
        )
        self._count(
            "deploy_outcomes_total",
            "Terminal rollout outcomes.",
            outcome=report.outcome,
        )
        self.telemetry.registry.gauge(
            "deploy_virtual_time_seconds",
            "Virtual seconds the last rollout consumed.",
        ).set(report.virtual_time)
        observe_timings(self.telemetry.registry, "deploy", report.timings)
        lint_sections = self.telemetry.registry.counter(
            "deploy_lint_sections_total",
            "Per-switch lint sections a rollout built vs reused.",
            labelnames=("result",),
        )
        lint_sections.inc(sections.built, result="built")
        lint_sections.inc(sections.reused, result="reused")

    # ------------------------------------------------------------------
    def final_tables(self) -> Tables:
        """The fleet's live tables (non-empty ones), for linting/tests."""
        return {
            switch: agent.table()
            for switch, agent in self.agents.items()
            if agent.rules
        }


def run_rollout(
    topo: Topology,
    old: Tables,
    new: Tables,
    config: Optional[RolloutConfig] = None,
    faults: Optional[FaultPlan] = None,
    telemetry: Optional[Telemetry] = None,
) -> RolloutReport:
    """One-shot convenience wrapper used by the CLI and the fuzz harness."""
    return RolloutOrchestrator(
        topo, old, new, config=config, faults=faults, telemetry=telemetry
    ).run()
