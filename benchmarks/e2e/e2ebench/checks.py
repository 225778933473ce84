"""Output checks: canonical digests and the per-arm invariants.

An operation fails when any check here returns a message. Digests are
compared against ``expected.json`` only for the committed seed; the
invariants hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.rules import RuleTable, canonical_tables, tables_equal
from repro.simulator import DROP_LOSSLESS, DROP_LOSSY


def _sha256(blob: Any) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables_digest(tables: Dict[str, RuleTable]) -> str:
    """SHA-256 over the canonical rule tables of a deployment."""
    return _sha256(canonical_tables(tables))


@dataclass
class ArmFacts:
    """Everything one simulated arm reports, read off public counters."""

    tagger: bool
    sim_seconds: float
    run_seconds: float
    events: int
    injected: int
    delivered: int
    delivered_bytes: int
    in_flight: int
    per_flow_delivered: Dict[int, int]
    drops: Dict[str, int]
    pauses: int
    resumes: int
    oracle_seen: bool
    oracle_first: Optional[float]
    oracle_at_end: bool
    confirms: int
    first_confirm: Optional[float]
    clears: Dict[str, int]
    quarantines: int = 0
    packets_moved: int = 0
    rearms: int = 0
    delivered_at_confirm: Optional[int] = None

    def fingerprint(self) -> Dict[str, Any]:
        """The simulated statistics an engine change must leave identical.

        ``events`` is deliberately absent: a scheduler may legitimately
        run a different number of events for the same simulation.
        """
        return {
            "per_flow_delivered": sorted(self.per_flow_delivered.items()),
            "drops": sorted(self.drops.items()),
            "pauses": self.pauses,
            "resumes": self.resumes,
            "clock": self.sim_seconds,
            "confirms": self.confirms,
            "clears": sorted(self.clears.items()),
            "quarantines": self.quarantines,
            "packets_moved": self.packets_moved,
            "rearms": self.rearms,
        }


def common_failures(facts: ArmFacts) -> List[str]:
    problems = []
    if facts.delivered <= 0:
        problems.append("no packet delivered")
    if facts.in_flight < 0 or facts.injected != (
        facts.delivered + sum(facts.drops.values()) + facts.in_flight
    ):
        problems.append("conservation_check does not balance")
    if facts.drops.get(DROP_LOSSLESS, 0):
        problems.append(f"{facts.drops[DROP_LOSSLESS]} lossless_overflow drop(s)")
    return problems


def tagger_arm_failures(facts: ArmFacts) -> List[str]:
    """A fabric running a Tagger plan: nothing dropped, nothing to detect."""
    problems = common_failures(facts)
    if facts.drops.get(DROP_LOSSY, 0):
        problems.append(
            f"{facts.drops[DROP_LOSSY]} lossy_overflow drop(s): traffic left the lossless class"
        )
    if facts.oracle_seen:
        problems.append("oracle saw a wait-for cycle under a Tagger plan")
    if facts.confirms:
        problems.append(f"detector confirmed {facts.confirms} deadlock(s) under a Tagger plan")
    return problems


def recovery_arm_failures(facts: ArmFacts, latency_bound: float) -> List[str]:
    """Plain PFC with the trigger armed: deadlock, detect in time, recover."""
    problems = common_failures(facts)
    if not facts.oracle_seen or facts.oracle_first is None:
        problems.append("control arm never deadlocked (trigger too blunt)")
    elif facts.first_confirm is None:
        problems.append("deadlock never confirmed by the detector")
    else:
        latency = facts.first_confirm - facts.oracle_first
        if latency > latency_bound:
            problems.append(
                f"detected {latency * 1e3:.3f} ms after the oracle, "
                f"bound {latency_bound * 1e3:.3f} ms"
            )
        if facts.quarantines == 0:
            problems.append("confirmed but nothing quarantined")
        if facts.oracle_at_end or facts.delivered <= (facts.delivered_at_confirm or 0):
            problems.append("not recovered: cycle still live or no delivery after the confirm")
    return problems


@dataclass
class Outcome:
    """What one operation produced, judged after the timed region."""

    #: One rule-table deployment per planning step of the operation.
    deployments: List[Dict[str, RuleTable]] = field(default_factory=list)
    arms: List[ArmFacts] = field(default_factory=list)
    #: Failures the operation saw in the reports it got back.
    failures: List[str] = field(default_factory=list)
    #: Count-type layer metrics (metric name -> value).
    counts: Dict[str, float] = field(default_factory=dict)
    #: (before, after) deployments that must be identical: a churn
    #: episode repairs every link it failed.
    round_trip: Optional[Tuple[Dict[str, RuleTable], Dict[str, RuleTable]]] = None


def outcome_digest(outcome: Outcome) -> str:
    """One digest over every deployment and every arm's fingerprint."""
    return _sha256(
        {
            "tables": [tables_digest(tables) for tables in outcome.deployments],
            "sim": [arm.fingerprint() for arm in outcome.arms],
        }
    )


def judge(
    outcome: Outcome, expected_digest: Optional[str], latency_bound: float = 0.0
) -> List[str]:
    """Every reason this operation counts as failed (empty = passed)."""
    problems = list(outcome.failures)
    for arm in outcome.arms:
        if arm.tagger:
            problems.extend(tagger_arm_failures(arm))
        else:
            problems.extend(recovery_arm_failures(arm, latency_bound))
    if outcome.round_trip is not None and not tables_equal(*outcome.round_trip):
        problems.append("tables after the episode differ from the tables before it")
    if expected_digest is not None:
        digest = outcome_digest(outcome)
        if digest != expected_digest:
            problems.append(
                f"output digest {digest[:12]} differs from committed {expected_digest[:12]}"
            )
    return problems
