"""Simulated per-switch deployment agents (paper §7, "Deployment").

A production Tagger control plane does not write TCAMs directly: a small
agent on every switch accepts batched rule operations over the
management network, applies them, and acks. This module models that
agent faithfully enough to exercise the failure modes that matter:

- **Idempotent, epoch-stamped applies.** Every batch carries a rollout
  epoch and a unique batch id. Re-delivery of an already-applied batch
  acks without re-applying; a batch from an older epoch than the last
  one seen is rejected as *stale* — which is what makes retry +
  reordering + rollback safe to combine.
- **Crash semantics.** :meth:`SwitchAgent.crash` models an agent restart:
  the hardware table survives (TCAM is state in the ASIC), but the
  agent's soft state — seen batch ids, last epoch — is lost. Convergence
  therefore cannot rely on the agent remembering anything; it relies on
  the *operations* being idempotent (set/remove on a match key).
- **Fault hooks.** ``op_filter`` lets the fuzz harness install a buggy
  agent (e.g. one that silently drops deletes but still acks) to prove
  the orchestrator's readback verification catches divergent fleets; see
  the deploy-stage rows of :data:`repro.fuzz.faults.FAULT_TABLE`.

The agent is deliberately free of any planner or verifier imports: it
knows match keys and tags, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.rules import MatchKey, RuleDiff, RuleTable
from repro.exceptions import DeploymentError

#: Batch operation kinds. ``set`` covers both installs and atomic
#: replacements (TCAM write to a key is a replacement either way);
#: ``remove`` deletes the key if present. Both are idempotent.
OP_SET = "set"
OP_REMOVE = "remove"

#: Reply statuses. ``ok``/``duplicate``/``stale`` are acks (the agent is
#: alive and consistent); ``partial`` is a nack after a prefix of the
#: batch landed; ``timeout`` is synthesized by the transport when no
#: reply arrives at all.
ACK_OK = "ok"
ACK_DUPLICATE = "duplicate"
ACK_STALE = "stale"
NACK_PARTIAL = "partial"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class ApplyOp:
    """One idempotent rule operation."""

    action: str
    key: MatchKey
    new_tag: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in (OP_SET, OP_REMOVE):
            raise DeploymentError(f"unknown op action {self.action!r}")
        if self.action == OP_SET and self.new_tag is None:
            raise DeploymentError(f"set op for {self.key} carries no tag")


@dataclass(frozen=True)
class ApplyBatch:
    """One RPC payload: every op for one switch in one wave.

    ``batch_id`` is globally unique per logical batch and *reused across
    retries* — that is what lets the agent deduplicate a retry of a
    batch whose ack was lost. ``epoch`` increases across waves and again
    for rollback, so late-reordered deliveries of superseded batches are
    rejected as stale.
    """

    batch_id: str
    switch: str
    epoch: int
    ops: Tuple[ApplyOp, ...]


@dataclass(frozen=True)
class AgentReply:
    """The agent's answer to one delivered batch."""

    switch: str
    batch_id: str
    status: str
    applied_ops: int = 0
    rule_count: int = 0
    epoch: int = -1

    @property
    def acked(self) -> bool:
        return self.status in (ACK_OK, ACK_DUPLICATE)


def ops_from_diff(diff: RuleDiff) -> Tuple[ApplyOp, ...]:
    """Compile a :class:`RuleDiff` into an idempotent op sequence.

    Installs and replacements go first, deletes last: if the batch is
    cut short mid-apply, the switch keeps matching (and safely
    rewriting) everything it matched before, and any half-state is
    per-key old-or-new — exactly the space the transitional-safety
    verifier certifies.
    """
    ops = [ApplyOp(OP_SET, key, tag) for key, tag in diff.added]
    ops.extend(ApplyOp(OP_SET, key, new) for key, _, new in diff.changed)
    ops.extend(ApplyOp(OP_REMOVE, key) for key, _ in diff.removed)
    return tuple(ops)


def ops_to_table(
    rules: Dict[MatchKey, int], target: Dict[MatchKey, int]
) -> Tuple[ApplyOp, ...]:
    """Ops taking a table from ``rules`` to exactly ``target``.

    Used for readback-driven reconciliation (the observed state differs
    from what acks implied) and for rollback of partially-known states.
    """
    ops = [
        ApplyOp(OP_SET, key, tag)
        for key, tag in sorted(target.items())
        if rules.get(key) != tag
    ]
    ops.extend(
        ApplyOp(OP_REMOVE, key)
        for key in sorted(set(rules) - set(target))
    )
    return tuple(ops)


#: Fault hook signature: op -> op to actually apply, or None to drop it.
OpFilter = Callable[[ApplyOp], Optional[ApplyOp]]


@dataclass
class SwitchAgent:
    """One switch's management agent plus its live hardware table.

    Attributes:
        switch: Switch name.
        rules: The live TCAM content (match key -> rewrite tag). This is
            the deployed reality the linter and the readback verifier
            consume.
        ignore_epoch: Buggy-agent knob — skip the stale-epoch guard
            (fuzz self-test only).
        op_filter: Buggy-agent knob — transform or drop each op while
            still acking the batch (fuzz self-test only).
    """

    switch: str
    rules: Dict[MatchKey, int] = field(default_factory=dict)
    ignore_epoch: bool = False
    op_filter: Optional[OpFilter] = None

    #: Soft state: lost on crash.
    last_epoch: int = -1
    seen_batches: Set[str] = field(default_factory=set)

    #: Lifetime counters (test observability; survive crashes).
    applies: int = 0
    crashes: int = 0

    def handle(
        self,
        batch: ApplyBatch,
        partial_after: Optional[int] = None,
        record: bool = True,
    ) -> AgentReply:
        """Apply one delivered batch and reply.

        ``partial_after`` makes the agent fail after that many ops
        (transport-injected partial batch); ``record=False`` applies the
        ops but skips the bookkeeping, modeling a crash between the TCAM
        write and the journal update.
        """
        if batch.switch != self.switch:
            raise DeploymentError(
                f"batch for {batch.switch!r} delivered to {self.switch!r}"
            )
        if not self.ignore_epoch and batch.epoch < self.last_epoch:
            return self._reply(batch, ACK_STALE)
        if batch.batch_id in self.seen_batches:
            return self._reply(batch, ACK_DUPLICATE)
        applied = 0
        for op in batch.ops:
            if partial_after is not None and applied >= partial_after:
                return self._reply(batch, NACK_PARTIAL, applied)
            effective = op if self.op_filter is None else self.op_filter(op)
            if effective is not None:
                self._apply_op(effective)
            applied += 1
        if record:
            self.seen_batches.add(batch.batch_id)
            self.last_epoch = max(self.last_epoch, batch.epoch)
        return self._reply(batch, ACK_OK, applied)

    def _apply_op(self, op: ApplyOp) -> None:
        self.applies += 1
        if op.action == OP_SET:
            assert op.new_tag is not None
            self.rules[op.key] = op.new_tag
        else:
            self.rules.pop(op.key, None)

    def _reply(
        self, batch: ApplyBatch, status: str, applied: int = 0
    ) -> AgentReply:
        return AgentReply(
            switch=self.switch,
            batch_id=batch.batch_id,
            status=status,
            applied_ops=applied,
            rule_count=len(self.rules),
            epoch=self.last_epoch,
        )

    def crash(self) -> None:
        """Restart the agent: soft state gone, hardware table kept."""
        self.crashes += 1
        self.last_epoch = -1
        self.seen_batches = set()

    def snapshot(self) -> Dict[MatchKey, int]:
        """Readback: a copy of the live table (management-plane dump)."""
        return dict(self.rules)

    def table(self) -> RuleTable:
        """The live state as a :class:`RuleTable` (for linting)."""
        return RuleTable(switch=self.switch, rules=dict(self.rules))


def fleet_from_tables(
    tables: Dict[str, RuleTable], extra_switches: Tuple[str, ...] = ()
) -> Dict[str, SwitchAgent]:
    """A fresh agent per switch, seeded with the deployed tables.

    ``extra_switches`` covers switches with no rules today that the new
    plan will touch (their agents start empty).
    """
    fleet = {
        switch: SwitchAgent(switch=switch, rules=dict(table.rules))
        for switch, table in tables.items()
    }
    for switch in extra_switches:
        fleet.setdefault(switch, SwitchAgent(switch=switch))
    return fleet
