"""Lossy management network between orchestrator and switch agents.

Rule batches do not travel on the data plane: they cross a management
network that drops, delays, duplicates and reorders RPCs, to agents
that crash at the worst possible moment. :class:`ManagementNetwork`
models exactly the fault vocabulary DCFIT-style studies show matters
during reconfiguration windows, each injectable per switch and per
send attempt through a :class:`FaultPlan`:

==================  ====================================================
fault               observable behavior
==================  ====================================================
``timeout``         the RPC is lost in flight; nothing applied, no reply
``crash-before-ack``  the agent applies and journals the batch, then
                    crashes before the ack leaves; retry hits the
                    (empty) restarted journal and re-applies idempotently
``crash-after-apply`` the agent crashes between the TCAM write and the
                    journal update: rules applied, batch unrecorded
``partial-batch``   a strict prefix of the batch lands, then a nack
``duplicate``       the batch is delivered twice back-to-back
``reorder``         delivery is deferred until after the *next* message
                    to the same switch (stale-epoch protection territory)
``stuck``           (plan-level) every send from some index on times
                    out — the permanently wedged switch
==================  ====================================================

Fault plans are finite and seeded: a chaos schedule is a value, so every
run is reproducible from ``(topology, deltas, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rules import MatchKey
from repro.deploy.agent import (
    ACK_DUPLICATE,
    TIMEOUT,
    AgentReply,
    ApplyBatch,
    SwitchAgent,
)
from repro.exceptions import DeploymentError

FAULT_OK = "ok"
FAULT_TIMEOUT = "timeout"
FAULT_CRASH_BEFORE_ACK = "crash-before-ack"
FAULT_CRASH_AFTER_APPLY = "crash-after-apply"
FAULT_PARTIAL = "partial-batch"
FAULT_DUPLICATE = "duplicate"
FAULT_REORDER = "reorder"

#: Injectable per-send fates (``ok`` excluded).
FAULT_KINDS = (
    FAULT_TIMEOUT,
    FAULT_CRASH_BEFORE_ACK,
    FAULT_CRASH_AFTER_APPLY,
    FAULT_PARTIAL,
    FAULT_DUPLICATE,
    FAULT_REORDER,
)


@dataclass
class FaultPlan:
    """Per-switch fate schedule for successive sends.

    ``fates[switch][i]`` is the fate of the i-th send to that switch
    (``ok`` once the list is exhausted). ``stuck_from[switch] = k``
    makes every send from the k-th on time out forever — the finite
    fate lists keep healthy chaos runs terminating, the stuck map
    models the switch that never comes back.
    """

    fates: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    stuck_from: Dict[str, int] = field(default_factory=dict)

    def fate_for(self, switch: str, send_index: int) -> str:
        stuck = self.stuck_from.get(switch)
        if stuck is not None and send_index >= stuck:
            return FAULT_TIMEOUT
        schedule = self.fates.get(switch, ())
        if send_index < len(schedule):
            return schedule[send_index]
        return FAULT_OK

    @property
    def total_faults(self) -> int:
        return sum(
            1 for fates in self.fates.values() for f in fates if f != FAULT_OK
        ) + len(self.stuck_from)

    def describe(self) -> str:
        faulty = {s for s, f in self.fates.items() if any(x != FAULT_OK for x in f)}
        stuck = sorted(self.stuck_from)
        return (
            f"{self.total_faults} fault(s) across {len(faulty | set(stuck))} "
            f"switch(es)" + (f", stuck: {', '.join(stuck)}" if stuck else "")
        )


def random_fault_plan(
    switches: Sequence[str],
    seed: int,
    rate: float = 0.25,
    max_faults_per_switch: int = 5,
    stuck_prob: float = 0.0,
    horizon: int = 10,
) -> FaultPlan:
    """Seeded fault schedule: each of the first ``horizon`` sends to each
    switch is independently faulty with probability ``rate``, capped at
    ``max_faults_per_switch`` so retries always outlast the schedule.
    With probability ``stuck_prob`` a switch is additionally wedged
    (permanent timeouts) from a random early send on.
    """
    if not 0.0 <= rate <= 1.0:
        raise DeploymentError(f"fault rate out of range: {rate}")
    if not 0.0 <= stuck_prob <= 1.0:
        raise DeploymentError(f"stuck probability out of range: {stuck_prob}")
    rng = random.Random(seed)
    plan = FaultPlan()
    for switch in sorted(switches):
        fates: List[str] = []
        injected = 0
        for _ in range(horizon):
            if injected < max_faults_per_switch and rng.random() < rate:
                fates.append(rng.choice(FAULT_KINDS))
                injected += 1
            else:
                fates.append(FAULT_OK)
        if injected:
            plan.fates[switch] = tuple(fates)
        if stuck_prob and rng.random() < stuck_prob:
            plan.stuck_from[switch] = rng.randrange(0, 3)
    return plan


@dataclass(frozen=True)
class RpcRecord:
    """One management-plane exchange, for reports and tests."""

    kind: str  # "apply" | "read"
    switch: str
    batch_id: Optional[str]
    fate: str
    status: str


class ManagementNetwork:
    """Delivers batches to agents according to a fault plan."""

    def __init__(
        self,
        agents: Dict[str, SwitchAgent],
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.agents = agents
        self.faults = faults or FaultPlan()
        self.records: List[RpcRecord] = []
        self._send_counts: Dict[str, int] = {}
        self._deferred: Dict[str, List[ApplyBatch]] = {}

    # ------------------------------------------------------------------
    def _agent(self, switch: str) -> SwitchAgent:
        try:
            return self.agents[switch]
        except KeyError:
            raise DeploymentError(f"no agent for switch {switch!r}") from None

    def _next_fate(self, switch: str) -> str:
        index = self._send_counts.get(switch, 0)
        self._send_counts[switch] = index + 1
        return self.faults.fate_for(switch, index)

    def _deliver_deferred(self, switch: str) -> None:
        for batch in self._deferred.pop(switch, []):
            # The orchestrator already wrote this attempt off as lost;
            # the agent's stale-epoch guard decides whether the late
            # delivery still applies.
            self._agent(switch).handle(batch)

    # ------------------------------------------------------------------
    def send(self, batch: ApplyBatch) -> AgentReply:
        """One apply attempt; the reply may be a synthesized timeout."""
        switch = batch.switch
        agent = self._agent(switch)
        fate = self._next_fate(switch)
        timeout = AgentReply(switch=switch, batch_id=batch.batch_id, status=TIMEOUT)
        if fate == FAULT_TIMEOUT:
            reply = timeout
        elif fate == FAULT_CRASH_BEFORE_ACK:
            agent.handle(batch)
            agent.crash()
            reply = timeout
        elif fate == FAULT_CRASH_AFTER_APPLY:
            agent.handle(batch, record=False)
            agent.crash()
            reply = timeout
        elif fate == FAULT_PARTIAL:
            reply = agent.handle(batch, partial_after=max(0, len(batch.ops) // 2))
        elif fate == FAULT_DUPLICATE:
            first = agent.handle(batch)
            second = agent.handle(batch)
            # Either reply reaches the orchestrator; the second is the
            # interesting one (it must be a harmless duplicate-ack).
            reply = second if second.status == ACK_DUPLICATE else first
        elif fate == FAULT_REORDER:
            self._deferred.setdefault(switch, []).append(batch)
            reply = timeout
        else:
            reply = agent.handle(batch)
        if fate != FAULT_REORDER:
            self._deliver_deferred(switch)
        self.records.append(
            RpcRecord("apply", switch, batch.batch_id, fate, reply.status)
        )
        return reply

    def read(self, switch: str) -> Optional[Dict[MatchKey, int]]:
        """Readback (table dump) RPC; ``None`` when it times out.

        Readbacks traverse the same lossy network: any scheduled fault
        on the slot degrades to a timeout (a readback has no apply to
        crash inside of).
        """
        fate = self._next_fate(switch)
        self._deliver_deferred(switch)
        if fate != FAULT_OK:
            self.records.append(RpcRecord("read", switch, None, fate, TIMEOUT))
            return None
        self.records.append(RpcRecord("read", switch, None, fate, "ok"))
        return self._agent(switch).snapshot()

    def flush_deferred(self) -> int:
        """Deliver every still-deferred (reordered) batch; returns count.

        Called once the rollout settles, so late deliveries exercise the
        agents' stale-epoch guard rather than silently vanishing.
        """
        flushed = 0
        for switch in sorted(self._deferred):
            flushed += len(self._deferred.get(switch, []))
            self._deliver_deferred(switch)
        return flushed

    @property
    def rpc_count(self) -> int:
        return len(self.records)
