"""Plan rollback driven by confirmed deadlock detections.

A confirmed runtime deadlock under a deployed Tagger plan means the
plan's ELP assumptions are broken in the live fabric. Quarantining the
victim queue restores forward progress, but the *plan* on the victim
switch is still wrong — the safe control-plane reaction is to roll that
switch back to safeguard-only tables (every unmatched packet demotes to
lossy, which cannot deadlock) through the same fault-tolerant
:class:`~repro.deploy.RolloutOrchestrator` ordinary rollouts use, so
the rollback inherits wave ordering, readback verification and
transitional-safety certification instead of bypassing them.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.core.rules import RuleTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.deploy.orchestrator import RolloutReport
    from repro.obs.telemetry import Telemetry
    from repro.topology.base import Topology


class RolloutDriver:
    """Rolls one switch at a time back to safeguard-only tables.

    Holds the fabric's currently-deployed tables; each
    :meth:`rollback` call computes the target state (identical except
    the victim switch's table is emptied — the TCAM safeguard default
    then demotes everything to lossy), pushes it through a fresh agent
    fleet via the orchestrator, and on convergence adopts the new state
    as current.
    """

    def __init__(
        self,
        topo: "Topology",
        tables: Dict[str, RuleTable],
        seed: int = 0,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.topo = topo
        self.tables = {
            switch: RuleTable(
                switch=switch, rules=dict(table.rules), policy=table.policy
            )
            for switch, table in tables.items()
        }
        self.seed = seed
        self.telemetry = telemetry
        self.reports: Dict[str, "RolloutReport"] = {}

    @property
    def converged_outcome(self) -> str:
        from repro.deploy.orchestrator import CONVERGED

        return CONVERGED

    def table_for(self, switch: str) -> RuleTable:
        """The table ``switch`` runs after its (converged) rollback."""
        return self.tables.get(switch, RuleTable(switch=switch))

    def rollback(self, switch: str) -> "RolloutReport":
        """Wipe ``switch`` to safeguard-only via the deploy orchestrator."""
        from repro.deploy.agent import fleet_from_tables
        from repro.deploy.orchestrator import (
            RolloutConfig,
            RolloutOrchestrator,
        )

        old = self.tables
        new = {
            name: RuleTable(
                switch=name, rules=dict(table.rules), policy=table.policy
            )
            for name, table in old.items()
        }
        new[switch] = RuleTable(switch=switch)
        extra = (switch,) if switch not in old else ()
        agents = fleet_from_tables(old, extra_switches=extra)
        report = RolloutOrchestrator(
            self.topo,
            old,
            new,
            config=RolloutConfig(seed=self.seed),
            agents=agents,
            telemetry=self.telemetry,
        ).run()
        self.reports[switch] = report
        if report.outcome == self.converged_outcome:
            self.tables = new
        return report
