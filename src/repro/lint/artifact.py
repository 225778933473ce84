"""The deployment artifact: exactly what ships to the switches.

The linter deliberately consumes *only* this bundle — per-switch exact
rule tables, optional ordered TCAM programs, the tag -> queue map, and
the topology — and never the planner's :class:`~repro.core.tags.TaggedGraph`.
That independence is the point: the certificate holds for the deployed
configuration even if the planner that produced it is buggy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

from repro.core.compression import TcamEntry
from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable
from repro.exceptions import LintError
from repro.topology.base import Topology


@dataclass
class DeploymentArtifact:
    """Everything the linter needs, and nothing the planner knows.

    Attributes:
        topo: The physical topology (wiring and port numbers).
        tables: Per-switch exact-match rewrite rules (the reference
            semantics; the safeguard default is implicit in lookup).
        programs: Optional ordered first-match TCAM programs per switch.
            When absent, the linter compiles them from the tables —
            linting then certifies the compiler's own output.
        queue_map: Tag -> priority queue assignment (``None`` skips the
            queue-fit checks).
        tcam_budget: Per-switch entry budget (``None`` skips B301).
    """

    topo: Topology
    tables: Dict[str, RuleTable]
    programs: Optional[Dict[str, List[TcamEntry]]] = None
    queue_map: Optional[QueueMap] = None
    tcam_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tcam_budget is not None and self.tcam_budget < 0:
            raise LintError(f"tcam_budget must be >= 0, got {self.tcam_budget}")
        for switch, table in self.tables.items():
            if table.policy is not None and not table.rules:
                raise LintError(
                    f"table for {switch!r} is policy-backed with no "
                    "explicit rules; materialize it before linting"
                )

    @staticmethod
    def from_plan(plan: "TaggerPlanLike") -> "DeploymentArtifact":
        """Strip a planner result down to its deployable artifact.

        Accepts anything exposing ``topo``, ``tables`` and ``queue_map``
        (duck-typed so :mod:`repro.lint` never imports the planner).
        """
        return DeploymentArtifact(
            topo=plan.topo, tables=plan.tables, queue_map=plan.queue_map
        )


class TaggerPlanLike(Protocol):
    """Structural stand-in for :class:`repro.core.planner.TaggerPlan`."""

    topo: Topology
    tables: Dict[str, RuleTable]
    queue_map: QueueMap
