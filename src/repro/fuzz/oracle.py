"""Dynamic oracle: replay fuzz scenarios through the PFC simulator.

The static verifier says a tagged graph *cannot* deadlock; the simulator
is an independent implementation of PFC physics that can say whether a
concrete run *does*. The oracle stage cross-checks the two:

- **safety**: a fabric deploying the Tagger plan for the scenario must
  never reach a wait-for cycle, no matter the trigger;
- **sensitivity**: the deliberately untagged control run of the same
  trigger must deadlock — otherwise the oracle is too blunt for its
  "no deadlock" verdicts to mean anything.

The trigger is the paper's Fig. 10 recipe generalized: pick two ELP
paths that form a CBD (statically, via :func:`repro.analysis.has_cbd`),
pin one deep-windowed closed-loop flow along each, and briefly throttle
the first flow's receiver so PFC backpressure fills the cycle. A static
CBD is necessary but not *sufficient* for a dynamic deadlock (the DCFIT
observation: deadlocks hinge on reachable initial triggers), so several
candidate pairs are tried until one deadlocks the control run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from repro.analysis import has_cbd
from repro.core.planner import TaggerPlan
from repro.core.elp import ElpSet
from repro.exceptions import ReproError
from repro.fuzz.scenarios import Scenario
from repro.routing.base import Path
from repro.routing.shortest import shortest_path_tables
from repro.simulator import Flow, SimNetwork, find_deadlock_cycle, pin_path
from repro.topology.base import Topology

#: One flow leg: (src_host, dst_host, host-to-host pinned path).
Leg = Tuple[str, str, Path]
#: One candidate trigger: a CBD path pair and the flow leg along each path.
Trigger = Tuple[Tuple[Path, Path], List[Leg]]


@dataclass
class OracleOutcome:
    """Result of one simulator replay (control + tagged runs)."""

    ran: bool
    reason: str = ""
    pairs_tried: int = 0
    #: The CBD pair that deadlocked the control run (None = all missed).
    trigger_pair: Optional[Tuple[Path, Path]] = None
    control_deadlocked: bool = False
    #: Tagged-run verdicts, one per pair replayed (all must be False).
    tagged_deadlocks: List[bool] = field(default_factory=list)
    tagged_lossless_drops: int = 0

    @property
    def sensitive(self) -> bool:
        """Did some untagged control run reproduce the deadlock?"""
        return self.control_deadlocked

    @property
    def tagged_deadlocked(self) -> bool:
        return any(self.tagged_deadlocks)


def find_cbd_pairs(
    topo: Topology,
    paths: Sequence[Path],
    max_pairs: int = 8,
    max_checks: int = 600,
) -> List[Tuple[Path, Path]]:
    """Up to ``max_pairs`` distinct ELP path pairs whose buffers form a CBD.

    Longer paths are tried first (bounce paths are what close cycles in
    practice); the search is capped so pathological ELPs stay cheap.
    """
    ranked = sorted(set(paths), key=lambda p: (-len(p), p))
    found: List[Tuple[Path, Path]] = []
    checks = 0
    for p1, p2 in combinations(ranked, 2):
        checks += 1
        if checks > max_checks or len(found) >= max_pairs:
            break
        if has_cbd(topo, [p1, p2]):
            found.append((p1, p2))
    return found


def host_endpoints(topo: Topology, path: Path) -> Optional[Leg]:
    """Extend a switch-level path with attached hosts on both ends.

    Returns ``(src_host, dst_host, host_to_host_path)`` or None when an
    endpoint has no host (the simulator needs hosts to source traffic).
    """
    full = list(path)
    if topo.node(full[0]).is_host:
        src = full[0]
    else:
        hosts = [
            peer
            for peer in sorted(topo.neighbors(full[0]))
            if topo.node(peer).is_host
        ]
        if not hosts:
            return None
        src = hosts[0]
        full = [src] + full
    if topo.node(full[-1]).is_host:
        dst = full[-1]
    else:
        hosts = [
            peer
            for peer in sorted(topo.neighbors(full[-1]))
            if topo.node(peer).is_host and peer != src
        ]
        if not hosts:
            return None
        dst = hosts[0]
        full = full + [dst]
    if src == dst:
        return None
    return src, dst, tuple(full)


def viable_triggers(
    topo: Topology, paths: Sequence[Path], max_pairs: int = 8
) -> Tuple[List[Trigger], str]:
    """The CBD pairs the simulator can actually drive, in search order.

    A pair is viable when both of its paths have a host at each end
    (the simulator needs hosts to source and sink traffic). Returns the
    viable triggers and, when there are none, the reason the dynamic
    stages skip the scenario (``""`` otherwise). Both dynamic stages
    consume this one list, so the :func:`find_cbd_pairs` search runs
    once per scenario.
    """
    pairs = find_cbd_pairs(topo, paths, max_pairs=max_pairs)
    if not pairs:
        return [], "no CBD-forming path pair in ELP"
    viable: List[Trigger] = []
    for pair in pairs:
        first, second = (host_endpoints(topo, path) for path in pair)
        if first is not None and second is not None:
            viable.append((pair, [first, second]))
    if not viable:
        return [], "no CBD pair with hosts at both endpoints"
    return viable, ""


def drive_trigger(
    net: SimNetwork, legs: Sequence[Leg], duration: float
) -> None:
    """Pin one closed-loop flow per leg and run the throttle trigger."""
    for i, (src, dst, full) in enumerate(legs):
        net.add_flow(
            Flow(
                src=src,
                dst=dst,
                start=0.01 * i,
                # A deep window keeps enough packets in flight to fill
                # every buffer on the cycle once the throttle bites.
                window=32,
                pinned_next_hops=pin_path(full),
            )
        )
    throttle_host = legs[0][1]  # first leg's receiver, as in Fig. 10
    net.at(0.05, lambda: net.set_receiver_rate(throttle_host, 5e7))
    net.at(0.08, lambda: net.set_receiver_rate(throttle_host, None))
    net.run(duration)


def plan_for(scenario: Scenario, topo: Topology, elp: ElpSet) -> TaggerPlan:
    """The Tagger plan the scenario's fabric would deploy."""
    budget = scenario.clos_bounce_budget
    if budget is not None:
        return TaggerPlan.for_clos(topo, max_bounces=budget)
    return TaggerPlan.from_elp(topo, elp.paths)


def run_oracle(
    scenario: Scenario,
    duration: float = 0.2,
    max_pairs: int = 8,
    triggers: Optional[List[Trigger]] = None,
) -> OracleOutcome:
    """Replay one scenario through the simulator, control then tagged.

    Control runs (plain PFC) are tried over the viable triggers (at most
    ``max_pairs`` candidate CBD pairs) until one deadlocks; the tagged
    run replays every tried pair and must never deadlock. Skips (with a
    reason) when no CBD pair exists in the ELP or no pair's endpoints
    have hosts. ``triggers`` hands in an already computed
    :func:`viable_triggers` list for the scenario.
    """
    topo = scenario.build_topology()
    elp = scenario.build_elp(topo)
    if triggers is None:
        triggers, skip_reason = viable_triggers(
            topo, elp.paths, max_pairs=max_pairs
        )
        if not triggers:
            return OracleOutcome(ran=False, reason=skip_reason)

    table = shortest_path_tables(topo)
    trigger_pair: Optional[Tuple[Path, Path]] = None
    tried: List[Trigger] = []
    for pair, legs in triggers:
        tried.append((pair, legs))
        control = SimNetwork(topo, table)
        drive_trigger(control, legs, duration)
        if find_deadlock_cycle(control) is not None:
            trigger_pair = pair
            break

    try:
        plan = plan_for(scenario, topo, elp)
    except ReproError as exc:
        return OracleOutcome(
            ran=True,
            reason=f"no plan for scenario: {exc}",
            pairs_tried=len(tried),
            trigger_pair=trigger_pair,
            control_deadlocked=trigger_pair is not None,
        )
    tagged_deadlocks: List[bool] = []
    lossless_drops = 0
    for pair, legs in tried:
        tagged = SimNetwork.with_plan(topo, shortest_path_tables(topo), plan)
        drive_trigger(tagged, legs, duration)
        tagged_deadlocks.append(find_deadlock_cycle(tagged) is not None)
        lossless_drops += tagged.metrics.drops.get("lossless_overflow", 0)
    return OracleOutcome(
        ran=True,
        pairs_tried=len(tried),
        trigger_pair=trigger_pair,
        control_deadlocked=trigger_pair is not None,
        tagged_deadlocks=tagged_deadlocks,
        tagged_lossless_drops=lossless_drops,
    )
