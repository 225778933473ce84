"""R-family checks: explore reachable (tag, ingress-port) packet states.

Starting from the host injection points — every host-facing switch port,
with :data:`~repro.core.tags.INITIAL_TAG` — the linter closes over the
deployed rules exactly the way packets would: a rule
``(tag, in_port, out_port) -> new_tag`` moves the state to the far-end
switch's ingress port carrying ``new_tag`` (demotions leave the lossless
world and end exploration). On host-free fabrics (paths between
switches) every switch-facing port doubles as an injection point.

From the reachable set the linter flags:

- **R201** match states that never occur, once per state with the
  rules under it (dead TCAM space);
- **R202** tags no reachable packet ever carries;
- **R203** reachable states whose every continuation demotes and whose
  switch has no host to deliver to — packets there can only make
  progress by dropping out of the lossless class.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable
from repro.core.tags import INITIAL_TAG, LOSSY_TAG
from repro.lint.diagnostics import Diagnostic, make_diagnostic
from repro.lint.graph_checks import PortMap, RuleSection, port_maps, rule_sections
from repro.topology.base import Topology

#: A packet state: (switch, ingress port, carried tag).
State = Tuple[str, int, int]


def injection_states(topo: Topology) -> Set[State]:
    """Where fresh lossless packets can enter the fabric.

    Host-facing switch ports with the initial tag; when the topology has
    no hosts at all (switch-to-switch ELPs), every switch port instead.
    """
    states: Set[State] = set()
    has_hosts = bool(topo.hosts)
    for switch in topo.switches:
        for port, peer in topo.ports(switch).items():
            if not has_hosts or topo.node(peer).is_host:
                states.add((switch, port, INITIAL_TAG))
    return states


def _closure(
    topo: Topology,
    sections: Mapping[str, RuleSection],
    wiring: Mapping[str, PortMap],
) -> Tuple[Set[State], Set[int]]:
    """BFS closure over the sections' transitions from the injection
    points; returns ``(reachable states, live tags)``.

    Each state costs one index lookup plus its own continuations — the
    whole closure is linear in the rules that can fire, not in
    ``states x rules per switch``.
    """
    reachable: Set[State] = set()
    live_tags: Set[int] = set()
    queue = deque(sorted(injection_states(topo)))
    reachable.update(queue)
    while queue:
        switch, in_port, tag = queue.popleft()
        live_tags.add(tag)
        section = sections.get(switch)
        if section is None:
            continue
        far_ends = wiring[switch]
        for out_port, new_tag in section.transitions.get((tag, in_port), ()):
            if new_tag == LOSSY_TAG:
                continue
            live_tags.add(new_tag)
            far_end = far_ends.get(out_port)
            if far_end is None:  # host delivery, or T004's unknown port
                continue
            state = (far_end[0], far_end[1], new_tag)
            if state not in reachable:
                reachable.add(state)
                queue.append(state)
    return reachable, live_tags


def explore(
    topo: Topology, tables: Mapping[str, RuleTable]
) -> Tuple[Set[State], Set[Tuple[str, int, int, int]], Set[int]]:
    """Closure over the rules from the injection points.

    Returns ``(reachable states, fired rule keys as (switch, tag,
    in_port, out_port), live tags)``. A rule fires exactly when its
    match state is reachable. Live tags include every tag a reachable
    state carries plus rewrite results applied on delivery hops (the
    packet occupies an egress queue under the new tag even when the far
    end is a host).
    """
    sections = rule_sections(topo, tables)
    reachable, live_tags = _closure(topo, sections, port_maps(topo, sections))
    fired = {
        (switch, tag, in_port, out_port)
        for switch, in_port, tag in reachable
        if switch in sections
        for out_port, _ in sections[switch].transitions.get(
            (tag, in_port), ()
        )
    }
    return reachable, fired, live_tags


def check_reachability(
    topo: Topology,
    tables: Mapping[str, RuleTable],
    queue_map: Optional[QueueMap] = None,
    sections: Optional[Mapping[str, RuleSection]] = None,
) -> Tuple[List[Diagnostic], Dict[str, int], Set[int]]:
    """Run the R-family checks; returns (diagnostics, stats, live tags).

    ``sections`` are the tables' per-switch sections when the caller
    already holds them (sorted switch order); otherwise built here.
    """
    if sections is None:
        sections = rule_sections(topo, tables)
    diagnostics: List[Diagnostic] = []
    reachable, live_tags = _closure(topo, sections, port_maps(topo, sections))

    # R201 — match states that never occur: one finding per state,
    # naming its rules' egress ports; the stat still counts rules.
    dead_rules = 0
    for switch, section in sections.items():
        for (tag, in_port), continuations in section.transitions.items():
            if (switch, in_port, tag) in reachable:
                continue
            dead_rules += len(continuations)
            out_ports = ", ".join(str(out_port) for out_port, _ in continuations)
            diagnostics.append(
                make_diagnostic(
                    "R201",
                    f"no packet injected at a host ever arrives on port "
                    f"{in_port} carrying tag {tag}; its "
                    f"{len(continuations)} rule(s) (out ports {out_ports}) "
                    "are dead TCAM space",
                    switch=switch,
                    location=f"({tag},{in_port})",
                )
            )

    # R202 — tags nobody can ever carry.
    mentioned: Set[int] = set()
    for section in sections.values():
        mentioned.update(section.tags)
    if queue_map is not None:
        mentioned.update(tag for tag, _ in queue_map.mapping)
    for tag in sorted(mentioned - live_tags):
        diagnostics.append(
            make_diagnostic(
                "R202",
                f"tag {tag} appears in the deployment but no reachable "
                "packet state ever carries it",
                location=f"tag {tag}",
            )
        )

    # R203 — lossless dead ends (only meaningful when hosts exist:
    # without hosts the delivery points are unknowable from the rules).
    dead_ends = 0
    if topo.hosts:
        delivers: Dict[str, bool] = {}
        for switch, in_port, tag in sorted(reachable):
            if switch not in delivers:
                delivers[switch] = any(
                    topo.node(peer).is_host
                    for peer in topo.ports(switch).values()
                )
            if delivers[switch]:
                continue  # local delivery is possible
            section = sections.get(switch)
            has_lossless_exit = section is not None and any(
                new_tag != LOSSY_TAG
                for _, new_tag in section.transitions.get(
                    (tag, in_port), ()
                )
            )
            if not has_lossless_exit:
                dead_ends += 1
                diagnostics.append(
                    make_diagnostic(
                        "R203",
                        f"packets arriving on port {in_port} with tag "
                        f"{tag} have no lossless continuation and no "
                        "local host; they can only proceed via lossy "
                        "demotion",
                        switch=switch,
                        location=f"({tag},{in_port})",
                    )
                )

    stats = {
        "reachable_states": len(reachable),
        "live_tags": len(live_tags),
        "dead_rules": dead_rules,
        "lossy_dead_ends": dead_ends,
    }
    return diagnostics, stats, live_tags
