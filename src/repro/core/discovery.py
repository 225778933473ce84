"""ELP discovery from live routing state (paper §6, "Specifying ELP").

"As long as routing is traffic agnostic, it is usually easy to determine
what routes the routing algorithm will compute... If an SDN controller is
used, the controller algorithm can be used to generate the paths under a
variety of simulated conditions."

This module is that controller-side tooling: trace the actual forwarding
tables (across ECMP hash space) to enumerate the paths traffic will take,
optionally across a set of simulated failure scenarios, and produce a
validated :class:`~repro.core.elp.ElpSet` ready for the tagging
algorithms. Looping traces (transient micro-loops) are excluded — ELP
membership requires loop-freedom.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.elp import ElpSet
from repro.exceptions import RoutingError
from repro.routing.base import ForwardingTable, Path, as_path, is_loop_free
from repro.topology.base import Topology

#: Builds (or rebuilds) forwarding state for the current topology state.
TableFactory = Callable[[Topology], ForwardingTable]

LinkKey = Tuple[str, str]


def trace_elp(
    topo: Topology,
    table: ForwardingTable,
    endpoints: Optional[Sequence[str]] = None,
    hashes: Iterable[int] = range(8),
    max_hops: int = 32,
) -> ElpSet:
    """Enumerate the host-to-host paths the given tables actually realize.

    Args:
        topo: The fabric.
        table: Forwarding state to trace.
        endpoints: Host pairs to cover (default: all hosts).
        hashes: ECMP hash samples per pair — each may take a different
            ECMP member at each switch; 8 samples cover small groups well.
        max_hops: Loop cutoff; longer traces are treated as loops.

    Loops and black holes (missing routes) are skipped, not errors: the
    ELP describes what must be lossless, and a transiently looping route
    has no business in it.
    """
    if endpoints is None:
        endpoints = sorted(topo.hosts)
    elp = ElpSet(topo, description="traced from forwarding tables")
    seen: Set[Path] = set()
    for src in endpoints:
        try:
            first_switch = topo.host_tor(src)
        except Exception:
            continue
        for dst in endpoints:
            if src == dst:
                continue
            for flow_hash in hashes:
                try:
                    core, completed = table.trace(
                        first_switch, dst, flow_hash=flow_hash, max_hops=max_hops
                    )
                except RoutingError:
                    continue
                if not completed:
                    continue
                path = as_path((src,) + tuple(core))
                if path in seen or not is_loop_free(path):
                    continue
                seen.add(path)
                elp.add(path)
    return elp


def elp_under_failures(
    topo: Topology,
    table_factory: TableFactory,
    scenarios: Iterable[Iterable[LinkKey]],
    endpoints: Optional[Sequence[str]] = None,
    hashes: Iterable[int] = range(8),
) -> ElpSet:
    """Union of traced ELPs across simulated failure scenarios.

    The healthy fabric's traces come first. For each scenario the listed
    links are then failed, forwarding state is rebuilt via
    ``table_factory`` (model converged routing; compose with
    :func:`repro.routing.reroute.apply_local_reroute` inside the factory
    to model transients), traces are collected, and the topology is
    restored. The result is the operator's "paths that must stay lossless
    no matter which of these failures happens".
    """
    merged = ElpSet(topo, description="traced across failure scenarios")
    seen: Set[Path] = set()

    def absorb(elp: ElpSet) -> None:
        for path in elp:
            if path not in seen:
                seen.add(path)
                merged.paths.append(path)

    topo.restore_all()
    absorb(trace_elp(topo, table_factory(topo), endpoints, hashes))
    for scenario in scenarios:
        topo.restore_all()
        for a, b in scenario:
            topo.fail_link(a, b)
        absorb(trace_elp(topo, table_factory(topo), endpoints, hashes))
    topo.restore_all()
    return merged


def single_link_failure_scenarios(topo: Topology) -> List[List[LinkKey]]:
    """Every single switch-to-switch link failure — the classic sweep."""
    scenarios: List[List[LinkKey]] = []
    for link in topo.iter_links(include_failed=True):
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch:
            scenarios.append([link.key])
    return scenarios
