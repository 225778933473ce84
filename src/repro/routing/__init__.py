"""Routing substrate: path enumeration, forwarding tables, failure detours.

Public API re-exported here:

- path utilities and :class:`ForwardingTable` (:mod:`repro.routing.base`)
- up-down routing (:mod:`repro.routing.updown`)
- shortest-path routing (:mod:`repro.routing.shortest`)
- k-bounce path enumeration (:mod:`repro.routing.bounce`)
- transient local rerouting (:mod:`repro.routing.reroute`)
- routing-loop injection/detection (:mod:`repro.routing.loops`)
"""

from repro.routing.base import (
    ForwardingTable,
    Path,
    as_path,
    count_bounces,
    hops,
    is_loop_free,
    validate_path,
)
from repro.routing.bounce import all_bounce_paths, bounce_paths, classify_by_bounces
from repro.routing.convergence import (
    ConvergenceProcess,
    TableUpdate,
    transient_states,
)
from repro.routing.loops import find_forwarding_loops, install_loop
from repro.routing.reroute import apply_local_reroute
from repro.routing.shortest import (
    bfs_distances,
    pairwise_shortest_paths,
    random_loopfree_paths,
    shortest_path_tables,
)
from repro.routing.updown import updown_paths

__all__ = [
    "ForwardingTable",
    "Path",
    "as_path",
    "count_bounces",
    "hops",
    "is_loop_free",
    "validate_path",
    "bounce_paths",
    "all_bounce_paths",
    "classify_by_bounces",
    "ConvergenceProcess",
    "TableUpdate",
    "transient_states",
    "install_loop",
    "find_forwarding_loops",
    "apply_local_reroute",
    "bfs_distances",
    "pairwise_shortest_paths",
    "random_loopfree_paths",
    "shortest_path_tables",
    "updown_paths",
]
