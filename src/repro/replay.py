"""R204: replay host traffic through the deployed programs.

Every lossless guarantee a plan makes is about packets that hosts
send, so this replay starts where they do: at the source host's port
on its first switch, carrying the initial tag. It walks each host path
hop by hop through the switches' ordered TCAM programs with its own
first-match loop, and requires a lossless queue at every hop. The
delivery hop keeps its tag onto the host link, as the simulator's
switches do. A path that reaches its host lossless counts; any other
is reported with the index of the first hop (a position in the path)
whose switch demoted it.

The replay reads only the fabric, the compiled programs, the queue map
and the host paths the caller gives it, and shares no code with the
planner, the linter or the simulator. It also names the fabric a plan
was made for (:func:`fabric_digest`), so a plan presented against
another fabric is refused rather than replayed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.topology.base import Topology

__all__ = [
    "HostReplay",
    "INITIAL_TAG",
    "fabric_digest",
    "host_paths",
    "replay_hosts",
]

#: Tag 0 demotes: queue 0 is the lossy queue.
LOSSY_TAG = 0
LOSSY_QUEUE = 0

#: The tag a host injects.
INITIAL_TAG = 1


class Entry(Protocol):
    """One ordered program entry (a ``TcamEntry`` is one): an exact or
    wildcard (``None``) tag match, port bitmaps and a rewrite."""

    tag: Optional[int]
    in_ports: AbstractSet[int]
    out_ports: AbstractSet[int]
    new_tag: int


class QueueMapLike(Protocol):
    """A tag -> queue assignment as ``(tag, queue)`` pairs."""

    mapping: Sequence[Tuple[int, int]]


@dataclass(frozen=True)
class HostReplay:
    """How many host paths stay lossless, and where the others fall."""

    lossless: int
    total: int
    #: Each demoted path with the index of its first demoting hop.
    demoted: Tuple[Tuple[Tuple[str, ...], int], ...]

    @property
    def fraction(self) -> float:
        return self.lossless / self.total if self.total else 0.0

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.lossless == self.total

    def summary(self) -> str:
        line = (
            f"{self.lossless} of {self.total} host path(s) lossless "
            f"({100 * self.fraction:.1f} %)"
        )
        if self.demoted:
            path, hop = self.demoted[0]
            line += (
                f"; first demoted: {' '.join(path)} at hop {hop} ({path[hop]})"
            )
        return line


def _first_match(program: Sequence[Entry], tag: int, in_port: int, out_port: int) -> int:
    """The rewrite of the first entry matching, or the lossy tag when
    none does."""
    for entry in program:
        if (
            (entry.tag is None or entry.tag == tag)
            and in_port in entry.in_ports
            and out_port in entry.out_ports
        ):
            return entry.new_tag
    return LOSSY_TAG


def replay_hosts(
    topo: Topology,
    programs: Mapping[str, Sequence[Entry]],
    queue_map: QueueMapLike,
    paths: Iterable[Sequence[str]],
) -> HostReplay:
    """Walk every host path (host, switches..., host) through
    ``programs``: at hop 1 the packet arrives from its host with
    :data:`INITIAL_TAG`; every switch but the delivering one rewrites it by
    first match; each tag it travels with must map to a lossless queue.
    A switch without a program demotes."""
    lossless_tags = {tag for tag, queue in queue_map.mapping if queue != LOSSY_QUEUE}
    lossless_tags.discard(LOSSY_TAG)
    total = 0
    demoted: List[Tuple[Tuple[str, ...], int]] = []
    for path in paths:
        total += 1
        failed_at = _walk(topo, programs, lossless_tags, path, INITIAL_TAG)
        if failed_at is not None:
            demoted.append((tuple(path), failed_at))
    return HostReplay(lossless=total - len(demoted), total=total, demoted=tuple(demoted))


def _walk(
    topo: Topology,
    programs: Mapping[str, Sequence[Entry]],
    lossless_tags: AbstractSet[int],
    path: Sequence[str],
    tag: int,
) -> Optional[int]:
    """The first demoting hop of one host path, or None."""
    for hop in range(1, len(path) - 1):
        if tag not in lossless_tags:
            return hop
        switch, next_node = path[hop], path[hop + 1]
        if topo.node(next_node).is_host:
            continue  # delivery: the tag rides onto the host link
        tag = _first_match(
            programs.get(switch, ()),
            tag,
            topo.port_to(switch, path[hop - 1]),
            topo.port_to(switch, next_node),
        )
        if tag not in lossless_tags:
            return hop
    return None


def host_paths(topo: Topology, switch_paths: Iterable[Sequence[str]]) -> List[Tuple[str, ...]]:
    """Host paths over ``switch_paths``: each switch path once for every
    host of its first switch and every host of its last (a path whose
    end switches face no host carries no host traffic)."""
    hosts: Dict[str, List[str]] = {}

    def hosts_of(switch: str) -> List[str]:
        if switch not in hosts:
            hosts[switch] = sorted(
                peer for peer in topo.ports(switch).values() if topo.node(peer).is_host
            )
        return hosts[switch]

    return [
        (source, *path, sink)
        for path in switch_paths
        for source in hosts_of(path[0])
        for sink in hosts_of(path[-1])
    ]


def fabric_digest(topo: Topology, elp: str) -> str:
    """A digest of the fabric a plan is made for: every node with its
    kind and layer, every link with its ports, the failed links, and
    ``elp``, the name of the ELP the plan covers (its provider and
    parameters, which with the fabric determine its paths)."""
    lines = [f"node {n.name} {n.kind} {n.layer}" for n in sorted(topo.nodes.values(), key=lambda n: n.name)]
    lines += [
        f"link {link.a}:{link.port_a} {link.b}:{link.port_b}"
        for _key, link in sorted(topo.links.items())
    ]
    lines += [f"failed {a} {b}" for a, b in sorted(topo.failed_links)]
    lines.append(f"elp {elp}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
