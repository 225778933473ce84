"""Link failure models.

Data center networks fail constantly: the paper measures hundreds of
up-down violations per day (§3.2, Table 1) caused by link failures and port
flaps. This module provides the IID link-failure sampler that the
reroute-probing measurement (Table 1) draws from, and the topology deltas
(link churn, drains, pinned paths) that the incremental re-planner and the
fuzzer apply (§6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import TopologyError
from repro.topology.base import Topology

LinkKey = Tuple[str, str]


class RandomLinkFailures:
    """IID per-link failure sampler.

    Every switch-to-switch link independently fails with probability
    ``prob`` when :meth:`sample` is called. Host uplinks never fail — a
    failed host uplink disconnects the host rather than causing a reroute,
    which is not the phenomenon Table 1 measures.
    """

    def __init__(
        self,
        topo: Topology,
        prob: float,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= prob <= 1.0:
            raise TopologyError(f"failure probability out of range: {prob}")
        self.topo = topo
        self.prob = prob
        self._rng = random.Random(seed)
        self._candidates: List[LinkKey] = [
            link.key
            for link in topo.iter_links(include_failed=True)
            if topo.node(link.a).is_switch and topo.node(link.b).is_switch
        ]

    @property
    def candidates(self) -> Sequence[LinkKey]:
        return tuple(self._candidates)

    def sample(self) -> Set[LinkKey]:
        """Return a fresh set of failed links (does not touch the topology)."""
        return {
            key for key in self._candidates if self._rng.random() < self.prob
        }

    def apply_sample(self) -> Set[LinkKey]:
        """Sample failures and apply them to the topology (clearing old ones)."""
        self.topo.restore_all()
        failed = self.sample()
        for a, b in failed:
            self.topo.fail_link(a, b)
        return failed

    def fail_exactly(self, count: int) -> Set[LinkKey]:
        """Fail a uniform random set of exactly ``count`` candidate links."""
        if count > len(self._candidates):
            raise TopologyError(
                f"cannot fail {count} of {len(self._candidates)} links"
            )
        self.topo.restore_all()
        failed = set(self._rng.sample(self._candidates, count))
        for a, b in failed:
            self.topo.fail_link(a, b)
        return failed


# ----------------------------------------------------------------------
# Topology deltas (incremental re-planning input)
# ----------------------------------------------------------------------
#: Recognized delta kinds, in the vocabulary of paper §6 ("Topology
#: changes"): single-link churn, maintenance drains, and operator edits
#: to the expected-lossless-path set.
LINK_DOWN = "link-down"
LINK_UP = "link-up"
DRAIN = "drain"
UNDRAIN = "undrain"
ADD_PATHS = "add-paths"
REMOVE_PATHS = "remove-paths"

DELTA_KINDS = (LINK_DOWN, LINK_UP, DRAIN, UNDRAIN, ADD_PATHS, REMOVE_PATHS)


@dataclass(frozen=True)
class TopologyDelta:
    """One atomic change fed to the incremental re-planner.

    ``link-down``/``link-up`` carry a :data:`LinkKey`; ``drain``/
    ``undrain`` carry a switch name (all its switch-to-switch links go
    down/up at once, modeling maintenance); ``add-paths``/
    ``remove-paths`` carry explicit ELP paths the operator pins or
    retires. Constructors below keep the fields consistent.
    """

    kind: str
    link: Optional[LinkKey] = None
    switch: Optional[str] = None
    paths: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise TopologyError(f"unknown delta kind {self.kind!r}")
        if self.kind in (LINK_DOWN, LINK_UP) and self.link is None:
            raise TopologyError(f"{self.kind} delta requires a link")
        if self.kind in (DRAIN, UNDRAIN) and self.switch is None:
            raise TopologyError(f"{self.kind} delta requires a switch")
        if self.kind in (ADD_PATHS, REMOVE_PATHS) and not self.paths:
            raise TopologyError(f"{self.kind} delta requires paths")

    # -- constructors --------------------------------------------------
    @staticmethod
    def link_down(a: str, b: str) -> "TopologyDelta":
        key = (a, b) if a <= b else (b, a)
        return TopologyDelta(kind=LINK_DOWN, link=key)

    @staticmethod
    def link_up(a: str, b: str) -> "TopologyDelta":
        key = (a, b) if a <= b else (b, a)
        return TopologyDelta(kind=LINK_UP, link=key)

    @staticmethod
    def drain(switch: str) -> "TopologyDelta":
        return TopologyDelta(kind=DRAIN, switch=switch)

    @staticmethod
    def undrain(switch: str) -> "TopologyDelta":
        return TopologyDelta(kind=UNDRAIN, switch=switch)

    @staticmethod
    def add_paths(paths: Iterable[Sequence[str]]) -> "TopologyDelta":
        return TopologyDelta(
            kind=ADD_PATHS, paths=tuple(tuple(p) for p in paths)
        )

    @staticmethod
    def remove_paths(paths: Iterable[Sequence[str]]) -> "TopologyDelta":
        return TopologyDelta(
            kind=REMOVE_PATHS, paths=tuple(tuple(p) for p in paths)
        )

    def inverse(self) -> "TopologyDelta":
        """The delta that undoes this one (path deltas swap add/remove)."""
        flipped = {
            LINK_DOWN: LINK_UP,
            LINK_UP: LINK_DOWN,
            DRAIN: UNDRAIN,
            UNDRAIN: DRAIN,
            ADD_PATHS: REMOVE_PATHS,
            REMOVE_PATHS: ADD_PATHS,
        }[self.kind]
        return TopologyDelta(
            kind=flipped, link=self.link, switch=self.switch, paths=self.paths
        )

    def describe(self) -> str:
        if self.link is not None:
            return f"{self.kind} {self.link[0]}<->{self.link[1]}"
        if self.switch is not None:
            return f"{self.kind} {self.switch}"
        return f"{self.kind} ({len(self.paths)} path(s))"


def switch_links(topo: Topology, switch: str) -> List[LinkKey]:
    """Switch-to-switch links incident to ``switch`` (drain scope)."""
    if not topo.node(switch).is_switch:
        raise TopologyError(f"{switch!r} is not a switch")
    return sorted(
        link.key
        for link in topo.iter_links(include_failed=True)
        if switch in (link.a, link.b)
        and topo.node(link.other(switch)).is_switch
    )


def apply_delta(topo: Topology, delta: TopologyDelta) -> List[LinkKey]:
    """Apply a delta's link state changes; returns the links touched.

    Path deltas touch no links (the re-planner consumes them directly).
    ``drain`` fails every switch-to-switch link of the switch; links
    already in the target state are reported anyway so callers can key
    dirty-set propagation off the full footprint.
    """
    if delta.kind in (ADD_PATHS, REMOVE_PATHS):
        return []
    if delta.kind in (DRAIN, UNDRAIN):
        assert delta.switch is not None
        links = switch_links(topo, delta.switch)
    else:
        assert delta.link is not None
        links = [delta.link]
    for a, b in links:
        if delta.kind in (LINK_DOWN, DRAIN):
            topo.fail_link(a, b)
        else:
            topo.restore_link(a, b)
    return links


def random_delta_sequence(
    topo: Topology,
    length: int,
    seed: int,
) -> List[TopologyDelta]:
    """A reproducible churn sequence for differential replan testing.

    Draws link-down / link-up / drain / undrain events against the
    current topology state, preferring reversals of earlier events so
    sequences exercise restores to earlier fabrics (fail -> restore
    cycles) as well as fresh damage. Never downs a host uplink.
    """
    rng = random.Random(seed)
    candidates = [
        link.key
        for link in topo.iter_links(include_failed=True)
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch
    ]
    if not candidates:
        raise TopologyError("no switch-to-switch links to perturb")
    down: Set[LinkKey] = set(topo.failed_links)
    drained: Set[str] = set()
    switches = sorted(topo.switches)
    deltas: List[TopologyDelta] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.15:
            if drained and rng.random() < 0.6:
                name = rng.choice(sorted(drained))
                drained.discard(name)
                delta = TopologyDelta.undrain(name)
            else:
                name = rng.choice(switches)
                drained.add(name)
                delta = TopologyDelta.drain(name)
            for key in switch_links(topo, name):
                if delta.kind == DRAIN:
                    down.add(key)
                else:
                    down.discard(key)
        elif down and roll < 0.55:
            key = rng.choice(sorted(down))
            down.discard(key)
            delta = TopologyDelta.link_up(*key)
        else:
            key = rng.choice(candidates)
            down.add(key)
            delta = TopologyDelta.link_down(*key)
        deltas.append(delta)
    return deltas
