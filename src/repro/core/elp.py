"""Expected Lossless Path (ELP) set construction (paper §4.1, §6).

The ELP is the operator's declaration of which paths must be lossless.
The only hard requirement is loop-freedom; the paper suggests:

- Clos/FatTree: all shortest up-down paths, optionally plus all paths
  with up to *k* bounces (so transient reroutes stay lossless);
- Jellyfish/unstructured: shortest paths between all ToR pairs,
  optionally plus extra random paths for redundancy (Table 5, last row);
- BCube: the default digit-correcting routes.

An :class:`ElpSet` is a thin validated container so downstream code can
trust the paths it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import TaggingError
from repro.routing.base import Path, is_loop_free, validate_path
from repro.routing.bounce import all_bounce_paths
from repro.routing.shortest import (
    bfs_distances,
    downhill_paths,
    iter_pairwise_shortest_paths,
    random_loopfree_paths,
)
from repro.routing.updown import reachable_updown_paths
from repro.topology.base import Topology
from repro.topology.bcube import bcube_default_route, bcube_servers


def canonical_elp_path(topo: Topology, path: Sequence[str]) -> Path:
    """The canonical tuple of a valid ELP path, or raise.

    A valid ELP path exists in ``topo`` (links may currently be failed —
    the ELP is a declaration, not a routing state) and is loop-free, the
    paper's only restriction on ELP membership (§6). Every entry point
    that accepts an ELP path — :meth:`ElpSet.add`, provider streams, the
    re-planner's pinned extras — checks it here.
    """
    canonical = validate_path(topo, path, allow_failed=True)
    if not is_loop_free(canonical):
        raise TaggingError(f"ELP paths must be loop-free: {canonical}")
    return canonical


@dataclass
class ElpSet:
    """A validated collection of expected lossless paths."""

    topo: Topology
    paths: List[Path] = field(default_factory=list)
    description: str = ""

    def add(self, path: Sequence[str]) -> None:
        """Validate (exists in topology, loop-free) and append a path."""
        self.paths.append(canonical_elp_path(self.topo, path))

    def extend(self, paths: Iterable[Sequence[str]]) -> None:
        for path in paths:
            self.add(path)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def longest_hops(self) -> int:
        """Longest path length in hops (bounds Algorithm 1's tag count)."""
        return max((len(p) - 1 for p in self.paths), default=0)

    def dedupe(self) -> None:
        seen = set()
        unique: List[Path] = []
        for path in self.paths:
            if path not in seen:
                seen.add(path)
                unique.append(path)
        self.paths = unique


def clos_updown_elp(topo: Topology, endpoints: Optional[Sequence[str]] = None) -> ElpSet:
    """ELP = all shortest up-down ToR-to-ToR paths (paper's baseline)."""
    return UpDownElpProvider(explicit_endpoints=endpoints).build(topo)


def clos_bounce_elp(
    topo: Topology,
    max_bounces: int,
    endpoints: Optional[Sequence[str]] = None,
    max_paths_per_pair: Optional[int] = None,
) -> ElpSet:
    """ELP = all paths with up to ``max_bounces`` bounces (includes 0).

    This is the set the paper's Clos tagger makes lossless with
    ``max_bounces + 1`` priorities. Warning: enumeration is exponential;
    use :class:`repro.core.clos.ClosTagger` for large fabrics.
    """
    elp = ElpSet(
        topo, description=f"up to {max_bounces}-bounce paths"
    )
    elp.extend(
        all_bounce_paths(
            topo,
            max_bounces,
            endpoints=endpoints,
            max_paths_per_pair=max_paths_per_pair,
        )
    )
    elp.dedupe()
    return elp


def shortest_path_elp(
    topo: Topology,
    endpoints: Optional[Sequence[str]] = None,
    per_pair: int = 1,
) -> ElpSet:
    """ELP = shortest paths between endpoint pairs (Jellyfish default)."""
    return ShortestPathElpProvider(
        explicit_endpoints=endpoints, per_pair=per_pair
    ).build(topo)


def jellyfish_elp(
    topo: Topology,
    extra_random_paths: int = 0,
    seed: int = 7,
) -> ElpSet:
    """Table 5 ELP: all-pairs shortest paths (+ optional random paths)."""
    endpoints = sorted(name for name in topo.switches)
    elp = shortest_path_elp(topo, endpoints=endpoints)
    if extra_random_paths:
        elp.description += f" + {extra_random_paths} random paths"
        elp.extend(
            random_loopfree_paths(
                topo, extra_random_paths, endpoints=endpoints, seed=seed
            )
        )
    elp.dedupe()
    return elp


# ----------------------------------------------------------------------
# Pairwise ELP providers (incremental re-planning substrate)
# ----------------------------------------------------------------------
class PairwiseElpProvider:
    """An ELP expressed as an independent function of each endpoint pair.

    The incremental re-planner (:mod:`repro.core.replan`) exploits two
    contract guarantees that both concrete providers below honor:

    1. **Pair independence** — :meth:`pair_paths` for ``(src, dst)``
       depends only on the active topology, never on other pairs, so a
       dirty pair can be recomputed in isolation and the result is
       bit-identical to what a from-scratch :meth:`build` would hold.
    2. **Locality under churn** — failing a link can change a pair's
       path set only if (a) one of the pair's current paths traverses
       that link, or (b) the pair is already *damaged* (its current set
       differs from the no-failure baseline). Restoring a link can only
       change damaged pairs. This is what makes dirty-set propagation
       sound; it holds for shortest-path selection because removing
       links never shortens distances (see docs/PERFORMANCE.md for the
       argument, including the capped-ECMP and up-down cases).
    """

    description: str = "pairwise ELP"

    def endpoints(self, topo: Topology) -> List[str]:
        raise NotImplementedError

    def pair_paths(self, topo: Topology, src: str, dst: str) -> Tuple[Path, ...]:
        raise NotImplementedError

    def ordered_pairs(self, topo: Topology) -> List[Tuple[str, str]]:
        names = self.endpoints(topo)
        return [(s, d) for s in names for d in names if s != d]

    def enumerate_paths(self, topo: Topology) -> Iterator[Path]:
        """Every pair's paths, concatenated in :meth:`ordered_pairs` order."""
        for src, dst in self.ordered_pairs(topo):
            yield from self.pair_paths(topo, src, dst)

    def build(self, topo: Topology) -> ElpSet:
        """From-scratch ELP: concatenation over all ordered pairs."""
        elp = ElpSet(topo, description=self.description)
        elp.extend(self.enumerate_paths(topo))
        return elp

    def iter_paths(self, topo: Topology) -> Iterator[Path]:
        """Stream the ELP lazily, one validated path at a time.

        Yields exactly the paths (and order) of :meth:`build`, applying
        the same validation :meth:`ElpSet.add` would, but never holds
        more than one pair's enumeration in memory — Algorithm 1 can
        consume the stream incrementally, so at hyperscale the planner
        avoids materializing the full path list up front.
        """
        for path in self.enumerate_paths(topo):
            yield canonical_elp_path(topo, path)


@dataclass
class UpDownElpProvider(PairwiseElpProvider):
    """Per-pair view of :func:`clos_updown_elp` (paper baseline ELP).

    ``build`` produces exactly the path set of
    ``clos_updown_elp(topo, endpoints)``: unreachable pairs are skipped
    silently, and per-pair results are the sorted deduplicated shortest
    up-down paths. Endpoints must be layered switches; the locality
    contract is proven for lowest-layer (ToR) endpoints, which is the
    only configuration the paper uses.
    """

    explicit_endpoints: Optional[Sequence[str]] = None
    shortest_only: bool = True
    description: str = "shortest up-down paths"

    def endpoints(self, topo: Topology) -> List[str]:
        if self.explicit_endpoints is not None:
            return list(self.explicit_endpoints)
        return sorted(topo.switches_at_layer(0))

    def pair_paths(self, topo: Topology, src: str, dst: str) -> Tuple[Path, ...]:
        return tuple(
            reachable_updown_paths(topo, src, dst, self.shortest_only)
        )


@dataclass
class ShortestPathElpProvider(PairwiseElpProvider):
    """Per-pair view of :func:`shortest_path_elp` (Jellyfish default).

    The enumeration is :func:`repro.routing.shortest.pairwise_shortest_paths`:
    with ``per_pair == 1`` the deterministic greedy downhill walk,
    otherwise the first ``per_pair`` ECMP alternatives in DFS order.
    :meth:`build` and :meth:`iter_paths` run its batch form (one BFS per
    destination); :meth:`pair_paths` runs the same per-pair step on one
    fresh BFS.
    """

    explicit_endpoints: Optional[Sequence[str]] = None
    per_pair: int = 1
    description: str = "pairwise shortest paths"

    def endpoints(self, topo: Topology) -> List[str]:
        if self.explicit_endpoints is not None:
            return list(self.explicit_endpoints)
        return sorted(topo.switches)

    def ordered_pairs(self, topo: Topology) -> List[Tuple[str, str]]:
        # The batch enumeration iterates destinations in the outer loop
        # (one BFS each); the pair order must say the same.
        names = self.endpoints(topo)
        return [(s, d) for d in names for s in names if s != d]

    def pair_paths(self, topo: Topology, src: str, dst: str) -> Tuple[Path, ...]:
        dist = bfs_distances(topo, dst)
        return tuple(downhill_paths(topo, dist, src, dst, self.per_pair))

    def enumerate_paths(self, topo: Topology) -> Iterator[Path]:
        return iter_pairwise_shortest_paths(
            topo, self.endpoints(topo), self.per_pair
        )


def bcube_elp(topo: Topology, n: int, k: int) -> ElpSet:
    """ELP = BCube default (digit-correcting) routes between all servers."""
    elp = ElpSet(topo, description=f"BCube({n},{k}) default routes")
    servers = bcube_servers(topo)
    for src in servers:
        for dst in servers:
            if src != dst:
                elp.add(bcube_default_route(topo, n, k, src, dst))
    return elp
