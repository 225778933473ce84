"""Symmetry-aware ELP enumeration for pod-regular Clos fabrics.

ELP enumeration dominates from-scratch planning cost: on the 64-ToR
benchmark Clos, ~98% of pipeline wall time is spent running the up-down
BFS for all 4032 ordered ToR pairs and materializing ~231k paths, even
though the fabric is made of eight *isomorphic* pods. This module
exploits that regularity the way production routing engines configure
structured fabrics: certify once, in O(links), that the topology is a
disjoint union of complete-bipartite ToR/leaf pods whose leaves attach
to pairwise-disjoint spine groups, then count the ELP and build the
Algorithm-1 tagged graph from the closed form instead of per-path
search.

A fabric that differs from a certifiable one only by failed links (a
drain fails every link of a switch) certifies too: the closed form reads
which links are up, and the certificate's *residue* — the ordered pairs
with a pristine up-down path through a failed link — is only counted,
never walked, except for the pairs it leaves with no pristine path.

Soundness contract (property-tested in
``tests/properties/test_symmetry_equivalence.py`` and fuzz-checked as
the ``symmetry-divergence`` invariant):

- :meth:`SymmetryCertificate.populate_graph` emits exactly the node and
  edge set Algorithm 1 derives from the exhaustive path set of the
  fabric as it stands, failed links included (the
  :class:`~repro.core.tags.TaggedGraph` is set-structured, so equality
  is order-free), and returns that path set's size;
- :func:`certify` returns ``None`` — degrading callers to per-pair
  enumeration — on *any* structural irregularity of the fabric with
  every link up: unlayered or >3-layer switches, incomplete pods, or
  spine groups shared between leaf colors.

The certificate deliberately ignores links up-down routing cannot see
(ToR-ToR express links, same-layer links, layer-skipping links): they
change no up-down path, so certifying past them — failed or not — is
exact, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.bruteforce import add_tagged_path
from repro.core.tags import TaggedGraph
from repro.routing.updown import updown_paths_by_pair
from repro.topology.base import Topology
from repro.topology.clos import LEAF_LAYER, SPINE_LAYER, TOR_LAYER

Pair = Tuple[str, str]


@dataclass(frozen=True)
class Pod:
    """One complete-bipartite ToR/leaf component of a certified fabric.

    ``leaves_by_color`` maps a spine-group index (position in the
    certificate's ``spine_groups``) to the pod's leaves wired to that
    group; leaves with no spine uplinks appear in ``leaves`` only.
    """

    tors: Tuple[str, ...]
    leaves: Tuple[str, ...]
    leaves_by_color: Tuple[Tuple[int, Tuple[str, ...]], ...]

    def color_leaves(self, color: int) -> Tuple[str, ...]:
        for idx, leaves in self.leaves_by_color:
            if idx == color:
                return leaves
        return ()


@dataclass
class SymmetryCertificate:
    """Proof object that closed-form up-down enumeration is exact here.

    Holds the pod decomposition and spine coloring of a certified
    topology with every link up, the closed forms derived from them, and
    the residue of the topology's failed links. Valid only for the exact
    topology state it was certified against — every plan re-certifies.
    """

    topo: Topology
    pods: Tuple[Pod, ...]
    spine_groups: Tuple[Tuple[str, ...], ...]
    #: Ordered ToR pairs, sorted, with a pristine up-down path through a
    #: failed link; empty when no failed link carries an up-down path.
    residue: Tuple[Pair, ...]

    def __post_init__(self) -> None:
        self._pod_index: Dict[str, int] = {}
        for idx, pod in enumerate(self.pods):
            for tor in pod.tors:
                self._pod_index[tor] = idx

    # ------------------------------------------------------------------
    # Closed-form Algorithm-1 graph
    # ------------------------------------------------------------------
    def populate_graph(self, graph: TaggedGraph) -> Tuple[int, int]:
        """Emit the Algorithm-1 node/edge set of the topology's up-down
        ELP; return that ELP's path count and the number of paths walked.

        Equivalent to running :func:`~repro.core.bruteforce.bruteforce_tagging`
        over every pair's paths on the topology as it stands, failed
        links included, without materializing a path: each orbit of
        isomorphic hops is replicated directly as edges. ``add_edge``
        creates endpoint nodes, and every up-down ingress hop lies on an
        edge. Removing links never creates an up-down path, so a pair
        that keeps a pristine path has exactly its surviving pristine
        paths, and a pristine edge survives iff one of them crosses it —
        a question about links, read once per ToR-leaf and leaf-spine
        link, never per path:

        - an intra-pod edge ``(L<-s,1)->(d<-L,2)`` survives iff ``s-L``
          and ``L-d`` are up;
        - an up edge ``(L<-s,1)->(S<-L,2)`` survives iff ``s-L`` and
          ``L-S`` are up and spine ``S`` has, in another pod of its
          color, a leaf with a live link to ``S`` and a live ToR; a down
          edge ``(L<-S,3)->(d<-L,4)`` is the mirror case;
        - a spine edge ``(S<-L,2)->(L2<-S,3)`` survives iff ``L-S`` and
          ``S-L2`` are up and both leaves keep a live ToR.

        A residue pair left with no pristine path (a *cut* pair) may
        climb higher on the damaged fabric: the cut pairs are enumerated
        in one :func:`~repro.routing.updown.updown_paths_by_pair` call
        and their paths walked onto the graph — the only paths walked.
        """
        port = self.topo.port_to
        failed = {
            pair
            for a, b in self.topo.failed_links
            for pair in ((a, b), (b, a))
        }
        live_tors = {
            leaf: [tor for tor in pod.tors if (leaf, tor) not in failed]
            for pod in self.pods
            for leaf in pod.leaves
        }
        for pod in self.pods:
            for leaf in pod.leaves:
                tors = live_tors[leaf]
                for src in tors:
                    src_node = ((leaf, port(leaf, src)), 1)
                    for dst in tors:
                        if dst != src:
                            graph.add_edge(
                                src_node, ((dst, port(dst, leaf)), 2)
                            )
        for color, spines in enumerate(self.spine_groups):
            # Per pod of the color: its leaves with a live ToR, the
            # tag-2 node of each of their live spine uplinks, and per
            # spine the tag-3 node of each leaf it reaches.
            fed = [
                [leaf for leaf in pod.color_leaves(color) if live_tors[leaf]]
                for pod in self.pods
                if pod.color_leaves(color)
            ]
            mids = [
                [
                    (leaf, spine, ((spine, port(spine, leaf)), 2))
                    for leaf in leaves
                    for spine in spines
                    if (leaf, spine) not in failed
                ]
                for leaves in fed
            ]
            lows = [
                {
                    spine: [
                        ((leaf, port(leaf, spine)), 3)
                        for leaf in leaves
                        if (leaf, spine) not in failed
                    ]
                    for spine in spines
                }
                for leaves in fed
            ]
            # A spine carries cross-pod paths iff two pods reach it.
            crossed = {
                spine
                for spine in spines
                if sum(1 for pod_lows in lows if pod_lows[spine]) > 1
            }
            for pod_mids in mids:
                # Up (tag 1 -> 2) and down (tag 3 -> 4) legs depend on
                # one pod only: emit them once per pod, not per pair.
                for leaf, spine, up_node in pod_mids:
                    if spine not in crossed:
                        continue
                    down_node = ((leaf, port(leaf, spine)), 3)
                    for tor in live_tors[leaf]:
                        graph.add_edge(((leaf, port(leaf, tor)), 1), up_node)
                        graph.add_edge(down_node, ((tor, port(tor, leaf)), 4))
            for p, pod_mids in enumerate(mids):
                for q, pod_lows in enumerate(lows):
                    if p != q:
                        for _leaf, spine, mid_node in pod_mids:
                            for low_node in pod_lows[spine]:
                                graph.add_edge(mid_node, low_node)
        paths, cut = self._surviving_paths(failed, live_tors)
        found = updown_paths_by_pair(self.topo, cut)
        walked = 0
        for pair in cut:
            for path in found[pair]:
                add_tagged_path(graph, self.topo, path)
            walked += len(found[pair])
        return paths + walked, walked

    def _surviving_paths(
        self, failed: Set[Pair], live_tors: Dict[str, List[str]]
    ) -> Tuple[int, List[Pair]]:
        """The pristine path count less each residue pair's pristine
        paths plus its surviving ones, and the residue pairs left with
        none (the cut pairs, in residue order).

        A pair's survivors are its live leaves (same pod) or the sum over
        spines of the product of its two ToRs' live (leaf, spine) chains.
        """
        paths = self.path_count()
        if not self.residue:
            return paths, []
        chains: Dict[str, Dict[str, int]] = {}
        for pod in self.pods:
            for color, leaves in pod.leaves_by_color:
                for leaf in leaves:
                    for spine in self.spine_groups[color]:
                        if (leaf, spine) in failed:
                            continue
                        for tor in live_tors[leaf]:
                            counts = chains.setdefault(tor, {})
                            counts[spine] = counts.get(spine, 0) + 1
        cut: List[Pair] = []
        for src, dst in self.residue:
            p = self.pods[self._pod_index[src]]
            q = self.pods[self._pod_index[dst]]
            if p is q:
                pristine = len(p.leaves)
                survivors = sum(
                    1
                    for leaf in p.leaves
                    if (src, leaf) not in failed and (leaf, dst) not in failed
                )
            else:
                pristine = sum(
                    len(spines)
                    * len(p.color_leaves(color))
                    * len(q.color_leaves(color))
                    for color, spines in enumerate(self.spine_groups)
                )
                down = chains.get(dst, {})
                survivors = sum(
                    count * down.get(spine, 0)
                    for spine, count in chains.get(src, {}).items()
                )
            if not survivors:
                cut.append((src, dst))
            paths += survivors - pristine
        return paths, cut

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def path_count(self) -> int:
        """Exact ELP path count, in O(pods * colors) — no enumeration."""
        total = 0
        for pod in self.pods:
            tors = len(pod.tors)
            total += len(pod.leaves) * tors * (tors - 1)
        for color, spines in enumerate(self.spine_groups):
            fanouts = [
                len(pod.tors) * len(pod.color_leaves(color))
                for pod in self.pods
            ]
            linear = sum(fanouts)
            square = sum(f * f for f in fanouts)
            total += len(spines) * (linear * linear - square)
        return total


def _residue(topo: Topology, pods: Tuple[Pod, ...]) -> Tuple[Pair, ...]:
    """Ordered ToR pairs with a pristine up-down path through a failed link.

    A failed ToR-leaf link cuts its ToR's intra-pod pairs and, when the
    leaf has spine uplinks, its ToR's pairs with every other pod of the
    leaf's color; a failed leaf-spine link cuts every pair between the
    leaf's pod and the other pods of its color. No other link carries a
    closed-form path.
    """
    pod_of: Dict[str, int] = {}
    color_of: Dict[str, int] = {}
    for idx, pod in enumerate(pods):
        for name in pod.leaves:
            pod_of[name] = idx
        for color, leaves in pod.leaves_by_color:
            for leaf in leaves:
                color_of[leaf] = color

    def peers(pod: int, color: int) -> List[str]:
        """ToRs of the other pods wired to ``color``."""
        return [
            tor
            for idx, other in enumerate(pods)
            if idx != pod and other.color_leaves(color)
            for tor in other.tors
        ]

    residue: Set[Pair] = set()
    for a, b in topo.failed_links:
        layers = {topo.layer_of(a): a, topo.layer_of(b): b}
        leaf = layers.get(LEAF_LAYER)
        if leaf is None:
            continue
        pod = pod_of[leaf]
        color = color_of.get(leaf)
        tor = layers.get(TOR_LAYER)
        if tor is not None:
            sources = [tor]
            sinks = [x for x in pods[pod].tors if x != tor]
            if color is not None:
                sinks += peers(pod, color)
        elif SPINE_LAYER in layers and color is not None:
            # A leaf's color is its spine neighborhood: the spine is in it.
            sources = list(pods[pod].tors)
            sinks = peers(pod, color)
        else:
            continue
        for src in sources:
            for dst in sinks:
                residue.update(((src, dst), (dst, src)))
    return tuple(sorted(residue))


def certify(topo: Topology, provider: Any) -> Optional[SymmetryCertificate]:
    """Certify that closed-form up-down enumeration is exact, or refuse.

    Certifies the fabric with every link up and returns that certificate
    with the residue of the failed links (:func:`_residue`). Returns
    ``None`` (degrade to the per-pair walk) unless *all* of the
    following hold:

    - ``provider`` is exactly :class:`~repro.core.elp.UpDownElpProvider`
      (a subclass may override ``pair_paths``), with endpoints equal to
      the sorted layer-0 switch set, each once;
    - every switch carries a layer in {0, 1, 2};
    - the ToR/leaf adjacency partitions into disjoint complete-bipartite
      pods (every ToR of a pod links to every leaf of that pod);
    - distinct leaf spine-neighborhoods are pairwise disjoint (a spine
      shared between two colors would admit cross-color paths the
      closed form does not enumerate).
    """
    from repro.core.elp import UpDownElpProvider

    if type(provider) is not UpDownElpProvider:
        return None
    tors = sorted(topo.switches_at_layer(TOR_LAYER))
    if provider.explicit_endpoints is not None:
        if sorted(provider.explicit_endpoints) != tors:
            return None

    for name in topo.switches:
        if topo.layer_of(name) not in (TOR_LAYER, LEAF_LAYER, SPINE_LAYER):
            return None

    def _layer_neighbors(name: str, layer: int) -> List[str]:
        return [
            peer
            for peer in topo.neighbors(name, include_failed=True)
            if topo.node(peer).is_switch and topo.node(peer).layer == layer
        ]

    tor_leaves: Dict[str, FrozenSet[str]] = {
        tor: frozenset(_layer_neighbors(tor, LEAF_LAYER)) for tor in tors
    }
    leaf_tors: Dict[str, List[str]] = {}
    for tor, leaves in tor_leaves.items():
        for leaf in leaves:
            leaf_tors.setdefault(leaf, []).append(tor)
    all_leaves = sorted(
        set(topo.switches_at_layer(LEAF_LAYER)) | set(leaf_tors)
    )

    # Connected components of the ToR<->leaf bipartite graph = pods.
    visited: Dict[str, int] = {}
    components: List[Tuple[List[str], List[str]]] = []
    for seed in tors + all_leaves:
        if seed in visited:
            continue
        comp_id = len(components)
        comp_tors: List[str] = []
        comp_leaves: List[str] = []
        stack = [seed]
        visited[seed] = comp_id
        while stack:
            name = stack.pop()
            is_tor = topo.layer_of(name) == TOR_LAYER
            (comp_tors if is_tor else comp_leaves).append(name)
            neighbors = (
                tor_leaves[name] if is_tor else leaf_tors.get(name, ())
            )
            for peer in neighbors:
                if peer not in visited:
                    visited[peer] = comp_id
                    stack.append(peer)
        components.append((sorted(comp_tors), sorted(comp_leaves)))

    for comp_tors, comp_leaves in components:
        leaf_set = frozenset(comp_leaves)
        for tor in comp_tors:
            if tor_leaves[tor] != leaf_set:
                return None  # pod is not complete bipartite

    # Color leaves by spine neighborhood; distinct colors must not
    # share a spine, or per-color enumeration would miss paths.
    leaf_color: Dict[str, FrozenSet[str]] = {
        leaf: frozenset(_layer_neighbors(leaf, SPINE_LAYER))
        for leaf in all_leaves
    }
    distinct = {color for color in leaf_color.values() if color}
    spine_owner: Dict[str, FrozenSet[str]] = {}
    for color in distinct:
        for spine in color:
            if spine_owner.setdefault(spine, color) != color:
                return None
    spine_groups = tuple(
        tuple(sorted(color))
        for color in sorted(distinct, key=lambda c: sorted(c))
    )
    color_index = {group: idx for idx, group in enumerate(spine_groups)}

    pods: List[Pod] = []
    for comp_tors, comp_leaves in sorted(components):
        by_color: Dict[int, List[str]] = {}
        for leaf in comp_leaves:
            color = leaf_color[leaf]
            if color:
                by_color.setdefault(
                    color_index[tuple(sorted(color))], []
                ).append(leaf)
        pods.append(
            Pod(
                tors=tuple(comp_tors),
                leaves=tuple(comp_leaves),
                leaves_by_color=tuple(
                    (color, tuple(leaves))
                    for color, leaves in sorted(by_color.items())
                ),
            )
        )
    return SymmetryCertificate(
        topo=topo,
        pods=tuple(pods),
        spine_groups=spine_groups,
        residue=_residue(topo, tuple(pods)),
    )
