"""Symmetry-aware ELP enumeration for pod-regular Clos fabrics.

ELP enumeration dominates from-scratch planning cost: on the 64-ToR
benchmark Clos, ~98% of pipeline wall time is spent running the up-down
BFS for all 4032 ordered ToR pairs and materializing ~231k paths, even
though the fabric is made of eight *isomorphic* pods. This module
exploits that regularity the way production routing engines configure
structured fabrics: certify once, in O(links), that the topology is a
disjoint union of complete-bipartite ToR/leaf pods whose leaves attach
to pairwise-disjoint spine groups, then answer every per-pair query —
and build the Algorithm-1 tagged graph — from the closed form instead
of per-path search.

A fabric that differs from a certifiable one only by failed links (a
drain fails every link of a switch) certifies too, with a *residue*:
the ordered pairs with a pristine up-down path through a failed link,
the only pairs :meth:`SymmetryCertificate.damaged_graph` re-derives.

Soundness contract (property-tested in
``tests/properties/test_symmetry_equivalence.py`` and fuzz-checked as
the ``symmetry-divergence`` invariant):

- :meth:`SymmetryCertificate.pair_paths` returns *byte-identical*
  tuples to ``UpDownElpProvider.pair_paths`` on the pristine fabric for
  every ordered pair, and on the damaged one for every pair outside the
  residue;
- :meth:`SymmetryCertificate.populate_graph` emits exactly the node and
  edge set Algorithm 1 derives from the exhaustive pristine path set
  (the :class:`~repro.core.tags.TaggedGraph` is set-structured, so
  equality is order-free);
- :meth:`SymmetryCertificate.path_counts` returns the reference counts
  of those nodes and edges, equal to counting every pair's paths
  through :func:`~repro.core.tags.tagged_walk`;
- :meth:`SymmetryCertificate.damaged_graph` emits the node and edge set
  Algorithm 1 derives from the damaged fabric's exhaustive path set;
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

from repro.core.tags import TaggedGraph, TEdge, TNode, tagged_walk
from repro.routing.base import Path
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
    # Closed-form per-pair enumeration
    # ------------------------------------------------------------------
    def pair_paths(self, src: str, dst: str) -> Tuple[Path, ...]:
        """Byte-identical to ``UpDownElpProvider.pair_paths(topo, ...)``
        on the fabric with every link up."""
        if src == dst:
            return ((src,),)
        p = self._pod_index.get(src)
        q = self._pod_index.get(dst)
        if p is None or q is None:
            return ()
        if p == q:
            # Same pod: every pod leaf is a lowest common ancestor, and
            # shortest-only stops at the leaf layer. Leaves are sorted,
            # so the (src, leaf, dst) tuples come out already sorted.
            return tuple((src, leaf, dst) for leaf in self.pods[p].leaves)
        paths: List[Path] = []
        for color, spines in enumerate(self.spine_groups):
            up = self.pods[p].color_leaves(color)
            down = self.pods[q].color_leaves(color)
            for leaf in up:
                for spine in spines:
                    for leaf2 in down:
                        paths.append((src, leaf, spine, leaf2, dst))
        return tuple(sorted(paths))

    # ------------------------------------------------------------------
    # Closed-form Algorithm-1 graph
    # ------------------------------------------------------------------
    def populate_graph(self, graph: TaggedGraph) -> None:
        """Emit the Algorithm-1 node/edge set of the full up-down ELP.

        Equivalent to running :func:`~repro.core.bruteforce.bruteforce_tagging`
        over every pair's paths, without materializing any path: each
        orbit of isomorphic (source, leaf, spine, leaf, dest) hops is
        replicated directly as tagged-graph edges. ``add_edge`` creates
        endpoint nodes, and every up-down ingress hop lies on an edge,
        so edge emission alone reconstructs the exact graph.
        """
        port = self.topo.port_to
        for pod in self.pods:
            for leaf in pod.leaves:
                for src in pod.tors:
                    src_node = ((leaf, port(leaf, src)), 1)
                    for dst in pod.tors:
                        if dst != src:
                            graph.add_edge(
                                src_node, ((dst, port(dst, leaf)), 2)
                            )
        for color, spines in enumerate(self.spine_groups):
            eligible = [
                pod
                for pod in self.pods
                if pod.tors and pod.color_leaves(color)
            ]
            if len(eligible) < 2:
                continue
            for pod in eligible:
                # Up (tag 1 -> 2) and down (tag 3 -> 4) legs depend on
                # one pod only: emit them once per pod, not per pair.
                for leaf in pod.color_leaves(color):
                    for spine in spines:
                        up_node = ((spine, port(spine, leaf)), 2)
                        down_node = ((leaf, port(leaf, spine)), 3)
                        for tor in pod.tors:
                            graph.add_edge(
                                ((leaf, port(leaf, tor)), 1), up_node
                            )
                            graph.add_edge(
                                down_node, ((tor, port(tor, leaf)), 4)
                            )
            for src_pod in eligible:
                for dst_pod in eligible:
                    if src_pod is dst_pod:
                        continue
                    for leaf in src_pod.color_leaves(color):
                        for spine in spines:
                            mid_node = ((spine, port(spine, leaf)), 2)
                            for leaf2 in dst_pod.color_leaves(color):
                                graph.add_edge(
                                    mid_node,
                                    ((leaf2, port(leaf2, spine)), 3),
                                )

    def path_counts(self) -> Tuple[Dict[TNode, int], Dict[TEdge, int]]:
        """Algorithm-1 reference counts of the full up-down ELP.

        Equal, as dicts, to counting every path of every pair's
        :meth:`pair_paths` through :func:`~repro.core.tags.tagged_walk`
        in O(nodes + edges) and without a path. Each count is a
        function of the certified pod structure: with ``t`` a pod's ToR
        count, ``s`` a color's spine count and ``other`` the ToR x
        color-leaf product summed over the color's other eligible pods,

        - an intra-pod path ``(src, leaf, dst)`` enters ``leaf`` from
          ``src`` once per other ToR (``t - 1``), ``dst`` from ``leaf``
          once per other source (``t - 1``), and each edge once;
        - a cross-pod path ``(src, leaf, spine, leaf2, dst)`` of one
          color enters ``leaf`` from ``src`` and ``dst`` from ``leaf2``
          ``s * other`` times (once per spine and remote ToR/leaf), the
          spine from ``leaf`` and ``leaf`` from the spine ``t * other``
          times, crosses each 1->2 and 3->4 edge ``other`` times and
          each 2->3 edge from pod ``p`` into pod ``q`` ``t_p * t_q``
          times.

        The key sets are the nodes and edges :meth:`populate_graph`
        emits; both closed forms are property-tested against the
        per-path walk.
        """
        port = self.topo.port_to
        nodes: Dict[TNode, int] = {}
        edges: Dict[TEdge, int] = {}
        for pod in self.pods:
            peers = len(pod.tors) - 1
            if peers < 1:
                continue
            for leaf in pod.leaves:
                up = [((leaf, port(leaf, tor)), 1) for tor in pod.tors]
                down = [((tor, port(tor, leaf)), 2) for tor in pod.tors]
                for src_node in up:
                    nodes[src_node] = peers
                for dst_node in down:
                    nodes[dst_node] = peers
                for i, src_node in enumerate(up):
                    for j, dst_node in enumerate(down):
                        if i != j:
                            edges[(src_node, dst_node)] = 1
        for color, spines in enumerate(self.spine_groups):
            eligible = [
                (pod, pod.color_leaves(color))
                for pod in self.pods
                if pod.tors and pod.color_leaves(color)
            ]
            if len(eligible) < 2:
                continue
            total = sum(len(pod.tors) * len(leaves) for pod, leaves in eligible)
            # Tag-2 and tag-3 nodes of each (leaf, spine), per eligible
            # pod: the 2->3 edges join one pod's to another's.
            mids: List[List[List[TNode]]] = []
            lows: List[List[List[TNode]]] = []
            for pod, leaves in eligible:
                tors = len(pod.tors)
                other = total - tors * len(leaves)
                fan_in = len(spines) * other
                pod_mids = []
                pod_lows = []
                for leaf in leaves:
                    up = [((leaf, port(leaf, tor)), 1) for tor in pod.tors]
                    down = [((tor, port(tor, leaf)), 4) for tor in pod.tors]
                    for node in up:
                        nodes[node] = nodes.get(node, 0) + fan_in
                    for node in down:
                        nodes[node] = fan_in
                    leaf_mids = []
                    leaf_lows = []
                    for spine in spines:
                        mid = ((spine, port(spine, leaf)), 2)
                        low = ((leaf, port(leaf, spine)), 3)
                        nodes[mid] = nodes[low] = tors * other
                        for node in up:
                            edges[(node, mid)] = other
                        for node in down:
                            edges[(low, node)] = other
                        leaf_mids.append(mid)
                        leaf_lows.append(low)
                    pod_mids.append(leaf_mids)
                    pod_lows.append(leaf_lows)
                mids.append(pod_mids)
                lows.append(pod_lows)
            for p, (src_pod, _leaves) in enumerate(eligible):
                for q, (dst_pod, _leaves) in enumerate(eligible):
                    if p == q:
                        continue
                    weight = len(src_pod.tors) * len(dst_pod.tors)
                    for leaf_mids in mids[p]:
                        for k, mid in enumerate(leaf_mids):
                            for leaf_lows in lows[q]:
                                edges[(mid, leaf_lows[k])] = weight
        return nodes, edges

    def damaged_graph(self) -> Tuple[TaggedGraph, int, int]:
        """The Algorithm-1 graph of the damaged fabric's up-down ELP, that
        ELP's path count and the number of paths walked to get there.

        Starts from :meth:`path_counts` and walks, through
        :func:`~repro.core.tags.tagged_walk`, only the difference between
        each residue pair's pristine and damaged paths: the pristine
        paths that cross a failed link come off; a pair left with none
        is enumerated on the damaged fabric (one
        :func:`~repro.routing.updown.updown_paths_by_pair` call for all
        such pairs) and its paths go on. Removing links never creates an
        up-down path, so a pair's pristine survivors are exactly its
        damaged paths (docs/PERFORMANCE.md, "What a delta re-derives").
        """
        failed: Set[Pair] = set()
        for a, b in self.topo.failed_links:
            failed.update(((a, b), (b, a)))
        nodes, edges = self.path_counts()
        paths = self.path_count()
        walked = 0
        cut: List[Pair] = []
        for pair in self.residue:
            pristine = self.pair_paths(*pair)
            gone = [p for p in pristine if not failed.isdisjoint(zip(p, p[1:]))]
            if len(gone) == len(pristine):
                cut.append(pair)
            for path in gone:
                _shift_counts(self.topo, nodes, edges, path, -1)
            paths -= len(gone)
            walked += len(gone)
        found = updown_paths_by_pair(self.topo, cut)
        for pair in cut:
            for path in found[pair]:
                _shift_counts(self.topo, nodes, edges, path, +1)
            paths += len(found[pair])
            walked += len(found[pair])
        return _graph_of(nodes, edges), paths, walked

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

    def orbit_decomposition(self) -> Dict[str, Any]:
        """JSON-able summary of the pod equivalence classes.

        Two pods are in the same orbit when they have the same ToR
        count and the same per-color leaf counts — plans are invariant
        under swapping such pods, which is exactly the symmetry the
        closed forms exploit.
        """
        classes: Dict[
            Tuple[int, int, Tuple[Tuple[int, int], ...]], List[int]
        ] = {}
        for idx, pod in enumerate(self.pods):
            signature = (
                len(pod.tors),
                len(pod.leaves),
                tuple(
                    (color, len(leaves))
                    for color, leaves in pod.leaves_by_color
                ),
            )
            classes.setdefault(signature, []).append(idx)
        intra = sum(
            len(pod.leaves) * len(pod.tors) * (len(pod.tors) - 1)
            for pod in self.pods
        )
        return {
            "pod_count": len(self.pods),
            "pod_classes": [
                {
                    "pods": members,
                    "tors_per_pod": signature[0],
                    "leaves_per_pod": signature[1],
                    "leaves_by_color": {
                        str(color): count for color, count in signature[2]
                    },
                }
                for signature, members in sorted(classes.items())
            ],
            "spine_groups": [len(group) for group in self.spine_groups],
            "intra_pod_paths": intra,
            "cross_pod_paths": self.path_count() - intra,
            "total_paths": self.path_count(),
        }


def _shift_counts(
    topo: Topology,
    nodes: Dict[TNode, int],
    edges: Dict[TEdge, int],
    path: Path,
    delta: int,
) -> None:
    """Add ``delta`` (+1 or -1) to the count of every node and edge of the
    path's :func:`~repro.core.tags.tagged_walk`; a count that reaches zero
    leaves its dict, so the dicts hold exactly the live graph."""
    last: Optional[TNode] = None
    for node in tagged_walk(topo, path):
        count = nodes.get(node, 0) + delta
        if count:
            nodes[node] = count
        else:
            del nodes[node]
        if last is not None:
            edge = (last, node)
            count = edges.get(edge, 0) + delta
            if count:
                edges[edge] = count
            else:
                del edges[edge]
        last = node


def _graph_of(nodes: Dict[TNode, int], edges: Dict[TEdge, int]) -> TaggedGraph:
    """The tagged graph of the counted nodes and edges."""
    graph = TaggedGraph()
    for node in nodes:
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


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
