"""Deadlock-freedom verification of tagging schemes (paper Theorem 5.1).

A tagged graph guarantees deadlock freedom iff:

- **R1** — for every tag ``k``, the same-tag subgraph ``G_k`` is acyclic
  (an edge in ``G_k`` is a buffer dependency; a cycle is a CBD);
- **R2** — no edge decreases the tag (the packet moves unidirectionally
  through a DAG of priority classes, so no CBD can form *across* tags).

:func:`verify_tagged_graph` checks both and returns a
:class:`VerificationReport` certificate; :func:`assert_deadlock_free`
raises :class:`~repro.exceptions.VerificationError` with a concrete
counterexample (the offending cycle or edge) when a requirement fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional

from repro.core.tags import TaggedGraph, TEdge, TNode
from repro.exceptions import VerificationError


@dataclass(frozen=True)
class VerificationReport:
    """Certificate of a verification run.

    Attributes:
        deadlock_free: Overall verdict.
        num_tags: Number of distinct tags (= lossless priorities needed).
        nodes_per_tag: Tag -> node count.
        intra_edges_per_tag: Tag -> edge count within ``G_k``.
        cross_edges: Number of tag-increasing edges.
        tag_cycle: A cycle violating R1, if any (nodes in order).
        decreasing_edge: An edge violating R2, if any.
    """

    deadlock_free: bool
    num_tags: int
    nodes_per_tag: Dict[int, int]
    intra_edges_per_tag: Dict[int, int]
    cross_edges: int
    tag_cycle: Optional[List[TNode]] = None
    decreasing_edge: Optional[TEdge] = None

    def summary(self) -> str:
        verdict = "DEADLOCK-FREE" if self.deadlock_free else "UNSAFE"
        return (
            f"{verdict}: {self.num_tags} tag(s), "
            f"{sum(self.nodes_per_tag.values())} nodes, "
            f"{sum(self.intra_edges_per_tag.values())} intra-tag + "
            f"{self.cross_edges} cross-tag edges"
        )

    def violation(self) -> Optional[str]:
        """One line naming the violated requirement; None when deadlock-free."""
        if self.decreasing_edge is not None:
            src, dst = self.decreasing_edge
            return f"R2 violated: edge {src} -> {dst} decreases the tag"
        if self.tag_cycle is not None:
            return f"R1 violated: cycle of {len(self.tag_cycle)} nodes"
        return None


def verify_tagged_graph(graph: TaggedGraph) -> VerificationReport:
    """Check requirements R1 and R2; never raises on violation.

    One pass over the successor sets classifies each edge as intra-tag,
    cross-tag or tag-decreasing: a set's tags are counted in C, and its
    edges are walked one by one only when one of them decreases the tag.
    The R2 witness is the smallest decreasing edge; the R1 witness, when
    there is one, comes from the lowest violating tag (tags are scanned
    in ascending order). Both are therefore the same in every process,
    whatever the hash seed.
    """
    tags = graph.tags()
    intra_per_tag: Dict[int, int] = dict.fromkeys(tags, 0)
    decreasing: Optional[TEdge] = None
    cross = 0
    tag_of = itemgetter(1)
    for src, dsts in graph.adjacency():
        src_tag = src[1]
        dst_tags = list(map(tag_of, dsts))
        intra = dst_tags.count(src_tag)
        intra_per_tag[src_tag] += intra
        cross += len(dst_tags) - intra
        if min(dst_tags, default=src_tag) < src_tag:
            for dst in dsts:
                if dst[1] < src_tag:
                    cross -= 1
                    if decreasing is None or (src, dst) < decreasing:
                        decreasing = (src, dst)

    nodes_per_tag = {tag: len(graph.nodes_with_tag(tag)) for tag in tags}
    tag_cycle: Optional[List[TNode]] = None
    for tag in tags:
        tag_cycle = graph.find_tag_cycle(tag)
        if tag_cycle is not None:
            break

    return VerificationReport(
        deadlock_free=decreasing is None and tag_cycle is None,
        num_tags=len(tags),
        nodes_per_tag=nodes_per_tag,
        intra_edges_per_tag=intra_per_tag,
        cross_edges=cross,
        tag_cycle=tag_cycle,
        decreasing_edge=decreasing,
    )


def assert_deadlock_free(graph: TaggedGraph) -> VerificationReport:
    """Verify and raise :class:`VerificationError` with diagnostics on failure."""
    report = verify_tagged_graph(graph)
    if report.decreasing_edge is not None:
        src, dst = report.decreasing_edge
        raise VerificationError(
            f"requirement R2 violated: edge {src} -> {dst} decreases the tag"
        )
    if report.tag_cycle is not None:
        tag = report.tag_cycle[0][1]
        pretty = " -> ".join(f"{sw}:{port}" for (sw, port), _ in report.tag_cycle)
        raise VerificationError(
            f"requirement R1 violated: tag {tag} contains the cycle {pretty}"
        )
    return report
