"""Fitting a tagging scheme into a hardware queue budget.

Commodity switches support only 2-3 lossless queues (paper §3.3). When a
generic tagging run needs more tags than the hardware has, the operator's
options per the paper are: shrink the ELP, or use a topology-specific
scheme. This module adds a third: *post-hoc tag merging*. Two tag classes
``t`` and ``t+1`` can be fused into one whenever the union of their
subgraphs (including the cross edges between them, which become
intra-class) stays acyclic; the result still satisfies both Theorem 5.1
requirements, so deadlock freedom is preserved, and rules are renumbered
consistently so determinism is untouched.

Notably, on the paper's Fig. 6 example (Clos, 1-bounce ELP) this recovers
the *optimal* two-priority scheme from Algorithm 2's three-tag output —
the generic pipeline plus merging matches the hand-crafted Clos tagger.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.rules import RuleTable
from repro.core.tags import INITIAL_TAG, TaggedGraph
from repro.core.verification import verify_tagged_graph
from repro.exceptions import CapacityError, TaggingError


def merge_is_safe(graph: TaggedGraph, low: int, high: int) -> bool:
    """Would fusing tag classes ``low`` and ``high`` stay acyclic?

    The fused class contains both tags' nodes (same-port nodes merge) and
    every edge whose endpoints both land in it — including former
    cross-tag edges between the two classes.
    """
    if high <= low:
        raise TaggingError("merge targets must satisfy low < high")
    fused = TaggedGraph()
    for tag in (low, high):
        for node in graph.nodes_with_tag(tag):
            fused.add_node((node[0], low))
            for succ in graph.successors(node):
                if succ[1] in (low, high):
                    fused.add_edge((node[0], low), (succ[0], low))
    return fused.tag_subgraph_is_acyclic(low)


def apply_tag_mapping(graph: TaggedGraph, mapping: Dict[int, int]) -> TaggedGraph:
    """Renumber tags through a monotone mapping; validates monotonicity."""
    tags = sorted(mapping)
    for a, b in zip(tags, tags[1:]):
        if mapping[a] > mapping[b]:
            raise TaggingError("tag mapping must be monotone non-decreasing")
    result = TaggedGraph()
    for node in graph.nodes:
        result.add_node((node[0], mapping[node[1]]))
    for src, dst in graph.edges():
        result.add_edge(
            (src[0], mapping[src[1]]), (dst[0], mapping[dst[1]])
        )
    return result


def remap_tables(
    tables: Dict[str, RuleTable], mapping: Dict[int, int]
) -> Dict[str, RuleTable]:
    """Renumber rule tables through a tag mapping.

    Merged rules that become identical collapse; a contradiction (same
    key, different actions after mapping) is impossible when the mapping
    is a function of the tag, but is checked anyway.
    """
    remapped: Dict[str, RuleTable] = {}
    for switch, table in tables.items():
        new_table = RuleTable(switch=switch, policy=table.policy)
        for (tag, in_port, out_port), new_tag in table.rules.items():
            key = (mapping.get(tag, tag), in_port, out_port)
            value = mapping.get(new_tag, new_tag)
            existing = new_table.rules.get(key)
            if existing is not None and existing != value:
                raise TaggingError(
                    f"tag mapping created conflicting rules at {switch!r}"
                )
            new_table.rules[key] = value
        remapped[switch] = new_table
    return remapped


def fit_to_queues(
    graph: TaggedGraph, max_tags: int
) -> Tuple[TaggedGraph, Dict[int, int]]:
    """Greedily fuse adjacent tag classes until ``max_tags`` fit.

    Scans adjacent pairs lowest-first each round and fuses the first safe
    pair. Returns the fused graph plus the total old-tag -> new-tag
    mapping (identity if the graph already fits).

    Raises :class:`CapacityError` when no sequence of safe adjacent
    merges reaches the budget — the honest "this ELP does not fit this
    hardware" signal.
    """
    if max_tags < 1:
        raise TaggingError("max_tags must be >= 1")
    current = graph
    total: Dict[int, int] = {tag: tag for tag in graph.tags()}
    while current.num_tags > max_tags:
        tags = current.tags()
        fused = False
        for low, high in zip(tags, tags[1:]):
            if merge_is_safe(current, low, high):
                step: Dict[int, int] = {}
                next_tag = INITIAL_TAG
                for tag in tags:
                    if tag == high:
                        step[tag] = step[low]
                        continue
                    step[tag] = next_tag
                    next_tag += 1
                current = apply_tag_mapping(current, step)
                total = {
                    old: step[intermediate]
                    for old, intermediate in total.items()
                }
                fused = True
                break
        if not fused:
            raise CapacityError(
                f"cannot fit {graph.num_tags} tags into {max_tags} lossless "
                "queues: no adjacent tag classes can merge without a CBD"
            )
    report = verify_tagged_graph(current)
    if not report.deadlock_free:
        raise AssertionError("internal error: fused graph failed verification")
    return current, total
