"""Fig. 4 — tags separate pre-bounce and post-bounce path segments.

Paper: with the Clos tagger (k = 1), packets carry tag 1 before their
bounce and tag 2 after it; the per-tag buffer sets are disjoint along the
cycle, so the Fig. 3 CBD disappears. We print the per-hop tag assignment
for both flows and check each per-tag dependency graph is acyclic.
"""

import pytest

from conftest import format_table
from repro.analysis import cbd_graph, find_cbd
from repro.core import ClosTagger
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH, testbed_clos

GREEN = TESTBED_GREEN_PATH[1:-1]  # switch-only form
BLUE = TESTBED_BLUE_PATH[1:-1]


def run_analysis():
    topo = testbed_clos()
    tagger = ClosTagger(topo, max_bounces=1)
    tags = {
        "green": tagger.tag_along_path(GREEN),
        "blue": tagger.tag_along_path(BLUE),
    }
    untagged = cbd_graph(topo, [GREEN, BLUE])
    tagged = cbd_graph(topo, [GREEN, BLUE], tag_policy=tagger.rewrite)
    return topo, tags, untagged, tagged


def test_fig4_tag_separation(report):
    topo, tags, untagged, tagged = run_analysis()
    rows = []
    for name, path in (("green", GREEN), ("blue", BLUE)):
        for hop, tag in zip(path[1:], tags[name]):
            rows.append((name, hop, tag))
    table = format_table(["flow", "arrives at", "tag"], rows)
    lines = [
        table,
        "",
        f"without tags: CBD = {find_cbd(untagged) is not None}",
        f"with tags:    CBD = {find_cbd(tagged) is not None}",
    ]
    report("fig4_tag_separation", "\n".join(lines))

    # Pre-bounce hops carry tag 1, post-bounce tag 2 (Fig. 4): green
    # bounces at L1 (4th hop), blue at L3 (4th hop).
    assert tags["green"] == [1, 1, 1, 2, 2, 2]
    assert tags["blue"] == [1, 1, 1, 2, 2, 2]
    assert find_cbd(untagged) is not None
    assert find_cbd(tagged) is None
