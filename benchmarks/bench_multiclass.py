"""§6 — multiple application classes: M + N tags instead of N(M + 1).

Paper: N traffic classes over a k-bounce Clos ELP cost N(M+1) lossless
priorities if isolated naively, but only M + N with staggered initial
tags — at the price of reduced isolation (a once-bounced class-0 packet
shares a priority with fresh class-1 packets). Shape: the staggered count
grows additively, stays within the 8-priority PFC ceiling far longer, and
remains deadlock-free with full per-class ELP coverage.
"""

import pytest

from conftest import format_table
from repro.core import (
    MultiClassClosTagger,
    TrafficClass,
    TaggerPlan,
    clos_bounce_elp,
    naive_priority_count,
    verify_tagged_graph,
)
from repro.topology import testbed_clos


def run_multiclass():
    topo = testbed_clos()
    elp = clos_bounce_elp(topo, 1)
    rows = []
    for num_classes in (1, 2, 3, 4):
        for bounces in (0, 1, 2):
            classes = [
                TrafficClass(f"class{i}", bounces) for i in range(num_classes)
            ]
            tagger = MultiClassClosTagger(topo, classes)
            safe = verify_tagged_graph(tagger.tagged_graph()).deadlock_free
            rows.append(
                (
                    num_classes,
                    bounces,
                    naive_priority_count(classes),
                    tagger.num_lossless_tags,
                    "yes" if safe else "NO",
                )
            )
    # Coverage spot check for the 2-class, 1-bounce deployment.
    plan = TaggerPlan.for_multiclass_clos(
        topo, [TrafficClass("data", 1), TrafficClass("cnp", 1)]
    )
    coverage = {
        "data": plan.coverage(elp, initial_tag=1),
        "cnp": plan.coverage(elp, initial_tag=2),
    }
    return rows, coverage


def test_multiclass_priorities(report):
    rows, coverage = run_multiclass()
    table = format_table(
        [
            "Classes (N)",
            "Bounces (M)",
            "Naive N(M+1)",
            "Staggered M+N",
            "Deadlock-free",
        ],
        rows,
    )
    lines = [
        table,
        "",
        f"2-class 1-bounce plan coverage: data={coverage['data']:.3f}, "
        f"cnp={coverage['cnp']:.3f}",
    ]
    report("multiclass_priorities", "\n".join(lines))

    for num_classes, bounces, naive, staggered, safe in rows:
        assert staggered == bounces + num_classes
        assert naive == num_classes * (bounces + 1)
        assert staggered <= naive
        assert safe == "yes"
    assert coverage["data"] == 1.0 and coverage["cnp"] == 1.0
