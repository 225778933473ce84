#!/usr/bin/env python3
"""Quickstart: protect a Clos fabric against PFC deadlocks with Tagger.

Walks the paper's core story end to end on the CoNEXT'17 testbed topology:

1. build the fabric and show that two failure-bounced flows create a
   cyclic buffer dependency (CBD) — the necessary condition for deadlock;
2. generate a Tagger plan (2 lossless priorities for a 1-bounce budget),
   verify it against Theorem 5.1, and show the CBD is gone;
3. print the match-action rules one switch would receive.

Run:  python examples/quickstart.py
"""

from repro import ClosTagger, TaggerPlan, testbed_clos
from repro.analysis import cbd_graph, find_cbd
from repro.core import clos_bounce_elp, compress_joint
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH

# The Fig. 3 scenario: both flows are loop-free but each bounces once
# (green at L1, blue at L3) after a link failure reroute.
GREEN = TESTBED_GREEN_PATH[1:-1]  # switch-only form
BLUE = TESTBED_BLUE_PATH[1:-1]


def main() -> None:
    topo = testbed_clos()
    print(f"fabric: {topo}")

    # -- 1. The problem: bounces create a CBD ---------------------------
    cycle = find_cbd(cbd_graph(topo, [GREEN, BLUE]))
    pretty = " -> ".join(f"{switch}" for switch, _ in cycle)
    print(f"\nwithout Tagger, the two bounced flows form a CBD: {pretty}")

    # -- 2. The fix: a verified Tagger plan -----------------------------
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    print(f"\n{plan.summary()}")
    report = plan.verify()
    print(f"verification: {report.summary()}")

    tagger = ClosTagger(topo, max_bounces=1)
    tagged_cycle = find_cbd(
        cbd_graph(topo, [GREEN, BLUE], tag_policy=tagger.rewrite)
    )
    print(f"with Tagger, CBD present: {tagged_cycle is not None}")

    # Every path with up to 1 bounce stays lossless.
    elp = clos_bounce_elp(topo, max_bounces=1)
    print(
        f"ELP coverage ({len(elp)} paths, <=1 bounce): "
        f"{plan.coverage(elp):.1%}"
    )

    # -- 3. What gets deployed: per-switch rules ------------------------
    table = plan.tables["L1"]
    print(f"\nswitch L1 needs {len(table)} exact-match rules; "
          f"{len(compress_joint(table.as_rules()))} after TCAM compression")
    print("sample rules (tag, in_port, out_port) -> new_tag:")
    for rule in table.as_rules()[:6]:
        print(
            f"  ({rule.tag}, {rule.in_port}, {rule.out_port})"
            f" -> {rule.new_tag}"
        )
    print("  ... plus the final safeguard rule: anything else -> lossy")


if __name__ == "__main__":
    main()
