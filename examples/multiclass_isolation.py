#!/usr/bin/env python3
"""Share lossless priorities across application classes (paper §6).

DCQCN deployments give congestion-notification packets (CNPs) their own
lossless class so data traffic cannot delay them. Naively, N classes
over a k-bounce ELP cost N*(k+1) priorities — beyond what hardware has.
Tagger's stagger trick squeezes them into k + N at a small, quantifiable
isolation cost. This example plans the two-class deployment from the
paper and measures both the priority savings and the isolation leak.

Run:  python examples/multiclass_isolation.py
"""

from repro import testbed_clos
from repro.core import (
    TaggerPlan,
    TrafficClass,
    clos_bounce_elp,
    naive_priority_count,
    staggered_tagger,
)

BOUNCED_PATH = ("T3", "L3", "S2", "L1", "S1", "L2", "T1")


def main() -> None:
    topo = testbed_clos()
    classes = [
        TrafficClass("data", max_bounces=1),
        TrafficClass("cnp", max_bounces=1),
    ]
    # One shared rule table: class c injects tag 1 + c.
    tagger = staggered_tagger(topo, classes)
    data_tag, cnp_tag = tagger.initial_tags

    print("priority budget:")
    print(f"  naive per-class isolation: {naive_priority_count(classes)} "
          "lossless priorities")
    print(f"  staggered sharing:         {tagger.num_lossless_tags} "
          "lossless priorities")

    print("\ninjection tags:")
    for cls, tag in zip(classes, tagger.initial_tags):
        print(
            f"  {cls.name}: starts at tag {tag}, "
            f"survives {tagger.max_lossless_tag - tag} bounce(s)"
        )

    # The isolation leak: a bounced data packet lands in CNP's priority.
    data_tags = tagger.tag_along_path(BOUNCED_PATH, initial_tag=data_tag)
    print(
        f"\na data packet bouncing at L1 carries tags {data_tags}; "
        f"after the bounce it shares priority with fresh CNP traffic "
        f"(tag {cnp_tag}) — the paper's documented "
        "trade-off."
    )

    # Deadlock freedom and coverage still hold for both classes.
    plan = TaggerPlan.for_multiclass_clos(topo, classes)
    elp = clos_bounce_elp(topo, max_bounces=1)
    print(f"\n{plan.summary()}")
    print(f"verification: {plan.verify().summary()}")
    for cls, tag in zip(classes, tagger.initial_tags):
        coverage = plan.coverage(elp, initial_tag=tag)
        print(f"  {cls.name} ELP coverage: {coverage:.1%}")


if __name__ == "__main__":
    main()
