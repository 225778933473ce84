#!/usr/bin/env python3
"""Plan Tagger for an unstructured (Jellyfish) fabric.

Clos fabrics get the closed-form bounce tagger, but Tagger works for any
topology (paper §5): enumerate the expected lossless paths, run
Algorithm 1 and the tag merge, and deploy the resulting rules. This
example plans a 100-switch Jellyfish, reporting priorities, rule budget
and TCAM footprint — the paper's Table 5 workflow as a library call.

Run:  python examples/jellyfish_planning.py
"""

from repro import TaggerPlan
from repro.core import compress_joint, jellyfish_elp
from repro.topology import jellyfish


def main() -> None:
    topo = jellyfish(
        num_switches=100, ports_per_switch=12, hosts_per_switch=0, seed=42
    )
    print(f"fabric: {topo}")

    # ELP = shortest paths between all ToR pairs, plus 200 random
    # redundant paths so more reroutes stay lossless.
    elp = jellyfish_elp(topo, extra_random_paths=200, seed=42)
    print(f"ELP: {len(elp)} paths ({elp.description}), "
          f"longest {elp.longest_hops()} hops")

    plan = TaggerPlan.from_elp(topo, elp)
    print(plan.summary())
    print(f"verification: {plan.verify().summary()}")
    print(f"ELP coverage: {plan.coverage(elp):.1%}")

    budgets = sorted(
        (len(table), switch) for switch, table in plan.tables.items()
    )
    worst_rules, worst_switch = budgets[-1]
    tcam = len(compress_joint(plan.tables[worst_switch].as_rules()))
    print(
        f"rule budget: median switch {budgets[len(budgets) // 2][0]} rules, "
        f"worst switch {worst_switch} = {worst_rules} rules "
        f"({tcam} TCAM entries after bitmap compression)"
    )

    # What would brute force have cost?
    from repro.core import bruteforce_tagging, longest_path_hops

    naive_tags = longest_path_hops(topo, elp)
    print(
        f"tag merge: {naive_tags} brute-force tags -> "
        f"{plan.num_lossless_queues} lossless priorities "
        f"(PFC hardware realistically offers 2-3; paper section 3.3)"
    )


if __name__ == "__main__":
    main()
