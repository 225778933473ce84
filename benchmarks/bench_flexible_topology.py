"""§6 — flexible topologies (Helios / Flyways / Projector express links).

Paper: "Tagger can support architectures like Helios, Flyways or
Projector, as long as the ELP set is specified." We augment the testbed
Clos with ToR-to-ToR express links and show:

1. the naive up-down bounce rule is *provably unsafe* there (the generic
   verifier exhibits a per-tag CBD) — flat hops need their own handling;
2. the phase-ordered Flyways tagger verifies deadlock-free at every
   budget and prices each path family correctly (express hop free,
   express-after-descent +1, express ring hops +1 each);
3. under simulation with express-preferring routes and a back-pressure
   transient, the protected fabric neither deadlocks nor drops.
"""

import pytest

from conftest import format_table
from repro.core import ClosTagger, FlywaysTagger, verify_tagged_graph
from repro.core.pipeline import QueueMap
from repro.core.planner import TaggerPlan
from repro.core.rules import materialize_policy_rules
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimNetwork, find_deadlock_cycle
from repro.topology import add_express_link, testbed_clos

PATH_FAMILIES = [
    ("plain up-down", ("H1", "T1", "L1", "S1", "L3", "T3", "H9")),
    ("single express hop", ("H1", "T1", "T3", "H9")),
    ("down then express", ("H5", "T2", "L1", "T1", "T3", "H9")),
    ("express then up", ("H1", "T1", "T3", "L3", "T4", "H13")),
    ("express ring (2 hops)", ("H9", "T3", "T1", "T4", "H13")),
]


def build_fabric():
    topo = testbed_clos()
    add_express_link(topo, "T1", "T3")
    add_express_link(topo, "T2", "T4")
    add_express_link(topo, "T1", "T4")
    return topo


def run_analysis():
    topo = build_fabric()
    naive = verify_tagged_graph(
        ClosTagger(topo, max_bounces=1).tagged_graph()
    )
    budget_rows = []
    for k in (0, 1, 2, 3):
        report = verify_tagged_graph(
            FlywaysTagger(topo, max_increments=k).tagged_graph()
        )
        budget_rows.append((k, report.num_tags, report.deadlock_free))
    tagger = FlywaysTagger(topo, max_increments=2)
    path_rows = [
        (name, " ".join(str(t) for t in tagger.tag_along_path(path)))
        for name, path in PATH_FAMILIES
    ]
    sim = run_simulation(topo, tagger)
    return naive, budget_rows, path_rows, sim


def run_simulation(topo, tagger):
    tags = list(range(1, tagger.max_lossless_tag + 1))
    tables = {
        switch: materialize_policy_rules(topo, switch, tagger.rewrite, tags)
        for switch in topo.switches
    }
    plan = TaggerPlan(
        topo=topo,
        graph=tagger.tagged_graph(),
        tables=tables,
        queue_map=QueueMap.identity(tagger.num_lossless_tags),
        description="flyways k=2",
    )
    net = SimNetwork.with_plan(topo, shortest_path_tables(topo), plan)
    flows = [
        net.add_flow(Flow(src=src, dst=dst, flow_id=fid))
        for fid, (src, dst) in enumerate(
            (("H1", "H9"), ("H9", "H1"), ("H5", "H13"), ("H13", "H5")),
            start=7600,
        )
    ]
    net.at(0.03, lambda: net.set_receiver_rate("H9", 3e7))
    net.at(0.06, lambda: net.set_receiver_rate("H9", None))
    net.run(0.2)
    return {
        "deadlock": find_deadlock_cycle(net) is not None,
        "lossless_drops": net.metrics.drops.get("lossless_overflow", 0),
        "rates": [
            net.metrics.mean_rate(f.flow_id, 0.15, 0.2) for f in flows
        ],
    }


def test_flexible_topology(report):
    naive, budget_rows, path_rows, sim = run_analysis()
    lines = [
        f"naive ClosTagger on the express fabric: "
        f"{'UNSAFE (per-tag cycle found)' if not naive.deadlock_free else 'safe?!'}",
        "",
        format_table(
            ["budget k", "lossless tags", "deadlock-free"],
            [(k, n, "yes" if ok else "NO") for k, n, ok in budget_rows],
        ),
        "",
        format_table(["path family", "arriving tags"], path_rows),
        "",
        f"simulation (k=2 plan): deadlock={sim['deadlock']}, "
        f"lossless drops={sim['lossless_drops']}, "
        f"rates={[f'{r / 1e6:.0f}Mbps' for r in sim['rates']]}",
    ]
    report("flexible_topology", "\n".join(lines))

    assert not naive.deadlock_free
    assert all(ok for _, _, ok in budget_rows)
    tags_by_family = dict(path_rows)
    assert tags_by_family["plain up-down"].split()[-1] == "1"
    assert tags_by_family["single express hop"].split()[-1] == "1"
    assert tags_by_family["down then express"].split()[-1] == "2"
    assert tags_by_family["express ring (2 hops)"].split()[-1] == "2"
    assert not sim["deadlock"]
    assert sim["lossless_drops"] == 0
    assert all(rate > 1e8 for rate in sim["rates"])
