"""§8.3 / §6 "Deployment" — Tagger's performance penalty is negligible.

Paper: Tagger rules live in TCAM, so they add no discernible throughput
or latency cost; RDMA traffic behaves identically with and without
Tagger in the no-failure case. We reproduce both halves:

- fabric level: a permutation workload on the healthy testbed delivers
  the same per-flow rates with and without the Tagger pipeline;
- switch level: the per-packet rewrite lookup costs O(1) dict time
  (the software analogue of "one TCAM match"), measured directly.
"""

import timeit

import pytest

from conftest import format_table, show
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimNetwork
from repro.topology import testbed_clos
from repro.workloads import random_permutation_flows

DURATION = 0.1

#: The "sub-microsecond" claim, asserted: one rewrite lookup measures
#: ~150 ns (a dict probe behind two Python calls), so the best of five
#: timeit repeats has > 6x headroom on a loaded shared runner.
LOOKUP_CEILING_SECONDS = 1e-6
LOOKUP_LOOPS = 100_000


def run_workload(with_tagger: bool):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan)
    else:
        net = SimNetwork(topo, table)
    flows = []
    for i, flow in enumerate(
        random_permutation_flows(sorted(topo.hosts), seed=11)
    ):
        # Identical flow ids across both runs so ECMP picks the same
        # paths; only the pipeline differs.
        flow.flow_id = 5000 + i
        flows.append(net.add_flow(flow))
    net.run(DURATION)
    rates = {}
    latencies = {}
    for f in flows:
        key = f"{f.src}->{f.dst}"
        rates[key] = net.metrics.mean_rate(f.flow_id, DURATION / 2, DURATION)
        latencies[key] = net.metrics.latency_stats(f.flow_id)
    return rates, latencies, dict(net.metrics.drops)


def run_comparison():
    baseline, lat_a, drops_a = run_workload(False)
    tagged, lat_b, drops_b = run_workload(True)
    return baseline, tagged, lat_a, lat_b, drops_a, drops_b


def test_perf_penalty_fabric(report):
    baseline, tagged, lat_a, lat_b, drops_a, drops_b = run_comparison()
    rows = [
        (
            name,
            f"{baseline[name] / 1e6:.1f}",
            f"{tagged[name] / 1e6:.1f}",
            f"{lat_a[name].p99 * 1e6:.0f}",
            f"{lat_b[name].p99 * 1e6:.0f}",
        )
        for name in sorted(baseline)
    ]
    table = format_table(
        [
            "flow",
            "baseline (Mbps)",
            "Tagger (Mbps)",
            "baseline p99 (us)",
            "Tagger p99 (us)",
        ],
        rows,
    )
    lines = [
        table,
        "",
        f"aggregate baseline: {sum(baseline.values()) / 1e9:.3f} Gbps",
        f"aggregate Tagger:   {sum(tagged.values()) / 1e9:.3f} Gbps",
        f"drops: baseline={drops_a}, Tagger={drops_b}",
    ]
    report("perf_penalty_fabric", "\n".join(lines))

    total_base = sum(baseline.values())
    total_tag = sum(tagged.values())
    # Paper shape: negligible penalty — aggregates within 1%, per-flow
    # p99 latency within 10% either way.
    assert total_tag == pytest.approx(total_base, rel=0.01)
    assert not drops_a and not drops_b
    for name in baseline:
        assert lat_b[name].p99 == pytest.approx(lat_a[name].p99, rel=0.10)


def test_perf_penalty_rule_lookup(report):
    """Per-packet rewrite cost: one dict lookup (TCAM analogue)."""
    topo = testbed_clos()
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    pipeline = plan.pipeline_config("L1")
    in_port = topo.port_to("L1", "T1")
    out_port = topo.port_to("L1", "S1")

    def lookup():
        return pipeline.rewrite(1, in_port, out_port)

    new_tag = lookup()
    per_call = (
        min(timeit.repeat(lookup, number=LOOKUP_LOOPS, repeat=5)) / LOOKUP_LOOPS
    )
    report(
        "perf_penalty_lookup",
        f"rewrite(1, {in_port}, {out_port}) -> {new_tag}; see benchmark "
        "timing table (single dict probe, sub-microsecond)",
    )
    show(
        "perf_penalty_lookup timing",
        f"{per_call * 1e9:.0f} ns per lookup (best of 5 x {LOOKUP_LOOPS:,}; "
        f"ceiling {LOOKUP_CEILING_SECONDS * 1e9:.0f} ns)",
    )
    assert new_tag == 1
    assert per_call < LOOKUP_CEILING_SECONDS
