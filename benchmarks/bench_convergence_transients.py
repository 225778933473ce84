"""§3.1/§3.2 — routing transients: where up-down violations come from.

Paper: "hundreds of violations of up-down routing per day", caused by the
asynchrony of distributed routing. We run an asynchronous distance-vector
reconvergence for every single switch-link failure on the testbed Clos
and report, per failure: how long the fabric stayed in a transient state,
and whether the transient tables contained micro-loops and bounce paths.

Shape to reproduce: a substantial fraction of failures produce transient
bounces and/or loops (the raw material for CBDs), and every run ends in
a loop-free converged state — i.e. the danger window is transient, which
is exactly why a prevention scheme must tolerate it rather than assume
converged routing.
"""

import pytest

from conftest import format_table
from repro.routing import (
    ConvergenceProcess,
    count_bounces,
    find_forwarding_loops,
    transient_states,
)
from repro.topology import testbed_clos
from repro.core import single_link_failure_scenarios


def analyze_failure(link):
    topo = testbed_clos()
    proc = ConvergenceProcess(
        topo, destinations=["H1", "H9"], detect_delay=1e-3, adv_delay=1e-3
    )
    base = proc.current_table()
    timeline = proc.fail_link(*link)
    duration_ms = (timeline[-1].time * 1000) if timeline else 0.0
    loops = False
    bounces = False
    for _, snapshot in transient_states(topo, timeline, base):
        for flow_hash in range(8):
            if find_forwarding_loops(
                topo, snapshot, destinations=["H1", "H9"], flow_hash=flow_hash
            ):
                loops = True
            for probe_src in ("T3", "T2"):
                path, done = snapshot.trace(probe_src, "H1", flow_hash=flow_hash)
                if done and len(set(path)) == len(path):
                    if count_bounces(topo, path[:-1]) > 0:
                        bounces = True
    # Converged end state must be loop-free.
    final_clean = all(
        find_forwarding_loops(topo, proc.current_table(), flow_hash=h) == {}
        for h in range(4)
    )
    return (
        f"{link[0]}-{link[1]}",
        len(timeline),
        f"{duration_ms:.0f}",
        "yes" if loops else "no",
        "yes" if bounces else "no",
        "yes" if final_clean else "NO",
    )


def run_sweep():
    topo = testbed_clos()
    links = [s[0] for s in single_link_failure_scenarios(topo)]
    return [analyze_failure(link) for link in links]


def test_convergence_transients(report):
    rows = run_sweep()
    table = format_table(
        [
            "failed link",
            "updates",
            "transient (ms)",
            "micro-loops",
            "bounce paths",
            "converges clean",
        ],
        rows,
    )
    report("convergence_transients", table)

    assert all(row[5] == "yes" for row in rows), "must always converge clean"
    assert all(row[1] > 0 for row in rows), "every failure perturbs routing"
    by_link = {row[0]: row for row in rows}
    # ECMP-covered failures (leaf-spine) converge harmlessly; losing a
    # monitored ToR's downlink — exactly the paper's Fig. 3 case — makes
    # the transient hazardous (micro-loops, and bounces when the probe's
    # vantage sees them). The monitored destinations are under T1 and T3.
    for link in ("L1-T1", "L2-T1", "L3-T3", "L4-T3"):
        row = by_link[link]
        assert row[3] == "yes" or row[4] == "yes", f"{link} should be hazardous"
    assert by_link["L1-T1"][4] == "yes", "Fig. 3's bounce must appear"
    for link in ("L1-S1", "L3-S2"):
        row = by_link[link]
        assert row[3] == "no" and row[4] == "no", "ECMP absorbs spine links"
