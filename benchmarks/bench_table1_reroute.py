"""Table 1 — packet reroute probability measurements.

Paper: 7 daily campaigns across >20 production data centers measured a
reroute probability around 2e-5 per measurement (IP-in-IP probes, TTL
deviation detection). We run the same methodology against a simulated
3-layer Clos whose per-link failure probability is calibrated to land in
that regime; the *shape* to reproduce is "reroutes are rare but
consistently non-zero, day after day".
"""

import pytest

from conftest import FULL, format_table
from repro.measurement import ProbeCampaign
from repro.topology import ClosParams, clos3

#: Per-link failure probability per measurement window. Production links
#: fail rarely; this value lands the reroute probability in the paper's
#: ~1e-5 decade at bench-sized campaign volumes.
LINK_FAILURE_PROB = 2e-4

MEASUREMENTS_PER_DAY = 20_000 if FULL else 4_000


def run_campaign():
    topo = clos3(ClosParams(num_pods=4, tors_per_pod=4, leaves_per_pod=4,
                            num_spines=4, hosts_per_tor=2))
    rows = []
    for day in range(1, 8):
        campaign = ProbeCampaign(
            topo,
            link_failure_prob=LINK_FAILURE_PROB,
            probes_per_measurement=10,
            seed=day,
        )
        stats = campaign.run(MEASUREMENTS_PER_DAY)
        rows.append(
            (
                f"day-{day}",
                stats.total,
                stats.rerouted,
                f"{stats.reroute_probability:.2e}",
            )
        )
    return rows


def test_table1_reroute_probability(report):
    rows = run_campaign()
    table = format_table(
        ["Date", "Total No.", "Rerouted No.", "Reroute probability"], rows
    )
    report("table1_reroute", table)
    # Shape assertions: reroutes happen on most days, and stay rare.
    rerouted = [r[2] for r in rows]
    probabilities = [float(r[3]) for r in rows]
    assert sum(rerouted) > 0, "expected at least some reroutes over a week"
    assert all(p < 1e-2 for p in probabilities), "reroutes must stay rare"
