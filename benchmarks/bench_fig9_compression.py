"""Fig. 9 / §7 — TCAM rule compression via port bitmaps.

Paper: uncompressed Tagger needs ~n(n-1)m(m-1)/2-scale rule counts per
switch (n ports, m tags); in-port bitmap aggregation cuts the n^2 factor
to n, and joint aggregation improves further. Shape to reproduce: a
strictly decreasing rule count per compression stage, with the biggest
step from in-port aggregation.
"""

import pytest

from conftest import format_table
from repro.core import ClosTagger, compression_stats, materialize_policy
from repro.topology import ClosParams, clos3


def run_compression():
    # A fatter Clos makes the port-count effect visible.
    topo = clos3(
        ClosParams(
            num_pods=2,
            tors_per_pod=4,
            leaves_per_pod=4,
            num_spines=8,
            hosts_per_tor=8,
        )
    )
    tagger = ClosTagger(topo, max_bounces=2)
    tags = list(range(1, tagger.max_lossless_tag + 1))
    _, tables = materialize_policy(topo, tagger.rewrite, tags)
    rows = []
    for switch in ("T1", "L1", "S1"):
        stats = compression_stats(tables[switch])
        rows.append(
            (
                switch,
                topo.degree(switch),
                stats.uncompressed,
                stats.in_port_aggregated,
                stats.joint_aggregated,
                f"{stats.ratio:.3f}",
            )
        )
    return rows


def test_fig9_rule_compression(report):
    rows = run_compression()
    table = format_table(
        [
            "Switch",
            "Ports",
            "Uncompressed",
            "InPort-aggregated",
            "Joint-aggregated",
            "Ratio",
        ],
        rows,
    )
    report("fig9_compression", table)
    for _, ports, raw, stage1, stage2, _ in rows:
        assert stage2 <= stage1 < raw
        # In-port aggregation removes the ingress-port dimension: the
        # count drops by roughly the port fan-in.
        assert stage1 <= raw
        assert stage1 * 2 <= raw  # at least 2x on these fabrics