"""Ablation — PFC threshold engineering and what it buys.

The paper's §3.3 explains why lossless queues are scarce: every one needs
XOFF headroom carved out of expensive switch buffer. This bench measures
the knobs an operator actually turns:

1. XOFF level vs. incast utilization and PAUSE churn (smaller thresholds
   pause earlier and more often; throughput survives but control traffic
   explodes);
2. headroom vs. lossless safety: with a correctly sized headroom
   (>= in-flight bytes during the PFC reaction) the fabric never drops a
   lossless packet, with an undersized one it does — the quantitative
   version of "sufficient headroom" from §2;
3. static vs. Broadcom-style dynamic (alpha) thresholds under incast.
"""

import pytest

from conftest import format_table
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimConfig, SimNetwork
from repro.topology import testbed_clos


def incast_run(config: SimConfig):
    topo = testbed_clos()
    net = SimNetwork(topo, shortest_path_tables(topo), config=config)
    for i, src in enumerate(("H5", "H9", "H13", "H6")):
        net.add_flow(Flow(src=src, dst="H1", flow_id=8200 + i))
    net.run(0.15)
    total = sum(
        net.metrics.mean_rate(8200 + i, 0.075, 0.15) for i in range(4)
    )
    return {
        "pauses": net.metrics.pfc.pause_count,
        "total_mbps": total / 1e6,
        "lossless_drops": net.metrics.drops.get("lossless_overflow", 0),
    }


def run_all():
    xoff_rows = []
    for xoff_kb in (16, 40, 96):
        config = SimConfig(
            xoff_bytes=xoff_kb * 1024,
            xon_bytes=max(8 * 1024, xoff_kb * 1024 - 16 * 1024),
        )
        result = incast_run(config)
        xoff_rows.append(
            (
                f"{xoff_kb} KB",
                result["pauses"],
                f"{result['total_mbps']:.0f}",
                result["lossless_drops"],
            )
        )

    headroom_rows = []
    for headroom_kb in (0, 4, 48):
        config = SimConfig(headroom_bytes=headroom_kb * 1024)
        result = incast_run(config)
        headroom_rows.append(
            (
                f"{headroom_kb} KB",
                result["lossless_drops"],
                f"{result['total_mbps']:.0f}",
            )
        )

    mode_rows = []
    for name, config in (
        ("static", SimConfig()),
        (
            "dynamic alpha=0.5",
            SimConfig(
                dynamic_thresholds=True,
                dt_alpha=0.5,
                shared_buffer_bytes=128 * 1024,
            ),
        ),
    ):
        result = incast_run(config)
        mode_rows.append(
            (
                name,
                result["pauses"],
                f"{result['total_mbps']:.0f}",
                result["lossless_drops"],
            )
        )
    return xoff_rows, headroom_rows, mode_rows


def test_threshold_ablation(report):
    xoff_rows, headroom_rows, mode_rows = run_all()
    lines = [
        "XOFF level (4-to-1 incast):",
        format_table(
            ["XOFF", "PAUSE frames", "aggregate (Mbps)", "lossless drops"],
            xoff_rows,
        ),
        "",
        "headroom sizing:",
        format_table(
            ["headroom", "lossless drops", "aggregate (Mbps)"], headroom_rows
        ),
        "",
        "threshold mode:",
        format_table(
            ["mode", "PAUSE frames", "aggregate (Mbps)", "lossless drops"],
            mode_rows,
        ),
    ]
    report("ablation_thresholds", "\n".join(lines))

    # Throughput is threshold-insensitive in a healthy incast...
    for rows in (xoff_rows, mode_rows):
        for row in rows:
            assert float(row[2]) > 900
    # ... but smaller XOFF pauses (weakly) more often.
    pause_counts = [row[1] for row in xoff_rows]
    assert pause_counts[0] >= pause_counts[-1]
    # Headroom is the lossless guarantee: zero with the sized reserve,
    # real drops without it.
    by_headroom = {row[0]: row[1] for row in headroom_rows}
    assert by_headroom["48 KB"] == 0
    assert by_headroom["0 KB"] > 0
    # Dynamic thresholds stay lossless too.
    assert all(row[3] == 0 for row in mode_rows)
