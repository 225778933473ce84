"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation, or holds one in-run performance floor. Deterministic
rows/series are printed to stdout AND written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite them;
wall-clock tables are printed only (``show``) — timings are recorded in
one place, the e2e ledger (``python3 benchmarks/e2e/run.py --out``).

Run with::

    pytest benchmarks/ -s
"""

import os
import sys
from pathlib import Path

import pytest

# bench_sim_throughput measures the production simulator against the
# reference stack kept under tests/ (``tests.simulator.reference_stack``).
sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.simulator import Flow, pin_path
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH, ClosParams

RESULTS_DIR = Path(__file__).parent / "results"

#: Set REPRO_FULL=1 to run the full-scale (slow) variants, e.g. the
#: 2000-switch Jellyfish row of Table 5.
FULL = os.environ.get("REPRO_FULL", "") == "1"

#: The 64-ToR benchmark Clos: 8 pods x 8 ToRs, 100 switches, 4032
#: switch pairs, 231,168 up-down ELP paths (the e2e churn fabric).
CLOS64 = ClosParams(
    num_pods=8, tors_per_pod=8, leaves_per_pod=4, num_spines=4,
    hosts_per_tor=1,
)


def add_fig10_flows(net, blue_id, green_id):
    """Fig. 10's traffic on the testbed: blue ``H1->H13`` from t=0 and
    green ``H9->H2`` from 10 ms, pinned onto the Fig. 3 1-bounce paths."""
    blue = net.add_flow(
        Flow(src="H1", dst="H13", flow_id=blue_id,
             pinned_next_hops=pin_path(TESTBED_BLUE_PATH))
    )
    green = net.add_flow(
        Flow(src="H9", dst="H2", start=0.01, flow_id=green_id,
             pinned_next_hops=pin_path(TESTBED_GREEN_PATH))
    )
    return blue, green


def throttle_h2(net, start=0.05, end=0.08):
    """Fig. 10's trigger: ``H2`` drains at 50 Mb/s from ``start`` to
    ``end`` — a transient slow receiver that abates mid-run."""
    net.at(start, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(end, lambda: net.set_receiver_rate("H2", None))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def show(name: str, text: str) -> None:
    """Print a result. Wall-clock tables stop here: they differ on every
    run, so they are not persisted."""
    print(f"\n===== {name} =====")
    print(text)


@pytest.fixture
def report(results_dir):
    """Returns a writer: report(name, text) prints and persists a result."""

    def write(name: str, text: str) -> None:
        show(name, text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return write


def format_table(headers, rows) -> str:
    """Plain-text table with right-padded columns."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_series(label_pairs, series_map, t_step=0.01) -> str:
    """Rate-vs-time series as aligned text columns (paper figure data)."""
    lines = ["time_s  " + "  ".join(f"{label}_Mbps" for label, _ in label_pairs)]
    length = max(len(series_map[label]) for label, _ in label_pairs)
    for i in range(length):
        row = [f"{i * t_step:6.3f}"]
        for label, _ in label_pairs:
            series = series_map[label]
            value = series[i] if i < len(series) else 0.0
            row.append(f"{value / 1e6:10.1f}")
        lines.append("  ".join(row))
    return "\n".join(lines)
