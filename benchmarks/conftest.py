"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation. The computed rows/series are printed to stdout AND written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite them.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import os
import sys
from pathlib import Path

import pytest

# bench_sim_throughput measures the production simulator against the
# reference stack kept under tests/ (``tests.simulator.reference_stack``).
sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.perf import (
    BaselineEntry,
    compare_stages,
    load_baselines,
    record_baseline,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: The committed perf baseline registry at the repository root.
BASELINE_PATH = Path(__file__).parent.parent / "BENCH_pipeline.json"

#: Set REPRO_FULL=1 to run the full-scale (slow) variants, e.g. the
#: 2000-switch Jellyfish row of Table 5.
FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Set REPRO_RECORD=1 to refresh the committed BENCH_pipeline.json with
#: this run's timings (the perf analogue of --update-golden). Without it
#: timing benchmarks only *compare* against the committed baseline.
RECORD = os.environ.get("REPRO_RECORD", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Returns a writer: report(name, text) prints and persists a result."""

    def write(name: str, text: str) -> None:
        print(f"\n===== {name} =====")
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return write


@pytest.fixture
def baseline_entry():
    """Returns a writer: baseline_entry(name, stages, **meta).

    Emits one benchmark's stage-level wall-clock timings as JSON feeding
    the repo-root ``BENCH_pipeline.json``. With REPRO_RECORD=1 the
    committed entry is refreshed in place (merge semantics, other entries
    untouched); otherwise the fresh run is compared against the committed
    entry and per-stage regressions beyond 2x are printed — advisory, not
    failing, because shared-CI wall clocks are noisy.
    """

    def write(name: str, stages, **meta) -> BaselineEntry:
        entry = BaselineEntry(name=name, stages=dict(stages), meta=dict(meta))
        line = "  ".join(
            f"{stage}={secs * 1000.0:.1f}ms"
            for stage, secs in entry.stages.items()
        )
        print(f"\n[baseline] {name}: {line} "
              f"(total {entry.total_seconds * 1000.0:.1f}ms)")
        if RECORD:
            record_baseline(BASELINE_PATH, entry)
            print(f"[baseline] {name}: recorded to {BASELINE_PATH.name}")
        else:
            committed = load_baselines(BASELINE_PATH).get(name)
            if committed is not None:
                for complaint in compare_stages(committed, entry, tolerance=2.0):
                    print(f"[baseline] REGRESSION {complaint}")
        return entry

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
