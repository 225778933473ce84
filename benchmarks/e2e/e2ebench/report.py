"""Human-readable report of a run, and ``--compare`` of two result files."""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Dict, List, Tuple

from e2ebench import catalogue


def machine_line() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"machine={platform.machine()}"
    )


def five_numbers(values: List[float]) -> Tuple[float, float, float, float, float]:
    """min, first quartile, median, third quartile, max."""
    if len(values) < 2:
        only = values[0]
        return only, only, only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return min(values), q1, median, q3, max(values)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    _low, q1, median, q3, _high = five_numbers(values)
    return (q3 - q1) / median if median else 0.0


def format_result(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, and the samples behind it."""
    units = catalogue.units(result["trace"])
    mode = "traced, per-layer" if result["trace"] else "untraced, end-to-end"
    lines = [
        f"== {result['workload']}  seed={result['seed']}  ({mode})"
        f"{'  quick' if result['quick'] else ''}",
        f"   operations attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}",
    ]
    lines += [f"   FAILED {message}" for message in result["failures"]]
    for name, value in result["metrics"].items():
        line = f"   {name:40s} {value:14.6g} {units[name]:6s}"
        values = result["samples"].get(name)
        if values and len(values) > 1:
            low, q1, _median, q3, high = five_numbers(values)
            line += f" n={len(values):<3d} min={low:.4g} q1={q1:.4g} q3={q3:.4g} max={high:.4g}"
        elif values:
            line += " n=1"
        lines.append(line)
    if result["trace"]:
        traced = result["metrics"]["bench.traced-op_s"]
        share = result["metrics"]["bench.unattributed_s"] / traced
        lines.append(f"   layer spans cover {100 * (1 - share):.1f} % of the traced operation")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _verdict(
    base: Dict[str, Any], new: Dict[str, Any], name: str, better: str, bound: float
) -> Tuple[str, float]:
    """(improved | within bound | regressed | unresolved, change as a share).

    The change is signed so that positive means worse. Where either
    side's own spread exceeds the bound the pair is unresolved, unless
    every sample of the new side is better than every sample of the old.
    """
    old_value, new_value = base["metrics"][name], new["metrics"][name]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_value - old_value) / old_value
    old_samples = base["samples"].get(name, [old_value])
    new_samples = new["samples"].get(name, [new_value])
    noise = max(spread(old_samples), spread(new_samples))
    if noise > bound:
        if better == "lower":
            dominated = max(new_samples) < min(old_samples)
        else:
            dominated = min(new_samples) > max(old_samples)
        return ("improved" if dominated else "unresolved"), change
    if change > bound:
        return "regressed", change
    if change < 0 and -change > noise:
        return "improved", change
    return "within bound", change


def compare(
    base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, Tuple[str, float]]
) -> Tuple[str, bool]:
    """Report B against A; the flag is True when the comparison fails.

    ``base``/``new`` are ``--out`` files; ``bounds`` maps each end-to-end
    metric to its (better, bound) from ``BENCHMARK.json``.
    """
    lines = []
    failed = False
    for workload, old_modes in base["workloads"].items():
        new_modes = new["workloads"].get(workload)
        if new_modes is None:
            lines.append(f"== {workload}: missing from the second file")
            failed = True
            continue
        lines.append(f"== {workload}")
        old_run, new_run = old_modes.get("end_to_end"), new_modes.get("end_to_end")
        if old_run and new_run:
            for name, (better, bound) in bounds.items():
                verdict, change = _verdict(old_run, new_run, name, better, bound)
                failed |= verdict == "regressed"
                lines.append(
                    f"   {name:16s} {old_run['metrics'][name]:12.5g} -> "
                    f"{new_run['metrics'][name]:12.5g}  {100 * change:+7.2f} % worse  "
                    f"[{verdict}, bound {100 * bound:.0f} %]"
                )
            old_share = old_run["failed"] / old_run["attempted"]
            new_share = new_run["failed"] / new_run["attempted"]
            rose = new_share > old_share
            failed |= rose
            lines.append(
                f"   {'failed share':16s} {old_share:12.5g} -> {new_share:12.5g}  "
                f"[{'ROSE' if rose else 'not higher'}]"
            )
        old_layers, new_layers = old_modes.get("per_layer"), new_modes.get("per_layer")
        if old_layers and new_layers:
            for name, old_value in old_layers["metrics"].items():
                new_value = new_layers["metrics"].get(name, 0.0)
                if old_value == new_value:
                    continue
                delta = (new_value - old_value) / old_value if old_value else float("inf")
                lines.append(
                    f"     {name:38s} {old_value:12.5g} -> {new_value:12.5g}  "
                    f"{100 * delta:+7.2f} %"
                )
    return "\n".join(lines), failed


def bounds_from_benchmark(benchmark: Dict[str, Any]) -> Dict[str, Tuple[str, float]]:
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in benchmark["end_to_end"]
    }
