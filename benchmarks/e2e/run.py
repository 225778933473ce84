#!/usr/bin/env python3
"""End-to-end benchmark of the Tagger reproduction (see README.md here).

One workload, as the benchmark driver calls it (last stdout line is the
result as one JSON object)::

    python3 benchmarks/e2e/run.py --workload churn-clos64 --seed 7 --seconds 24 --trace 0

Every workload, each in its own child process, untraced then traced::

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--quick] [--no-trace] [--out F]

Compare two ``--out`` files, or refresh the committed digests::

    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --update-expected
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DETAIL_PREFIX = "#detail "


def _import_benchmark() -> float:
    """Put the benchmark and the system on the path; seconds the import took."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: the system under test is missing (no {source}/repro)")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import e2ebench.runner  # noqa: F401  (imports every repro layer the workloads use)

    return time.perf_counter() - start


def _pin_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0``.

    String hashes are salted per process, which moves set and dict
    layouts and with them the planner's and simulator's speed: the same
    commit measured 4.9 s to 6.3 s per fattree1024 plan across ten
    processes with random salts and 5.0 s to 5.2 s with a fixed one,
    while inside one process the spread was small either way. A fixed
    salt measures one draw of that distribution, every time the same.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _benchmark_json() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_single(args: argparse.Namespace) -> int:
    """Driver contract: one workload, one mode, result on the last line."""
    _pin_hash_seed()
    import_seconds = _import_benchmark()
    from e2ebench import catalogue
    from e2ebench.report import format_result, machine_line
    from e2ebench.runner import run_workload

    result = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        quick=args.quick, import_seconds=import_seconds,
    )
    detail = result.to_json()
    print(machine_line())
    print(format_result(detail))
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if args.detail:
        print(DETAIL_PREFIX + json.dumps(detail))
    units = catalogue.units(bool(args.trace))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter: clean heap, own peak RSS."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        elif not line.startswith("{"):
            print(line)
    if done.returncode != 0 or detail is None:
        sys.exit(f"run.py: child for {workload} (trace={trace}) exited {done.returncode}")
    return detail


def run_all(args: argparse.Namespace) -> int:
    """Each selected workload in sequential children, untraced then traced."""
    benchmark = _benchmark_json()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    report: Dict[str, Any] = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    failed = 0
    for name in names:
        modes = {"end_to_end": _child(name, args.seed, seconds, 0, args.quick)}
        if not args.no_trace:
            modes["per_layer"] = _child(name, args.seed, seconds, 1, args.quick)
        report["workloads"][name] = modes
        failed += sum(mode["failed"] for mode in modes.values())
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"operations failed across all workloads: {failed}")
    return 1 if failed else 0


def run_compare(first: str, second: str) -> int:
    _import_benchmark()
    from e2ebench.report import bounds_from_benchmark, compare

    base = json.loads(Path(first).read_text(encoding="utf-8"))
    new = json.loads(Path(second).read_text(encoding="utf-8"))
    text, failed = compare(base, new, bounds_from_benchmark(_benchmark_json()))
    print(text)
    print("REGRESSION" if failed else "no regression beyond the bounds")
    return 1 if failed else 0


def run_update_expected() -> int:
    """Rewrite expected.json from the default seed, full and quick sizes."""
    _import_benchmark()
    from e2ebench.inputs import DEFAULT_SEED
    from e2ebench.runner import EXPECTED_PATH, expected_key, run_workload
    from e2ebench.workloads import WORKLOADS

    digests = {}
    for name, workload_cls in WORKLOADS.items():
        for quick in (False, True):
            count = workload_cls(DEFAULT_SEED, quick).distinct_operations
            result = run_workload(
                name, seed=DEFAULT_SEED, quick=quick, operations=count, check_expected=False
            )
            if result.failed:
                sys.exit(f"run.py: {name} fails its invariants: {result.failures[0]}")
            digests[expected_key(name, quick)] = result.digests
            print(f"{expected_key(name, quick)}: {len(result.digests)} digest(s)")
    blob = {"seed": DEFAULT_SEED, "digests": digests}
    EXPECTED_PATH.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true", help="tiny fabrics, one operation, no profile pass"
    )
    parser.add_argument(
        "--no-trace", action="store_true", help="skip the traced child of each workload"
    )
    parser.add_argument("--out", help="write the full result (samples, spans) as JSON")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.update_expected:
        return run_update_expected()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        if args.seconds is None:
            args.seconds = 0.0 if args.quick else float(_benchmark_json()["run_seconds"])
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
